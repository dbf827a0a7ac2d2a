"""The three-station scenario: labels, parity rule, model, searches."""

import itertools
import random
from math import prod

import pytest

from bstghz.errors import BadFlag
from bstghz.events import (
    consistency_grade,
    is_consistent,
    is_spacelike,
    validate_spread,
)
from bstghz.ghz import (
    ALL_CONTEXTS,
    OMEGA_CONSTRAINTS,
    OUTCOME_EVENT_ORDER,
    SIGNS,
    STATIONS,
    THEOREM_CONTEXTS,
    GhzVector,
    build_abstract_structure,
    consistent_vectors,
    context_label,
    context_vectors,
    contextual_assignment_search,
    inconsistent_vectors,
    nspread_name,
    outcome_name,
    parity_consistent,
    parse_context,
    sign_char,
    signs_label,
    terminal_name,
    value_assignment_search,
)
from bstghz.model import choice_points

from .oracles import (
    brute_force_contextual_search,
    brute_force_grade,
    brute_force_value_search,
    enumerate_outcome_vectors,
)

UNKNOWN = [(("x", "x", "z"), 1)]
UNKNOWN_MESSAGE = r"^unknown context: \('x', 'x', 'z'\)$"


class TestLabels:
    def test_sign_char(self):
        assert sign_char(1) == "+"
        assert sign_char(-1) == "-"

    def test_context_and_signs_labels(self):
        assert context_label(("x", "x", "y")) == "xxy"
        assert signs_label((1, -1, 1)) == "+-+"

    def test_outcome_name(self):
        assert outcome_name(1, "x", 1) == "x+1"
        assert outcome_name(3, "y", -1) == "y-3"

    def test_vector_label_and_names(self):
        v = GhzVector(context=("x", "x", "y"), signs=(1, -1, 1))
        assert v.label() == "xxy:+-+"
        assert v.outcome_names == ("x+1", "x-2", "y+3")
        assert terminal_name(v) == "t:xxy:+-+"

    def test_parse_context(self):
        assert parse_context("xyx") == ("x", "y", "x")
        for bad in ("xxz", "xy", "", "xxxx"):
            with pytest.raises(BadFlag):
                parse_context(bad)

    def test_vector_validation(self):
        with pytest.raises(ValueError, match="bad context"):
            GhzVector(context=("x", "x", "z"), signs=(1, 1, 1))
        with pytest.raises(ValueError, match="bad signs"):
            GhzVector(context=("x", "x", "x"), signs=(1, 0, 1))

    def test_all_contexts_enumeration(self):
        assert len(ALL_CONTEXTS) == 8
        assert ALL_CONTEXTS[0] == ("x", "x", "x")
        assert ALL_CONTEXTS[-1] == ("y", "y", "y")

    def test_outcome_event_order(self):
        assert OUTCOME_EVENT_ORDER == (
            "x-1", "x+1", "y-1", "y+1",
            "x-2", "x+2", "y-2", "y+2",
            "x-3", "x+3", "y-3", "y+3",
        )


class TestParityRule:
    def test_matches_sign_product_formulation(self):
        # independent reading: the product of the three signs is +1 for
        # mixed contexts and -1 for unmixed ones
        for ctx in ALL_CONTEXTS:
            mixed = len(set(ctx)) > 1
            for v in context_vectors(ctx):
                expected = prod(v.signs) == (1 if mixed else -1)
                assert parity_consistent(v) == expected

    def test_four_consistent_four_inconsistent_per_context(self):
        for ctx in ALL_CONTEXTS:
            cons = consistent_vectors(ctx)
            inc = inconsistent_vectors(ctx)
            assert len(cons) == 4 and len(inc) == 4
            assert set(cons) | set(inc) == set(context_vectors(ctx))

    def test_flipping_any_one_sign_flips_consistency(self):
        for ctx in ALL_CONTEXTS:
            for v in context_vectors(ctx):
                for k in range(3):
                    flipped = tuple(
                        -s if i == k else s for i, s in enumerate(v.signs)
                    )
                    w = GhzVector(context=ctx, signs=flipped)
                    assert parity_consistent(w) != parity_consistent(v)

    def test_omega_and_theorem_families(self):
        assert OMEGA_CONSTRAINTS == (
            (("x", "y", "y"), 1),
            (("y", "x", "y"), 1),
            (("y", "y", "x"), 1),
            (("x", "x", "x"), -1),
        )
        assert THEOREM_CONTEXTS == (
            ("x", "x", "x"),
            ("x", "x", "y"),
            ("x", "y", "y"),
            ("x", "y", "x"),
        )


class TestAbstractStructure:
    def test_inventory(self):
        s = build_abstract_structure()
        assert len(s.events) == 21
        assert len(s.spreads) == 12
        assert len(s.nspreads) == 10

    def test_context_nspreads_and_outcome_events(self):
        s = build_abstract_structure()
        for ctx in ALL_CONTEXTS:
            ns = s.nspreads[nspread_name(ctx)]
            assert ns.spreads == tuple(
                s.spreads[f"sigma_{a}_{i}"] for i, a in zip(STATIONS, ctx)
            )
        assert all(n in s.events for n in OUTCOME_EVENT_ORDER)

    def test_context_nspread_wiring(self):
        s = build_abstract_structure()
        ns = s.nspreads[nspread_name(("x", "x", "y"))]
        assert [sp.initial.name for sp in ns.spreads] == ["x1", "x2", "y3"]
        assert [
            [o.name for o in sp.outcomes] for sp in ns.spreads
        ] == [["x-1", "x+1"], ["x-2", "x+2"], ["y-3", "y+3"]]

    def test_vector_events(self):
        s = build_abstract_structure()
        v = GhzVector(context=("y", "x", "y"), signs=(-1, 1, -1))
        assert [s.events[n].name for n in v.outcome_names] == [
            "y-1", "x+2", "y-3"
        ]


class TestConcreteModel:
    def test_point_and_history_counts(self, ghz_model):
        assert len(ghz_model.points) == 53
        assert len(ghz_model.histories) == 32
        assert all(h.mask.bit_count() == 10 for h in ghz_model.histories)

    def test_histories_topped_by_terminals(self, ghz_model):
        tops = {h.top for h in ghz_model.histories}
        assert all(t.startswith("t:") for t in tops)
        assert {t for t in tops if t.startswith("t:xxx:")} == {
            "t:xxx:---",
            "t:xxx:-++",
            "t:xxx:+-+",
            "t:xxx:++-",
        }

    def test_every_spread_validates(self, ghz_model, ghz_structure):
        for name in sorted(ghz_structure.spreads):
            r = validate_spread(ghz_model, ghz_structure.spreads[name])
            assert r.status == "pass", (name, r.violations)

    def test_history_consistency_equals_parity_rule(
        self, ghz_model, ghz_structure
    ):
        for ctx in ALL_CONTEXTS:
            for v in context_vectors(ctx):
                terms = [ghz_structure.events[n] for n in v.outcome_names]
                realized = is_consistent(ghz_model, (), terms)
                assert realized == parity_consistent(v), v.label()

    def test_measurement_nspread_grades(self, ghz_model, ghz_structure):
        g = consistency_grade(
            ghz_model, ghz_structure.nspreads[nspread_name(("x", "x", "y"))]
        )
        assert g.minimal and g.one_consistent and not g.maximal
        assert g.vector_count == 8
        assert [v.names for v in g.inconsistent_vectors] == [
            ("x-1", "x-2", "y-3"),
            ("x-1", "x+2", "y+3"),
            ("x+1", "x-2", "y+3"),
            ("x+1", "x+2", "y-3"),
        ]

    def test_axis_choice_nspread_is_maximal(self, ghz_model, ghz_structure):
        g = consistency_grade(ghz_model, ghz_structure.nspreads["Sigma_123"])
        assert g.maximal
        assert g.vector_count == 8

    def test_star_nspread_spacelike_and_half_consistent(
        self, ghz_model, ghz_structure
    ):
        ns = ghz_structure.nspreads["Sigma_star_123"]
        assert is_spacelike(ghz_model, ns)
        g = consistency_grade(ghz_model, ns)
        assert g.one_consistent and not g.maximal
        assert g.vector_count == 64
        assert len(g.inconsistent_vectors) == 32

    def test_every_nspread_grade_agrees_with_the_oracle(
        self, ghz_model, ghz_structure
    ):
        for name, ns in sorted(ghz_structure.nspreads.items()):
            got = consistency_grade(ghz_model, ns)
            assert got == brute_force_grade(ghz_model, ns), name
        star = ghz_structure.nspreads["Sigma_star_123"]
        g = consistency_grade(ghz_model, star)
        assert (g.vector_count, len(g.inconsistent_vectors)) == (64, 32)

    def test_measurement_nspreads_spacelike(self, ghz_model, ghz_structure):
        for ctx in ALL_CONTEXTS:
            assert is_spacelike(
                ghz_model, ghz_structure.nspreads[nspread_name(ctx)]
            )

    def test_choice_points_between_sibling_histories(self, ghz_model):
        hs = {h.top: h for h in ghz_model.histories}
        # same signs at stations 1 and 2, axis choice open at station 3
        cps = choice_points(
            ghz_model, hs["t:xxy:+--"], hs["t:xxx:+-+"]
        )
        assert cps == {"x+1", "x-2", "I3"}
        # same context, signs differing at stations 1 and 2 only
        cps = choice_points(
            ghz_model, hs["t:xxx:+-+"], hs["t:xxx:-++"]
        )
        assert cps == {"x1", "x2", "x+3"}

    def test_vector_enumeration_matches_context_vectors(
        self, ghz_structure
    ):
        ns = ghz_structure.nspreads[nspread_name(("x", "y", "x"))]
        enumerated = [v.names for v in enumerate_outcome_vectors(ns)]
        expected = [
            v.outcome_names for v in context_vectors(("x", "y", "x"))
        ]
        assert enumerated == expected


class TestValueSearch:
    def test_no_global_assignment_satisfies_all_four(self):
        res = value_assignment_search()
        assert res.total == 64
        assert res.satisfying == 0
        assert res.witnesses == ()

    def test_dropping_any_one_constraint_leaves_eight(self):
        for k in range(len(OMEGA_CONSTRAINTS)):
            rest = [c for i, c in enumerate(OMEGA_CONSTRAINTS) if i != k]
            assert value_assignment_search(rest).satisfying == 8

    def test_unconstrained_search_admits_everything(self):
        assert value_assignment_search([]).satisfying == 64

    def test_assignment_key_order(self):
        from bstghz.ghz import ValueSearchResult

        assert ValueSearchResult.assignment_keys() == (
            (1, "x"), (1, "y"),
            (2, "x"), (2, "y"),
            (3, "x"), (3, "y"),
        )

    def test_matches_the_brute_force(self):
        parity = [
            (ctx, prod(consistent_vectors(ctx)[0].signs))
            for ctx in ALL_CONTEXTS
        ]
        subsets = [
            list(sub)
            for r in range(1, len(parity) + 1)
            for sub in itertools.combinations(parity, r)
        ]
        flipped = [[(ctx, -t) for ctx, t in sub] for sub in subsets]
        rng = random.Random(19)
        drawn = [
            [
                (rng.choice(ALL_CONTEXTS), rng.choice((-1, 1) * 9 + (0, 2)))
                for _ in range(rng.randint(1, 10))
            ]
            for _ in range(150)
        ]
        lists = subsets + flipped + [[]] + drawn + [d[::-1] for d in drawn]
        assert len(lists) == 811
        for constraints in lists:
            assert value_assignment_search(
                constraints
            ) == brute_force_value_search(constraints), constraints

        # recount the oracle with an unrelated encoding: signs as bits
        keys = [(i, a) for i in (1, 2, 3) for a in ("x", "y")]
        for r in range(len(OMEGA_CONSTRAINTS) + 1):
            for sub in itertools.combinations(OMEGA_CONSTRAINTS, r):
                hits = 0
                for bits in range(64):
                    val = {
                        k: (1 if bits >> n & 1 else -1)
                        for n, k in enumerate(keys)
                    }
                    hits += all(
                        val[(1, c[0])] * val[(2, c[1])] * val[(3, c[2])] == t
                        for c, t in sub
                    )
                assert hits == brute_force_value_search(sub).satisfying
                assert hits == value_assignment_search(sub).satisfying

    def test_one_shot_iterable(self):
        res = value_assignment_search(c for c in OMEGA_CONSTRAINTS)
        assert res == value_assignment_search()

    def test_unknown_context_rejected(self):
        with pytest.raises(ValueError, match=UNKNOWN_MESSAGE):
            value_assignment_search(UNKNOWN)


class TestContextualSearch:
    def test_closed_form_matches_the_brute_force(self):
        families = [
            list(sub)
            for r in range(len(OMEGA_CONSTRAINTS) + 1)
            for sub in itertools.combinations(OMEGA_CONSTRAINTS, r)
        ]
        assert len(families) == 16
        unsolvable = [(("x", "y", "y"), 0)]
        for constraints in families + [unsolvable]:
            assert contextual_assignment_search(
                constraints
            ) == brute_force_contextual_search(constraints)
        assert contextual_assignment_search(unsolvable).witness is None

    def test_unknown_context_rejected(self):
        with pytest.raises(ValueError, match=UNKNOWN_MESSAGE):
            contextual_assignment_search(UNKNOWN)

    def test_one_shot_iterable(self):
        res = contextual_assignment_search(c for c in OMEGA_CONSTRAINTS)
        assert res == contextual_assignment_search()

    def test_count_and_witness(self):
        res = contextual_assignment_search()
        assert res.total == 8 ** 4 == 4096
        assert res.satisfying == 4 ** 4 == 256
        assert res.witness == (
            (-1, -1, 1),
            (-1, -1, 1),
            (-1, -1, 1),
            (-1, -1, -1),
        )

    def test_witness_meets_every_target(self):
        res = contextual_assignment_search()
        for triple, (_, target) in zip(res.witness, res.constraints):
            assert triple[0] * triple[1] * triple[2] == target

    def test_per_constraint_counts_multiply(self):
        # each product constraint admits exactly 4 of the 8 sign triples
        for _, target in OMEGA_CONSTRAINTS:
            n = sum(
                1
                for t in itertools.product(SIGNS, repeat=3)
                if prod(t) == target
            )
            assert n == 4
