"""Order construction, histories, and the three structural checks."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from bstghz.errors import CycleDetected, EmptyModel, SameHistory, UnknownPoint
from bstghz.model import (
    History,
    build_model,
    check_density,
    check_infima_suprema,
    check_prior_choice,
    choice_points,
    compute_histories,
    is_chain,
)

from .oracles import (
    brute_force_covers,
    brute_force_density_gaps,
    brute_force_histories,
    brute_force_infima_suprema_ok,
    brute_force_prior_choice_ok,
    seeded_model,
    seeded_order,
    set_check_density,
    set_check_prior_choice,
    set_is_chain,
    set_model,
    set_model_of,
)

EDGE_PROBS = st.sampled_from([0.05, 0.15, 0.35, 0.6])


def fork():
    return build_model(["d", "d-", "d+"], [("d", "d-"), ("d", "d+")])


def chain3():
    return build_model(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])


class TestBuildModel:
    def test_empty_points_rejected(self):
        with pytest.raises(EmptyModel):
            build_model([], [])

    def test_duplicate_point_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_model(["a", "a"], [])

    def test_blank_point_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            build_model(["a", ""], [])

    def test_pair_with_undeclared_point_rejected(self):
        with pytest.raises(UnknownPoint):
            build_model(["a"], [("a", "b")])
        with pytest.raises(UnknownPoint):
            build_model(["a"], [("b", "a")])

    @pytest.mark.parametrize(
        "points, message",
        [
            (["a", "", "a"], "point ids must be nonempty strings, got ''"),
            (["a", "a", ""], "duplicate point id: 'a'"),
            (["a", 3, "a"], "point ids must be nonempty strings, got 3"),
            (["a", "a", 3], "duplicate point id: 'a'"),
            (["a", ["b"]], "point ids must be nonempty strings, got ['b']"),
        ],
        ids=[
            "blank-before-repeat",
            "repeat-before-blank",
            "number-before-repeat",
            "repeat-before-number",
            "list",
        ],
    )
    def test_bad_point_ids_name_the_first_offender(self, points, message):
        with pytest.raises(ValueError) as exc:
            build_model(points, [])
        assert type(exc.value) is ValueError
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "pair, named",
        [(("y", "x"), "y"), (("x", "y"), "x"), (("a", "z"), "z")],
        ids=["both-undeclared", "both-undeclared-sorted", "upper-undeclared"],
    )
    def test_a_pair_names_its_first_undeclared_id(self, pair, named):
        with pytest.raises(UnknownPoint) as exc:
            build_model(["a", "b"], [("a", "b"), pair])
        assert str(exc.value) == f"unknown point id in order pair: {named!r}"

    def test_a_repeated_pair_counts_once(self):
        once = build_model(["a", "b", "c"], [("a", "b"), ("b", "c")])
        twice = build_model(
            ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "b")]
        )
        assert twice._values() == once._values()

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            build_model(["a", "b"], [("a", "b"), ("b", "a")])

    def test_transitive_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            build_model(
                ["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")]
            )

    def test_two_cycle_message(self):
        with pytest.raises(CycleDetected) as exc:
            build_model(["a", "b"], [("a", "b"), ("b", "a")])
        assert str(exc.value) == "ordering cycle through point 'a'"

    def test_cycle_downstream_of_an_acyclic_prefix_message(self):
        # x and y lie below the cycle a -> b -> c -> a but not on it; the
        # message names the first point in input order that is on it
        pairs = [("x", "y"), ("y", "a"), ("a", "b"), ("b", "c"), ("c", "a")]
        with pytest.raises(CycleDetected) as exc:
            build_model(["x", "y", "a", "b", "c"], pairs)
        assert str(exc.value) == "ordering cycle through point 'a'"
        with pytest.raises(CycleDetected) as exc:
            build_model(["y", "x", "c", "b", "a"], pairs)
        assert str(exc.value) == "ordering cycle through point 'c'"

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_cycle_messages_agree_with_the_set_closure(self, seed):
        rng = random.Random(seed)
        names, pairs = seeded_order(rng, max_points=9, edge_prob=0.3)
        pairs += [
            (names[j], names[i])
            for i, j in itertools.combinations(range(len(names)), 2)
            if rng.random() < 0.05
        ]
        order = rng.sample(names, len(names))
        try:
            set_model(order, pairs)
        except CycleDetected as exc:
            with pytest.raises(CycleDetected) as fast:
                build_model(order, pairs)
            assert str(fast.value) == str(exc)
        else:
            build_model(order, pairs)

    def test_closure_is_computed(self):
        m = build_model(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert m.names(m.down[m.index["c"]]) == ["a", "b"]
        assert m.names(m.up[m.index["a"]]) == ["b", "c"]

    def test_points_are_sorted(self):
        m = build_model(["z", "a", "m"], [])
        assert m.points == ("a", "m", "z")


def below(m, p, q):
    # p < q, asked as a bit of q's down mask
    return bool(m.down[m.index[q]] >> m.index[p] & 1)


class TestOrderPrimitives:
    def test_lt_le_comparable(self):
        m = chain3()
        assert below(m, "a", "b") and not below(m, "b", "a")
        assert not below(m, "a", "a")
        assert below(m, "a", "c")
        assert m.up[m.index["a"]] >> m.index["c"] & 1
        f = fork()
        assert not below(f, "d-", "d+") and not below(f, "d+", "d-")

    def test_down_closure(self):
        m = chain3()
        assert m.names(m.down[m.index["c"]] | m.mask(["c"])) == [
            "a", "b", "c",
        ]
        assert m.names(m.down[m.index["a"]] | m.mask(["a"])) == ["a"]

    def test_covers_skip_redundant_pair(self):
        m = chain3()
        assert m.covers("a") == ("b",)
        assert m.covers("c") == ()

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_covers_agree_with_the_pairwise_scan(self, seed):
        m = seeded_model(random.Random(seed), max_points=12)
        for p in m.points:
            assert m.covers(p) == brute_force_covers(m, p)

    def test_maximal_points(self):
        f, m = fork(), chain3()
        assert f.names(f.maximal(f.mask(f.points))) == ["d+", "d-"]
        assert m.names(m.maximal(m.mask(m.points))) == ["c"]

    def test_maximal_in(self):
        f = fork()
        assert f.names(f.maximal(f.mask({"d", "d-"}))) == ["d-"]
        assert f.maximal(f.mask(())) == 0

    def test_order_pairs_full_relation(self):
        m = chain3()
        assert [
            (p, q) for p, up in zip(m.points, m.up) for q in m.names(up)
        ] == [("a", "b"), ("a", "c"), ("b", "c")]

    def test_require_points(self):
        with pytest.raises(UnknownPoint):
            fork().mask(["d", "nope"])


class TestHistories:
    def test_fork_has_two(self):
        f = fork()
        tops = {h.top: f.names(h.mask) for h in f.histories}
        assert tops == {
            "d-": ["d", "d-"],
            "d+": ["d", "d+"],
        }

    def test_single_point(self):
        m = build_model(["only"], [])
        assert [m.names(h.mask) for h in m.histories] == [["only"]]

    def test_antichain_splits_into_singletons(self):
        m = build_model(["a", "b", "c"], [])
        assert {h.top for h in m.histories} == {"a", "b", "c"}
        assert all(len(m.names(h.mask)) == 1 for h in m.histories)

    def test_compute_histories_is_the_models_histories(self):
        f = fork()
        assert compute_histories(f) is f.histories

    def test_agrees_with_brute_force(self):
        for m in (fork(), chain3(), build_model(["a", "b"], [])):
            fast = {frozenset(m.names(h.mask)) for h in m.histories}
            assert fast == brute_force_histories(m)

    @staticmethod
    def assert_history_masks_from_sets(m):
        """``histories`` and ``history_bits`` equal the ones read off the
        order closed again over sets."""
        slow = set_model_of(m)
        assert [
            (h.top, frozenset(m.names(h.mask))) for h in m.histories
        ] == list(slow.histories)
        assert m.history_bits == {
            p: sum(
                1 << k for k, h in enumerate(slow.histories) if p in h.members
            )
            for p in slow.points
        }

    @pytest.mark.parametrize(
        "points, pairs",
        [
            # transitive pairs beside the covers, given before them
            ("abcde", [("a", "c"), ("a", "e"), ("b", "e"), ("a", "b"),
                       ("b", "c"), ("c", "d"), ("a", "d")]),
            # several maxima, met by the pass back out of index order,
            # and isolated points
            ("abcdefg", [("g", "a"), ("g", "c"), ("f", "b"), ("f", "g")]),
            ("x", []),
        ],
        ids=["transitive-pairs", "maxima-and-isolated", "one-point"],
    )
    def test_masks_from_the_topological_pass(self, points, pairs):
        self.assert_history_masks_from_sets(build_model(list(points), pairs))

    @settings(deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        EDGE_PROBS,
        st.booleans(),
        st.booleans(),
    )
    def test_masks_from_the_topological_pass_on_seeded_models(
        self, seed, edge_prob, closed, downward
    ):
        # ``closed`` gives every pair of the closure, so most generating
        # pairs are not covers; ``downward`` names the points so that the
        # order runs against the index order
        rng = random.Random(seed)
        names, pairs = seeded_order(rng, max_points=14, edge_prob=edge_prob)
        if closed:
            below = set_model(names, pairs).below
            pairs = [(a, b) for b in names for a in below[b]]
        if downward:
            flip = {p: f"q{len(names) - i:02d}" for i, p in enumerate(names)}
            names = [flip[p] for p in names]
            pairs = [(flip[a], flip[b]) for a, b in pairs]
        self.assert_history_masks_from_sets(build_model(names, pairs))


class TestChoicePoints:
    def test_fork_branches_at_the_fork(self):
        f = fork()
        h = {x.top: x for x in f.histories}
        assert choice_points(f, h["d-"], h["d+"]) == {"d"}

    def test_same_history_rejected(self):
        f = fork()
        h = f.histories[0]
        with pytest.raises(SameHistory):
            choice_points(f, h, h)

    def test_foreign_history_rejected(self):
        f = fork()
        bogus = History(top="d", mask=f.mask({"d"}))
        with pytest.raises(ValueError, match="not a history"):
            choice_points(f, bogus, f.histories[0])

    def test_disjoint_histories_have_none(self):
        m = build_model(["a", "b"], [])
        h = {x.top: x for x in m.histories}
        assert choice_points(m, h["a"], h["b"]) == frozenset()


class TestIsChain:
    def test_chain_and_non_chain(self):
        m = chain3()
        assert is_chain(m, ["a", "c", "b"])
        assert is_chain(m, ["b"])
        f = fork()
        assert not is_chain(f, ["d-", "d+"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            is_chain(chain3(), [])

    def test_unknown_point_rejected(self):
        with pytest.raises(UnknownPoint):
            is_chain(chain3(), ["a", "nope"])


class TestPriorChoice:
    def test_fork_passes(self):
        r = check_prior_choice(fork())
        assert r.status == "pass" and r.ok
        assert not r.violations

    def test_disjoint_histories_fail(self):
        r = check_prior_choice(build_model(["a", "b"], []))
        assert r.status == "fail" and not r.ok
        assert any("no choice point below" in v for v in r.violations)

    def test_matches_chain_quantified_oracle(self):
        models = [
            fork(),
            chain3(),
            build_model(["a", "b"], []),
            build_model(
                ["r", "s", "t", "u"],
                [("r", "s"), ("r", "t"), ("s", "u"), ("t", "u")],
            ),
        ]
        for m in models:
            assert check_prior_choice(m).ok == brute_force_prior_choice_ok(m)


def branching_by_definition(m):
    """The points none of whose covers lies in all of their histories."""
    bits = m.history_bits
    return sum(
        1 << m.index[p]
        for p in m.points
        if all(bits[q] != bits[p] for q in m.covers(p))
    )


class TestBranching:
    """``branching`` against its definition and the set order."""

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), EDGE_PROBS)
    def test_is_its_definition_for_any_generating_pairs(self, seed, edge_prob):
        rng = random.Random(seed)
        names, pairs = seeded_order(rng, max_points=14, edge_prob=edge_prob)
        m = build_model(names, pairs)
        assert m.branching == branching_by_definition(m)
        # the same order from its covers and a sample of its transitive
        # pairs marks the same points
        covers = [(p, q) for p in m.points for q in m.covers(p)]
        closure = [
            (p, q) for i, p in enumerate(m.points) for q in m.names(m.up[i])
        ]
        supplied = covers + rng.sample(closure, len(closure) // 2)
        rng.shuffle(supplied)
        assert build_model(names, supplied).branching == m.branching

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), EDGE_PROBS)
    def test_holds_every_choice_point(self, seed, edge_prob):
        names, pairs = seeded_order(
            random.Random(seed), max_points=14, edge_prob=edge_prob
        )
        m = build_model(names, pairs)
        slow = set_model_of(m)
        branching = frozenset(m.names(m.branching))
        for h1, h2 in itertools.combinations(slow.histories, 2):
            assert slow.maximal_in(h1.members & h2.members) <= branching


def prior_choice_mutants(points, pairs, rng, count):
    """Assert that the order of ``pairs`` passes prior choice, and that it
    and ``count`` mutants, each with one cover pair deleted, report it as
    the set order does, line for line; return how many mutants fail.

    The deleted pairs end above the past common to all histories, where
    a cut can leave two histories without a choice point.
    """
    m = build_model(points, pairs)
    report = check_prior_choice(m)
    assert report.status == "pass"
    assert len(m.histories) > 2
    assert report == set_check_prior_choice(set_model(points, pairs))
    covers = [(p, q) for p in m.points for q in m.covers(p)]
    every = (1 << len(m.histories)) - 1
    branches = [c for c in covers if m.history_bits[c[1]] != every]
    failing = 0
    for cut in rng.sample(branches, count):
        kept = [pair for pair in covers if pair != cut]
        report = check_prior_choice(build_model(points, kept))
        assert report == set_check_prior_choice(set_model(points, kept))
        failing += report.status == "fail"
    return failing


class TestPriorChoiceOnManyHistories:
    """Passing reports, and failing ones with many histories, which the
    sparse random orders above rarely reach."""

    def test_layered_order(self, scale_order):
        rng = random.Random(16)
        failing = prior_choice_mutants(
            *scale_order.layered_order(16), rng, count=4
        )
        assert failing

    def test_ghz_model(self, ghz_model):
        pairs = [(p, q) for p in ghz_model.points for q in ghz_model.covers(p)]
        failing = prior_choice_mutants(
            ghz_model.points, pairs, random.Random(53), count=12
        )
        assert failing

    @pytest.mark.parametrize("width", [2, 3, 5])
    def test_width_documents(self, scale_grade, width):
        doc = scale_grade.width_document(width)
        failing = prior_choice_mutants(
            doc.points, doc.order, random.Random(width), count=8
        )
        assert failing


class TestInfimaSuprema:
    def test_passes_on_small_models(self):
        for m in (fork(), chain3()):
            r = check_infima_suprema(m)
            assert r.status == "pass"
            assert not r.violations

    def test_finiteness_note_reported(self):
        r = check_infima_suprema(chain3())
        assert r.notes == (
            "finite chains have a least and a greatest member, which are "
            "their infimum and their supremum in every history containing "
            "them; the postulate holds in every finite model",
        )

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_agrees_with_the_span_scan(self, seed):
        # the oracle walks every maximal chain, so the models stay small
        m = seeded_model(random.Random(seed), max_points=8)
        assert check_infima_suprema(m).ok == brute_force_infima_suprema_ok(m)

    def test_no_chain_walk_on_a_wide_deep_model(self):
        # complete bipartite covers between consecutive layers: every
        # bottom-to-top path is a maximal chain, width ** depth of them
        width, depth = 8, 25
        layers = [[f"L{i:02d}w{j}" for j in range(width)] for i in range(depth)]
        pairs = [
            (a, b) for lo, hi in zip(layers, layers[1:]) for a in lo for b in hi
        ]
        m = build_model([p for layer in layers for p in layer], pairs)
        assert len(m.points) >= 200
        assert width**depth > 2**30
        r = check_infima_suprema(m)
        assert r.status == "pass"
        assert not r.violations


class TestDensity:
    def test_waived_with_witness_gap(self):
        r = check_density(fork())
        assert r.status == "waived"
        assert r.ok  # waived is not a failure
        assert r.violations == ("no point strictly between d and d+",)
        assert any("2 immediate gaps" in n for n in r.notes)

    def test_empty_order_passes(self):
        r = check_density(build_model(["a", "b"], []))
        assert r.status == "pass"
        assert not r.violations

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_agrees_with_the_gap_scan(self, seed):
        m = seeded_model(random.Random(seed), max_points=12)
        gaps = brute_force_density_gaps(m)
        r = check_density(m)
        if not gaps:
            assert r.status == "pass"
            return
        a, b = sorted(gaps)[0]
        assert r.status == "waived"
        assert r.violations == (f"no point strictly between {a} and {b}",)
        assert f"; {len(gaps)} immediate gaps in total" in r.notes[0]


class TestAgreesWithTheSetOrder:
    """The bitset order against the set implementation it replaced."""

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), EDGE_PROBS)
    def test_order_views_and_histories(self, seed, edge_prob):
        rng = random.Random(seed)
        names, pairs = seeded_order(rng, max_points=14, edge_prob=edge_prob)
        fast, slow = build_model(names, pairs), set_model(names, pairs)
        assert fast.points == slow.points
        for p, down, up in zip(fast.points, fast.down, fast.up):
            assert frozenset(fast.names(down)) == slow.below[p]
            assert frozenset(fast.names(up)) == slow.above[p]
        assert [
            (h.top, frozenset(fast.names(h.mask))) for h in fast.histories
        ] == list(slow.histories)
        for p in fast.points:
            assert fast.covers(p) == slow.covers(p)
        for _ in range(10):
            subset = frozenset(rng.sample(names, rng.randint(1, len(names))))
            assert is_chain(fast, subset) == set_is_chain(slow, subset)
            maxima = fast.maximal(fast.mask(subset))
            assert frozenset(fast.names(maxima)) == slow.maximal_in(subset)

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), EDGE_PROBS)
    def test_whole_reports(self, seed, edge_prob):
        rng = random.Random(seed)
        names, pairs = seeded_order(rng, max_points=14, edge_prob=edge_prob)
        fast, slow = build_model(names, pairs), set_model(names, pairs)
        assert check_prior_choice(fast) == set_check_prior_choice(slow)
        assert check_density(fast) == set_check_density(slow)

    def test_failing_prior_choice_reports(self):
        # sparse orders leave disjoint histories, which fail prior choice
        failing = 0
        for seed in range(60):
            names, pairs = seeded_order(random.Random(seed), 14, 0.1)
            report = check_prior_choice(build_model(names, pairs))
            assert report == set_check_prior_choice(set_model(names, pairs))
            failing += report.status == "fail"
        assert failing >= 30
