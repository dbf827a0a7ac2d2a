"""Screening conditions, the profile refutation, and determinism levels."""

import collections
import copy
import functools
import gc
import itertools
import math
import operator
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bstghz import common_cause, events, ghz
from bstghz.common_cause import (
    _cc_conditions,
    _require_cc_preconditions,
    _search_every_vector,
    atomic_spreads,
    check_common_cause,
    classify_determinism,
    search_common_causes,
    toy_decay_document,
)
from bstghz.errors import (
    BstError,
    InvalidSpread,
    NotInconsistencyType,
    PreconditionFailed,
)
from bstghz.events import (
    Event,
    NSpread,
    OutcomeVector,
    Spread,
    consistency_grade,
    is_spacelike,
    validate_spread,
)
from bstghz.document import load_document, resolve_document
from bstghz.ghz import (
    ALL_CONTEXTS,
    OMEGA_CONSTRAINTS,
    OUTCOME_EVENT_ORDER,
    THEOREM_CONTEXTS,
    CandidateProfile,
    ProfileSet,
    ReductioTrace,
    RefutationResult,
    TraceStep,
    _ALL_FLAGS,
    _ALL_PROFILES,
    _BIT,
    _close,
    _compile,
    _context_profiles,
    _context_settings,
    _profile,
    build_abstract_structure,
    build_concrete_model,
    consistent_vectors,
    context_vectors,
    inconsistent_vectors,
    nspread_name,
    refute_joint_common_cause,
)
from bstghz.model import CausalModel, build_model

from .oracles import (
    brute_force_grade,
    brute_force_is_consistent,
    brute_force_survivors,
    brute_force_value_search,
    check_derivation,
    enumerate_outcome_vectors,
    family_groups,
    profile_satisfies_constraints,
    random_spread,
    reference_atomic_spreads,
    reference_cc_conditions,
    reference_cc_preconditions,
    reference_search_common_causes,
    reference_spread_report,
    rescan_close,
    seeded_model,
    seeded_station_model,
    set_is_chain,
    set_model_of,
)

EVERY_FAMILY = [
    fam
    for r in range(len(ALL_CONTEXTS) + 1)
    for fam in itertools.combinations(ALL_CONTEXTS, r)
]


def unchecked_entry(
    model: CausalModel, spread: Spread
) -> tuple[int, tuple[int, ...]]:
    """The entry ``validate_spread`` writes for ``spread`` on a pass, built
    without validating it; its events must be chains."""
    return events._above(model, spread.initial), tuple(
        events._event_masks(model, o, "outcome")[2] for o in spread.outcomes
    )


def clear_ghz_caches():
    """Empty every ``functools`` cache in ``ghz``, so that no rule, table
    or trace step built before a test patches the rules outlives it."""
    for f in vars(ghz).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()


def spread_of(events, initial, *outcomes):
    return Spread(
        initial=events[initial],
        outcomes=tuple(events[o] for o in outcomes),
    )


def half_consistent_pair():
    """Two space-like spreads whose first outcome cannot occur jointly
    with either outcome of the other: minimally but not 1-consistent."""
    points = ["i1", "o1a", "o1b", "i2", "o2a", "o2b", "t1", "t2", "t3"]
    pairs = [
        ("i1", "o1a"),
        ("i1", "o1b"),
        ("i2", "o2a"),
        ("i2", "o2b"),
        ("o1a", "t1"),
        ("o1b", "t2"),
        ("o2a", "t2"),
        ("o1b", "t3"),
        ("o2b", "t3"),
    ]
    model = build_model(points, pairs)
    events = {p: Event(name=p, members=frozenset({p})) for p in points}
    ns = NSpread(
        spreads=(
            spread_of(events, "i1", "o1a", "o1b"),
            spread_of(events, "i2", "o2a", "o2b"),
        )
    )
    return model, events, ns


def search_draw(rng):
    """A model and target pairs: one or two n-spreads of one to three
    spreads, each listed with its inconsistent vectors.

    Most models are ``seeded_station_model``s and their n-spreads take
    their stations; the rest are ``seeded_model``s with atomic spreads.
    One spread in ten is a random chain spread, one vector in fifty a
    consistent one, so that some draws fail a precondition.
    """
    if rng.random() < 0.8:
        model, pool = seeded_station_model(rng)
    else:
        model = seeded_model(rng, max_points=12)
        pool = list(atomic_spreads(model)) or [random_spread(model, rng)]
    ns_list, vectors = [], []
    for _ in range(rng.randint(1, 2)):
        k = min(3, len(pool) if rng.random() < 0.8 else rng.randint(1, 3))
        spreads = rng.sample(pool, min(k, len(pool)))
        if rng.random() < 0.1:
            spreads[0] = random_spread(model, rng, chain_share=1.0)
        ns = NSpread(spreads=tuple(spreads))
        for v in enumerate_outcome_vectors(ns):
            if rng.random() < 0.02 or not brute_force_is_consistent(
                model, (), v.terms
            ):
                ns_list.append(ns)
                vectors.append(v)
    return model, ns_list, vectors


def every_vector_draw(rng):
    """A ``seeded_station_model`` and one or two n-spreads of its station
    spreads; one spread in ten is a random chain spread, so that some
    draws fail a precondition."""
    model, pool = seeded_station_model(rng)
    nspreads = []
    for _ in range(rng.randint(1, 2)):
        spreads = rng.sample(pool, rng.randint(1, len(pool)))
        if rng.random() < 0.1:
            spreads[0] = random_spread(model, rng, chain_share=1.0)
        nspreads.append(NSpread(spreads=tuple(spreads)))
    return model, nspreads


def every_vector_agrees(model, nspreads):
    """Assert that the search against every inconsistent vector by the box
    test agrees with the reference loop fed every inconsistent vector of
    ``brute_force_grade``: the same exception type, or the same target
    count, candidates and passing tuple.  Returns the reference result,
    None when both raised."""
    try:
        for ns in nspreads:
            reference_cc_preconditions(model, ns)
    except BstError as exc:
        with pytest.raises(BstError) as info:
            _search_every_vector(model, nspreads)
        assert type(info.value) is type(exc)
        return None
    targets = [
        (ns, v)
        for ns in nspreads
        for v in brute_force_grade(model, ns).inconsistent_vectors
    ]
    expected = reference_search_common_causes(
        model, [ns for ns, _ in targets], [v for _, v in targets]
    )
    count, got = _search_every_vector(model, nspreads)
    assert count == len(targets)
    assert (got.candidates_considered, got.passing, got.vacuous) == (
        expected.candidates_considered,
        expected.passing,
        expected.vacuous,
    )
    return expected


def reference_cc1_cc2_initials(model, ns):
    """The initials of the reference candidates that pass cc1 and cc2
    against ``ns``, by ``reference_cc_conditions``; those two conditions
    do not read the vector, so any vector of ``ns`` serves."""
    vector = OutcomeVector(terms=tuple(s.outcomes[0] for s in ns.spreads))
    names = []
    for cand in reference_atomic_spreads(model):
        report = reference_cc_conditions(model, cand, ns, vector)
        if report.cc1.passed and report.cc2.passed:
            names.append(cand.initial.name)
    return sorted(names)


def search_agrees(model, ns_list, vectors):
    """Assert that the search agrees with the reference loop: the same
    exception type, or the same candidates and passing tuple.  Returns
    the reference result, None when both raised."""
    try:
        expected = reference_search_common_causes(model, ns_list, vectors)
    except (BstError, ValueError) as exc:
        with pytest.raises((BstError, ValueError)) as info:
            search_common_causes(model, ns_list, vectors)
        assert type(info.value) is type(exc)
        return None
    got = search_common_causes(model, ns_list, vectors)
    assert (got.candidates_considered, got.passing, got.vacuous) == (
        expected.candidates_considered,
        expected.passing,
        expected.vacuous,
    )
    return expected


class TestChecker:
    def test_decay_screens_both_inconsistent_vectors(self, toy):
        for vector in toy.inconsistent:
            report = check_common_cause(
                toy.model, toy.decay_spread, toy.station_nspread, vector
            )
            assert report.passed
            assert report.cc1.passed
            assert report.cc2.passed
            assert report.cc3.passed

    def test_screening_witnesses_name_the_blocked_term(self, toy):
        report = check_common_cause(
            toy.model,
            toy.decay_spread,
            toy.station_nspread,
            toy.inconsistent[0],  # (a-, b-)
        )
        assert report.cc3.witnesses == (
            "d- is inconsistent with b-",
            "d+ is inconsistent with a-",
        )

    def test_station_spread_fails_causal_priority(self, toy):
        report = check_common_cause(
            toy.model,
            toy.station_nspread.spreads[0],
            toy.station_nspread,
            toy.inconsistent[0],
        )
        assert not report.cc1.passed
        assert not report.passed

    def test_consistent_vector_rejected(self, toy):
        e = toy.events
        ok = OutcomeVector(terms=(e["a-"], e["b+"]))
        with pytest.raises(NotInconsistencyType):
            check_common_cause(
                toy.model, toy.decay_spread, toy.station_nspread, ok
            )

    def test_non_spacelike_nspread_rejected(self, toy):
        ns = NSpread(
            spreads=(toy.decay_spread, toy.station_nspread.spreads[0])
        )
        vector = OutcomeVector(
            terms=(toy.events["d-"], toy.events["a-"])
        )
        with pytest.raises(PreconditionFailed, match="space-like"):
            check_common_cause(
                toy.model, toy.decay_spread, ns, vector
            )

    def test_not_one_consistent_nspread_rejected(self):
        model, events, ns = half_consistent_pair()
        sigma = ns.spreads[0]
        vector = OutcomeVector(terms=(events["o1a"], events["o2a"]))
        with pytest.raises(PreconditionFailed, match="1-consistent"):
            check_common_cause(model, sigma, ns, vector)

    def test_malformed_candidate_rejected(self, toy):
        partial = Spread(
            initial=toy.events["d"], outcomes=(toy.events["d-"],)
        )
        with pytest.raises(InvalidSpread):
            check_common_cause(
                toy.model, partial, toy.station_nspread, toy.inconsistent[0]
            )

    def test_each_spread_is_validated_once_per_model(self, monkeypatch):
        model, structure = build_concrete_model()
        ns = structure.nspreads[nspread_name(("x", "x", "y"))]
        sigma = structure.spreads["sigma_1"]
        vector = OutcomeVector(
            terms=tuple(structure.events[n] for n in ("x+1", "x+2", "y-3"))
        )
        calls = collections.Counter()

        def counting(model, spread):
            calls[spread] += 1
            return validate_spread(model, spread)

        monkeypatch.setattr(events, "validate_spread", counting)
        for _ in range(3):
            consistency_grade(model, ns)
        for _ in range(2):
            check_common_cause(model, sigma, ns, vector)
        assert calls == dict.fromkeys([*ns.spreads, sigma], 1)

    def test_validation_then_a_grade_validates_each_spread_once(
        self, monkeypatch
    ):
        model, structure = build_concrete_model()
        ns = structure.nspreads[nspread_name(("x", "x", "y"))]
        calls = collections.Counter()

        def counting(model, spread):
            calls[spread] += 1
            return validate_spread(model, spread)

        monkeypatch.setattr(events, "validate_spread", counting)
        for s in ns.spreads:
            assert events.validate_spread(model, s).ok
        consistency_grade(model, ns)
        assert calls == dict.fromkeys(ns.spreads, 1)

    @pytest.mark.parametrize("nspread", ["Sigma_xxy", "Sigma_star_123"])
    def test_cc1_witnesses_build_no_mask_per_outcome(
        self, nspread, monkeypatch
    ):
        # once the n-spread's screening masks and the candidate's event
        # records exist, a repeated failing cc1 builds no point mask,
        # however many outcomes the n-spread has
        model, structure = build_concrete_model()
        ns, cand = structure.nspreads[nspread], structure.spreads["sigma_2"]
        vector = consistency_grade(model, ns).inconsistent_vectors[0]
        check_common_cause(model, cand, ns, vector)
        calls = []
        mask = CausalModel.mask

        def counting(self, pts):
            calls.append(1)
            return mask(self, pts)

        monkeypatch.setattr(CausalModel, "mask", counting)
        report = check_common_cause(model, cand, ns, vector)
        assert not report.cc1.passed and report.cc1.witnesses
        assert not calls

    def test_cc1_witnesses_by_outcome_then_initial_point(self):
        # the candidate's initial {a, b} precedes no point of the
        # n-spread, whose first outcomes have two points each
        model = build_model(
            ["a", "b", "c-", "c+", "s", "u1", "u2", "v1", "v2",
             "t", "x", "y", "m1", "m2"],
            [("a", "b"), ("b", "c-"), ("b", "c+"),
             ("s", "u1"), ("u1", "u2"), ("s", "v1"), ("v1", "v2"),
             ("t", "x"), ("t", "y"),
             ("u2", "m1"), ("x", "m1"), ("v2", "m2"), ("y", "m2")],
        )

        def event(name, *members):
            return Event(name=name, members=frozenset(members or (name,)))

        sigma = Spread(
            initial=event("ab", "a", "b"),
            outcomes=(event("c-"), event("c+")),
        )
        u, v = event("U", "u1", "u2"), event("V", "v1", "v2")
        x, y = event("x"), event("y")
        ns = NSpread(
            spreads=(
                Spread(initial=event("s"), outcomes=(u, v)),
                Spread(initial=event("t"), outcomes=(x, y)),
            )
        )
        vector = OutcomeVector(terms=(u, y))
        report = check_common_cause(model, sigma, ns, vector)
        assert report.cc1.witnesses == (
            "a is not strictly below u1 (outcome U)",
            "a is not strictly below u2 (outcome U)",
            "b is not strictly below u1 (outcome U)",
            "b is not strictly below u2 (outcome U)",
            "a is not strictly below v1 (outcome V)",
            "a is not strictly below v2 (outcome V)",
            "b is not strictly below v1 (outcome V)",
            "b is not strictly below v2 (outcome V)",
            "a is not strictly below x (outcome x)",
            "b is not strictly below x (outcome x)",
            "a is not strictly below y (outcome y)",
            "b is not strictly below y (outcome y)",
        )
        assert report == reference_cc_conditions(model, sigma, ns, vector)

    def test_each_nspread_reads_its_masks_once_per_model(self, monkeypatch):
        model, structure = build_concrete_model()
        ns = structure.nspreads[nspread_name(("x", "x", "y"))]
        sigma = structure.spreads["sigma_1"]
        vector = OutcomeVector(
            terms=tuple(structure.events[n] for n in ("x+1", "x+2", "y-3"))
        )
        # validating the spreads and finding the candidates read outcome
        # records; after them the n-spread's record takes its outcome masks
        # from the spreads' entries, so no reader in events reads one
        events._require_valid(model, ns.spreads)
        search_common_causes(model, [], [])
        outcomes = {o for s in ns.spreads for o in s.outcomes}
        reads = collections.Counter()
        event_masks = events._event_masks

        def counting(model, event, role):
            if event in outcomes:
                reads[event] += 1
            return event_masks(model, event, role)

        monkeypatch.setattr(events, "_event_masks", counting)
        for _ in range(2):
            _require_cc_preconditions(model, ns)
            targets = consistency_grade(model, ns).inconsistent_vectors
            search_common_causes(model, [ns] * len(targets), targets)
            check_common_cause(model, sigma, ns, vector)
        assert ns in model.memo
        assert not reads

    def test_an_invalid_nspread_raises_alike_every_time(self):
        resolved = resolve_document(
            load_document(Path(__file__).parent / "golden" / "spreads.json")
        )
        model = resolved.model
        misclassified = NSpread(spreads=(resolved.spreads["bad_outcome"],))
        for ns, start in [
            (resolved.nspreads["Sigma_bad"], "spread at 'A' is invalid"),
            (misclassified, "spread at 'D' is invalid: 'X' is not an"),
        ]:
            messages = []
            for _ in range(2):
                for call in (
                    events._nspread_record,
                    consistency_grade,
                    _require_cc_preconditions,
                ):
                    with pytest.raises(InvalidSpread) as raised:
                        call(model, ns)
                    messages.append(str(raised.value))
                assert ns not in model.memo
            assert len(set(messages)) == 1
            assert messages[0].startswith(start)

    def test_an_invalid_spread_raises_alike_every_time(self):
        resolved = resolve_document(
            load_document(Path(__file__).parent / "golden" / "spreads.json")
        )
        model = resolved.model
        for name in ("bad_i", "bad_ii", "bad_iii", "bad_outcome"):
            spread = resolved.spreads[name]
            messages = []
            # a validation that failed leaves no entry to stand in for a pass
            assert not validate_spread(model, spread).ok
            for _ in range(2):
                assert spread not in model.memo
                with pytest.raises(InvalidSpread) as raised:
                    events._require_valid(model, (spread,))
                messages.append(str(raised.value))
            assert len(set(messages)) == 1, name
            assert messages[0].startswith(
                f"spread at {spread.initial.name!r} is invalid"
            )

    def test_a_validated_spread_is_not_validated_again(self, monkeypatch):
        resolved = resolve_document(
            load_document(Path(__file__).parent / "golden" / "spreads.json")
        )
        model, spread = resolved.model, resolved.spreads["sigma_a"]
        assert spread not in model.memo
        assert validate_spread(model, spread).ok
        assert model.memo[spread] == unchecked_entry(model, spread)

        def refuse(*args):
            raise AssertionError("validated a spread again")

        monkeypatch.setattr(events, "validate_spread", refuse)
        events._require_valid(model, (spread,))

    @pytest.mark.parametrize("scenario", ["ghz", "toy"])
    def test_rebuilt_terms_screen_like_the_resolved_ones(self, scenario, toy):
        if scenario == "ghz":
            model, structure = build_concrete_model()
            ns = structure.nspreads[nspread_name(("x", "x", "y"))]
            sigma = structure.spreads["sigma_1"]
        else:
            model, ns, sigma = toy.model, toy.station_nspread, toy.decay_spread
        resolved = consistency_grade(model, ns).inconsistent_vectors
        rebuilt = tuple(
            OutcomeVector(
                terms=tuple(
                    Event(t.name, frozenset(sorted(t.members)))
                    for t in v.terms
                )
            )
            for v in resolved
        )
        assert resolved and rebuilt == resolved
        assert not any(
            a is b
            for v, w in zip(resolved, rebuilt)
            for a, b in zip(v.terms, w.terms)
        )
        assert search_common_causes(
            model, [ns] * len(rebuilt), rebuilt
        ) == search_common_causes(model, [ns] * len(resolved), resolved)
        for v, w in zip(resolved, rebuilt):
            assert check_common_cause(
                model, sigma, ns, w
            ) == check_common_cause(model, sigma, ns, v)

    def test_an_invalid_candidate_raises_alike_every_time(self):
        resolved = resolve_document(
            load_document(Path(__file__).parent / "golden" / "spreads.json")
        )
        ns = resolved.nspreads["Sigma_ab"]
        vector = OutcomeVector(
            terms=(resolved.events["Am"], resolved.events["Bm"])
        )
        messages = []
        for _ in range(2):
            with pytest.raises(InvalidSpread) as raised:
                check_common_cause(
                    resolved.model, resolved.spreads["bad_i"], ns, vector
                )
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("candidate spread at 'A' is invalid")

    def test_foreign_vector_rejected(self, toy):
        wrong_len = OutcomeVector(terms=(toy.events["a-"],))
        with pytest.raises(ValueError, match="terms"):
            check_common_cause(
                toy.model, toy.decay_spread, toy.station_nspread, wrong_len
            )
        not_an_outcome = OutcomeVector(
            terms=(toy.events["a-"], toy.events["d-"])
        )
        with pytest.raises(ValueError, match="not an outcome"):
            check_common_cause(
                toy.model,
                toy.decay_spread,
                toy.station_nspread,
                not_an_outcome,
            )

    @settings(deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.15, 0.35, 0.6]),
    )
    def test_conditions_agree_with_the_reference(self, seed, edge_prob):
        rng = random.Random(seed)
        m = seeded_model(rng, max_points=12, edge_prob=edge_prob)
        for _ in range(5):
            sigma = random_spread(m, rng, chain_share=1.0)
            ns = NSpread(
                spreads=tuple(
                    random_spread(m, rng, chain_share=1.0)
                    for _ in range(rng.randint(1, 3))
                )
            )
            vector = OutcomeVector(
                terms=tuple(rng.choice(s.outcomes) for s in ns.spreads)
            )
            # the spread entries and the screening masks as validating the
            # spreads and _require_cc_preconditions keep them, built without
            # their checks
            hist = functools.reduce(
                operator.and_,
                (
                    events._event_masks(m, s.initial, "initial")[1]
                    for s in ns.spreads
                ),
            )
            by_outcome = tuple(
                dict(zip(s.outcomes, unchecked_entry(m, s)[1]))
                for s in ns.spreads
            )
            points = tuple(
                (o, m.mask(o.members)) for s in ns.spreads for o in s.outcomes
            )
            pts = functools.reduce(operator.or_, (om for _, om in points))
            terms = tuple(d[t] for d, t in zip(by_outcome, vector.terms))
            assert _cc_conditions(
                m,
                sigma,
                unchecked_entry(m, sigma),
                vector,
                (pts, hist, by_outcome, points),
                terms,
            ) == reference_cc_conditions(m, sigma, ns, vector)


class TestMemoRule:
    """Every entry of ``CausalModel.memo`` stands for a check that passed,
    and input that failed its check leaves no entry."""

    @settings(deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.15, 0.35, 0.6]),
    )
    def test_every_entry_stands_for_a_passed_check(self, seed, edge_prob):
        rng = random.Random(seed)
        model = seeded_model(rng, max_points=10, edge_prob=edge_prob)
        # random spreads are seldom valid, so the reference candidates,
        # which are, join the pool
        valid = reference_atomic_spreads(model)
        pool = [random_spread(model, rng) for _ in range(4)]
        pool += rng.sample(valid, min(3, len(valid)))
        failed = []  # memo keys that the input of a failed call names
        for spread in pool:
            if not validate_spread(model, spread).ok:
                failed.append(spread)
        for _ in range(6):
            ns = NSpread(
                spreads=tuple(rng.sample(pool, rng.randint(1, 3)))
            )
            sigma = rng.choice(pool)
            vector = OutcomeVector(
                terms=tuple(rng.choice(s.outcomes) for s in ns.spreads)
            )
            pre = (_require_cc_preconditions, ns)
            for call in (consistency_grade, is_spacelike):
                try:
                    call(model, ns)
                except InvalidSpread:
                    failed.append(ns)
            try:
                check_common_cause(model, sigma, ns, vector)
            except InvalidSpread as exc:
                if str(exc).startswith("candidate spread"):
                    failed.append(sigma)
                else:
                    failed += [ns, pre]
            except PreconditionFailed:
                failed.append(pre)
            except NotInconsistencyType:
                pass
            try:
                _search_every_vector(model, (ns,))
            except InvalidSpread:
                failed += [ns, pre]
            except PreconditionFailed:
                failed.append(pre)

        memo = dict(model.memo)
        assert not any(key in memo for key in failed)
        sm = set_model_of(model)
        for key, entry in memo.items():
            if isinstance(key, frozenset):
                assert set_is_chain(sm, key), key
            elif isinstance(key, Spread):
                assert reference_spread_report(model, key).ok, key
                assert validate_spread(model, key).ok, key
                assert entry == unchecked_entry(model, key), key
            elif isinstance(key, NSpread):
                assert all(
                    reference_spread_report(model, s).ok for s in key.spreads
                ), key
                # the record: the outcome masks are the spreads' entries,
                # the rest is checked against the brute-force grade
                hist, outs, count, ranks, one = entry
                assert outs == tuple(memo[s][1] for s in key.spreads), key
                grade = brute_force_grade(model, key)
                vectors = enumerate_outcome_vectors(key)
                assert count == len(vectors), key
                assert ranks == tuple(
                    rank
                    for rank, v in enumerate(vectors)
                    if v not in grade.inconsistent_vectors
                ), key
                assert (hist != 0, one) == (
                    grade.minimal, grade.one_consistent
                ), key
            elif isinstance(key, tuple):
                assert key[0] is _require_cc_preconditions, key
                reference_cc_preconditions(model, key[1])
            elif key is atomic_spreads:
                assert sorted(entry, key=repr) == sorted(valid, key=repr)
            else:
                assert key is common_cause._scan, key
                # the candidates by initial point, with their outcomes'
                # masks from their spreads' entries
                initials, at = entry
                cands = memo[atomic_spreads]
                assert list(at) == [
                    i for i in range(len(model.points)) if initials >> i & 1
                ]
                assert [model.points[i] for i in at] == [
                    c.initial.name for c in cands
                ]
                assert list(at.values()) == [(c, memo[c][1]) for c in cands]


class TestAtomicSpreads:
    def test_toy_candidates(self, toy):
        cands = atomic_spreads(toy.model)
        assert [s.initial.name for s in cands] == [
            "a", "a+", "a-", "b", "b+", "b-", "d",
        ]

    def test_branches_sharing_a_history_are_dropped(self, toy):
        # d- covers both a- and b+, but one history overlaps them jointly
        names = {s.initial.name for s in atomic_spreads(toy.model)}
        assert "d-" not in names and "d+" not in names

    def test_ghz_candidates_are_the_station_points(self, ghz_model):
        cands = atomic_spreads(ghz_model)
        assert len(cands) == 21
        assert all(not s.initial.name.startswith("t:") for s in cands)


class TestSearch:
    def test_toy_search_finds_exactly_the_decay_point(self, toy):
        ns = toy.station_nspread
        result = search_common_causes(
            toy.model, [ns, ns], list(toy.inconsistent)
        )
        assert result.candidates_considered == 7
        assert [s.initial.name for s in result.passing] == ["d"]
        assert not result.vacuous

    def test_ghz_search_finds_nothing(self, ghz_model, ghz_structure):
        ns = ghz_structure.nspreads[nspread_name(("x", "x", "y"))]
        vectors = [
            OutcomeVector(
                terms=tuple(ghz_structure.events[n] for n in v.outcome_names)
            )
            for v in inconsistent_vectors(("x", "x", "y"))
        ]
        result = search_common_causes(
            ghz_model, [ns] * len(vectors), vectors
        )
        assert result.candidates_considered == 21
        assert result.passing == ()

    def test_empty_target_list_is_vacuous(self, toy):
        result = search_common_causes(toy.model, [], [])
        assert result.vacuous
        assert len(result.passing) == result.candidates_considered
        assert any("vacuous" in n for n in result.notes)

    def test_mismatched_lengths_rejected(self, toy):
        with pytest.raises(ValueError, match="pair up"):
            search_common_causes(
                toy.model, [toy.station_nspread], list(toy.inconsistent)
            )

    def test_consistent_target_rejected(self, toy):
        ok = OutcomeVector(
            terms=(toy.events["a-"], toy.events["b+"])
        )
        with pytest.raises(PreconditionFailed):
            search_common_causes(
                toy.model, [toy.station_nspread], [ok]
            )

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_search_agrees_with_the_reference(self, seed):
        search_agrees(*search_draw(random.Random(seed)))

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_box_search_agrees_with_the_reference(self, seed):
        every_vector_agrees(*every_vector_draw(random.Random(seed)))

    def test_box_search_draws_cover_every_verdict(self):
        # across fixed draws: a raise, a vacuous search, a passing
        # candidate and a search with targets that no candidate passes
        seen = collections.Counter()
        for seed in range(200):
            expected = every_vector_agrees(
                *every_vector_draw(random.Random(seed))
            )
            if expected is None:
                seen["raised"] += 1
            elif expected.vacuous:
                seen["vacuous"] += 1
            else:
                seen["pass" if expected.passing else "none"] += 1
        assert len(seen) == 4, seen

    def test_box_search_agrees_on_the_toy_decay(self, toy):
        a, b = toy.station_nspread.spreads
        for nspreads in (
            [toy.station_nspread],
            [NSpread(spreads=(b, a))],
            [NSpread(spreads=(toy.decay_spread,))],
            [toy.station_nspread, NSpread(spreads=(toy.decay_spread,))],
        ):
            every_vector_agrees(toy.model, nspreads)
        count, found = _search_every_vector(toy.model, [toy.station_nspread])
        assert count == 2
        assert [s.initial.name for s in found.passing] == ["d"]

    def test_box_search_agrees_on_the_ghz_nspreads(
        self, ghz_model, ghz_structure
    ):
        nspreads = ghz_structure.nspreads
        for name in sorted(nspreads):
            expected = every_vector_agrees(ghz_model, [nspreads[name]])
            # the axis choices are maximally consistent, so their search is
            # vacuous; no candidate screens a context
            assert expected.vacuous == (name == "Sigma_123")
            assert expected.vacuous or expected.passing == ()
        theorem = [nspreads[nspread_name(c)] for c in THEOREM_CONTEXTS]
        every_vector_agrees(ghz_model, theorem)

    def test_reference_draws_cover_every_verdict(self):
        # across fixed draws: a raise, a passing candidate, and candidates
        # failing cc1, cc2 or cc3 alone, so no one mask test can be dropped
        # without a draw telling
        seen = {"raised": 0, "pass": 0, "cc1": 0, "cc2": 0, "cc3": 0}
        for seed in range(300):
            model, ns_list, vectors = search_draw(random.Random(seed))
            if search_agrees(model, ns_list, vectors) is None:
                seen["raised"] += 1
                continue
            for cand in reference_atomic_spreads(model) if vectors else ():
                reports = [
                    reference_cc_conditions(model, cand, ns, v)
                    for ns, v in zip(ns_list, vectors)
                ]
                failed = [
                    c
                    for c in ("cc1", "cc2", "cc3")
                    if not all(getattr(r, c).passed for r in reports)
                ]
                if len(failed) < 2:
                    seen[failed[0] if failed else "pass"] += 1
        assert all(seen.values()), seen

    @pytest.mark.parametrize("width", [None, 2, 3, 5])
    def test_agrees_with_the_reference_past_cc1_and_cc2(
        self, width, toy, scale_grade
    ):
        # on the toy the decay point passes cc1 and cc2, and then cc3; on a
        # width model, as on the GHZ model, every candidate fails cc1 (the
        # root, below every station, is no candidate: its covers share
        # every history), so cc1's walk leaves none and cc3 never runs.
        # The seeded draws of test_reference_draws_cover_every_verdict
        # hold candidates that pass cc1 and cc2 and fail cc3.
        if width is None:
            model, ns = toy.model, toy.station_nspread
        else:
            model, ns = scale_grade.width_model(width)
        targets = brute_force_grade(model, ns).inconsistent_vectors
        expected = search_agrees(model, [ns] * len(targets), list(targets))
        left = reference_cc1_cc2_initials(model, ns)
        if width is None:
            assert left == ["d"]
            assert [s.initial.name for s in expected.passing] == ["d"]
        else:
            assert left == [] and expected.passing == ()

    @pytest.mark.parametrize("fixture", ["toy", "ghz"])
    def test_targets_are_deduplicated_without_changing_the_result(
        self, fixture, toy, ghz_model, ghz_structure
    ):
        if fixture == "toy":
            model, nspreads = toy.model, [toy.station_nspread]
        else:
            model = ghz_model
            nspreads = [
                ghz_structure.nspreads[nspread_name(c)]
                for c in (("x", "x", "y"), ("y", "x", "x"))
            ]
        pairs = [
            (ns, v)
            for ns in nspreads
            for v in consistency_grade(model, ns).inconsistent_vectors
        ]
        expected = search_common_causes(model, *zip(*pairs))
        rng = random.Random(7)
        shuffled = rng.sample(pairs, len(pairs))
        repeated = pairs + rng.choices(pairs, k=len(pairs))
        # equal n-spreads as distinct objects, the vectors' too
        copies = [
            (NSpread(spreads=ns.spreads), OutcomeVector(terms=v.terms))
            for ns, v in pairs
        ]
        for variant in shuffled, repeated, copies:
            got = search_common_causes(model, *zip(*variant))
            assert got == expected
        assert expected.candidates_considered == len(atomic_spreads(model))
        if fixture == "toy":
            assert [s.initial.name for s in expected.passing] == ["d"]


class TestProfiles:
    def test_flag_count_enforced(self):
        with pytest.raises(ValueError):
            CandidateProfile(flags=(True, False))

    def test_dict_and_event_views(self):
        flags = tuple(n in ("x+1", "y-3") for n in OUTCOME_EVENT_ORDER)
        p = CandidateProfile(flags=flags)
        assert p.consistent_events() == ("x+1", "y-3")
        d = p.as_dict()
        assert list(d) == list(OUTCOME_EVENT_ORDER)
        assert d["x+1"] and d["y-3"] and not d["x-1"]

    @given(
        st.integers(min_value=0, max_value=4095),
        st.integers(min_value=0, max_value=4095),
    )
    def test_integer_order_is_lexicographic_order(self, a, b):
        assert (a < b) == (_profile(a).flags < _profile(b).flags)

    def test_surviving_profiles_tiny_case(self):
        out = brute_force_survivors(
            ["e1", "e2"], [([("e1",)], [("e2",)])]
        )
        assert out == [(True, False)]

    def test_survivors_sorted_lexicographically(self):
        out = brute_force_survivors(["e1", "e2"], [([("e1",), ("e2",)], [])])
        assert out == sorted(out)
        assert out == [(False, True), (True, False), (True, True)]

    def test_single_context_count_and_least_witness(self):
        result = refute_joint_common_cause(
            build_abstract_structure(), [("x", "x", "x")]
        )
        assert len(result.survivors) == 256
        assert result.witness.consistent_events() == ("x+1", "x+2", "x-3")

    def test_each_context_alone_admits_256(self):
        structure = build_abstract_structure()
        for ctx in ALL_CONTEXTS:
            result = refute_joint_common_cause(structure, [ctx])
            assert len(result.survivors) == 256

    def test_mask_search_matches_naive_recheck(self):
        contexts = [("x", "x", "x"), ("x", "x", "y")]
        result = refute_joint_common_cause(
            build_abstract_structure(), contexts
        )
        fast = {p.flags for p in result.survivors}
        slow = set()
        for m in range(4096):
            flags = tuple(bool(m >> k & 1) for k in range(12))
            if profile_satisfies_constraints(
                CandidateProfile(flags=flags), contexts
            ):
                slow.add(flags)
        assert fast == slow

    def test_engine_matches_brute_force_on_every_family(self):
        structure = build_abstract_structure()
        for fam in EVERY_FAMILY:
            result = refute_joint_common_cause(structure, fam)
            oracle = brute_force_survivors(
                OUTCOME_EVENT_ORDER, family_groups(fam)
            )
            survivors = result.survivors
            assert [p.flags for p in survivors] == oracle, fam
            assert len(survivors) == len(oracle), fam
            assert result.witness == (
                survivors[0] if survivors else None
            ), fam
            # the result equals, and hashes as, one holding a plain tuple
            plain = RefutationResult(
                result.contexts, result.profile_count, tuple(survivors),
                result.witness, result.trace, result.notes,
            )
            assert plain == result and result == plain, fam
            assert hash(plain) == hash(result), fam

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.sampled_from(ALL_CONTEXTS), min_size=1, max_size=10))
    def test_any_order_with_repeats_matches_brute_force(self, contexts):
        result = refute_joint_common_cause(
            build_abstract_structure(), contexts
        )
        family = list(dict.fromkeys(contexts))
        assert result.contexts == tuple(family)
        assert [p.flags for p in result.survivors] == brute_force_survivors(
            OUTCOME_EVENT_ORDER, family_groups(family)
        )

    def test_survivors_are_the_sorted_intersection_of_singletons(self):
        alone = {
            ctx: set(
                brute_force_survivors(
                    OUTCOME_EVENT_ORDER, family_groups([ctx])
                )
            )
            for ctx in ALL_CONTEXTS
        }
        structure = build_abstract_structure()
        for fam in EVERY_FAMILY[1:]:
            result = refute_joint_common_cause(structure, fam)
            expected = sorted(set.intersection(*(alone[c] for c in fam)))
            assert [p.flags for p in result.survivors] == expected, fam

    def test_a_context_leaves_one_setting_per_consistent_vector(self):
        for ctx in ALL_CONTEXTS:
            measured, settings = _context_settings(ctx)
            vectors = consistent_vectors(ctx)
            assert sorted(settings) == sorted(
                sum(_BIT[n] for n in v.outcome_names) for v in vectors
            )
            assert measured == sum(
                {_BIT[n] for v in context_vectors(ctx) for n in v.outcome_names}
            )

    def test_a_context_profile_set_is_its_brute_force_survivors(self):
        for ctx in ALL_CONTEXTS:
            oracle = brute_force_survivors(
                OUTCOME_EVENT_ORDER, family_groups([ctx])
            )
            masks = [
                sum(b for b, flag in zip(_BIT.values(), flags) if flag)
                for flags in oracle
            ]
            assert len(masks) == 256
            assert _context_profiles(ctx) == sum(1 << m for m in masks), ctx

    def test_both_outcomes_flagged_survive_a_context_without_screens(
        self, monkeypatch
    ):
        # every vector consistent: only the stables constrain, and a
        # station/axis may have both of its outcomes flagged
        ctx = ("x", "y", "y")
        monkeypatch.setattr(ghz, "inconsistent_vectors", lambda ctx: ())
        clear_ghz_caches()
        try:
            got = [p.flags for p in ProfileSet(_context_profiles(ctx))]
        finally:
            clear_ghz_caches()
        vectors = [v.outcome_names for v in context_vectors(ctx)]
        assert got == brute_force_survivors(
            OUTCOME_EVENT_ORDER, [(vectors, [])]
        )

    def test_family_result_does_not_depend_on_what_ran_before(self):
        # the caches fill in whatever order families arrive
        structure = build_abstract_structure()

        def cold(fam):
            clear_ghz_caches()
            return refute_joint_common_cause(structure, fam)

        expected = {fam: cold(fam) for fam in EVERY_FAMILY}
        clear_ghz_caches()
        # every family before its member contexts, then after them
        for fam in [*EVERY_FAMILY[::-1], *EVERY_FAMILY]:
            got = refute_joint_common_cause(structure, fam)
            assert got == expected[fam], fam

    def test_adding_contexts_only_removes_survivors(self):
        structure = build_abstract_structure()
        base = {
            p.flags
            for p in refute_joint_common_cause(
                structure, [("x", "x", "x")]
            ).survivors
        }
        narrowed = {
            p.flags
            for p in refute_joint_common_cause(
                structure, [("x", "x", "x"), ("x", "x", "y")]
            ).survivors
        }
        assert narrowed <= base


# Sets of the 4096 profile bits: empty, one bit (the lowest and the highest
# among them), every bit, dense (about half the bits, or all but a few) and
# sparse.
PROFILE_SETS = st.one_of(
    st.just(0),
    st.sampled_from((1, 1 << _ALL_FLAGS)),
    st.integers(0, _ALL_FLAGS).map(lambda t: 1 << t),
    st.just(_ALL_PROFILES),
    st.integers(0, _ALL_PROFILES),
    st.sets(st.integers(0, _ALL_FLAGS), max_size=8).map(
        lambda ts: _ALL_PROFILES ^ sum(1 << t for t in ts)
    ),
    st.sets(st.integers(0, _ALL_FLAGS), max_size=40).map(
        lambda ts: sum(1 << t for t in ts)
    ),
)


class TestProfileSet:
    @settings(deadline=None, max_examples=60)
    @given(PROFILE_SETS, st.data())
    def test_reads_as_the_tuple_of_its_profiles(self, bits, data):
        # the cheap checks first, so a failing case shrinks quickly
        ps = ProfileSet(bits)
        tup = tuple(ps)
        n = len(tup)
        # iteration is every set bit, lowest first, as its profile
        assert tup == tuple(_profile(t) for t in range(4096) if bits >> t & 1)
        assert isinstance(ps, collections.abc.Sequence)
        assert len(ps) == n
        assert bool(ps) == bool(tup)
        assert ps == tup and tup == ps and not ps != tup
        assert ps != list(tup) and not ps == list(tup)
        # order counts, as on the tuple
        assert (ps == tup[::-1]) == (tup[::-1] == ps) == (n < 2)
        assert ps == ProfileSet(bits) and ps != ProfileSet(bits ^ 1)
        assert hash(ps) == hash(tup)
        # in lists, so that pytest explains a failure without a character
        # diff of two long strings
        assert [repr(ps)] == [repr(tup)]
        for twin in (
            pickle.loads(pickle.dumps(ps)), copy.copy(ps), copy.deepcopy(ps)
        ):
            assert type(twin) is ProfileSet and twin == ps
            assert twin._bits == bits
        with pytest.raises(AttributeError):
            ps._bits = 0
        with pytest.raises(AttributeError):
            del ps._bits
        with pytest.raises(TypeError):
            ps[0] = None
        assert ps._bits == bits
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                ps[i]
        for _ in range(5):
            cut = data.draw(st.slices(n + 2))
            assert ps[cut] == tup[cut]
        assert [ps[i] for i in range(n)] == list(tup)
        assert [ps[i] for i in range(-n, 0)] == list(tup)

    def test_sets_of_one_length_compare_by_their_bits(self, monkeypatch):
        full = (1 << 4096) - 1
        pairs = [(0b0110, 0b1010), (full ^ 1, full ^ 1 << 4095)]
        tuples = [(tuple(ProfileSet(a)), tuple(ProfileSet(b))) for a, b in pairs]

        def no_readout(self):
            raise AssertionError("a profile set was read out")

        monkeypatch.setattr(ProfileSet, "__iter__", no_readout)
        for a, b in pairs:
            assert len(ProfileSet(a)) == len(ProfileSet(b))
            assert ProfileSet(a) != ProfileSet(b)
            assert not ProfileSet(a) == ProfileSet(b)
            assert ProfileSet(a) == ProfileSet(a)
        monkeypatch.undo()
        for (a, b), (ta, tb) in zip(pairs, tuples):
            assert ta != tb
            assert ProfileSet(a) == ta and ProfileSet(a) != tb


class TestRefutation:
    def test_theorem_family_has_no_survivors(self):
        result = refute_joint_common_cause(
            build_abstract_structure(), THEOREM_CONTEXTS
        )
        assert result.profile_count == 4096
        assert result.survivors == ()
        assert result.witness is None
        assert any("every profile violates" in n for n in result.notes)

    def test_a_refuted_family_leaves_no_reference_cycle(self):
        structure = build_abstract_structure()
        # the first call fills the caches of rules and steps
        refute_joint_common_cause(structure, THEOREM_CONTEXTS)
        gc.collect()
        gc.disable()
        try:
            result = refute_joint_common_cause(structure, THEOREM_CONTEXTS)
            assert result.trace is not None
            del result
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_theorem_family_trace_replays_the_derivation(self):
        result = refute_joint_common_cause(
            build_abstract_structure(), THEOREM_CONTEXTS
        )
        trace = result.trace
        assert trace is not None and trace.complete
        assert [s.rule for s in trace.steps] == [
            "cc2-existence",
            "cc3-screening",
            "cc2-existence",
            "cc3-screening",
            "cc3-screening",
            "contradiction",
        ]
        assert [s.context for s in trace.steps] == [
            "xxx", "xxy", "xxy", "xyy", "xyx", "xyy",
        ]
        assert "x+1, x-2, x+3" in trace.steps[0].conclusion
        assert "inconsistent with y+3" in trace.steps[1].conclusion
        assert "consistent with y-3" in trace.steps[2].conclusion
        assert "inconsistent with y+2" in trace.steps[3].conclusion
        assert "inconsistent with y-2" in trace.steps[4].conclusion
        assert "y2" in trace.steps[5].conclusion

    def test_product_constraint_family_closes_by_exhaustion(self):
        contexts = [
            ("x", "y", "y"),
            ("y", "x", "y"),
            ("y", "y", "x"),
            ("x", "x", "x"),
        ]
        result = refute_joint_common_cause(
            build_abstract_structure(), contexts
        )
        assert result.survivors == ()
        assert result.trace is not None and result.trace.complete
        assert "case-split" in [s.rule for s in result.trace.steps]
        assert check_derivation(contexts, result.trace) == 2

    def test_every_refuted_family_has_a_checked_trace(self):
        structure = build_abstract_structure()
        refuted = 0
        for fam in EVERY_FAMILY[1:]:
            for listing in (fam, fam[::-1]):
                result = refute_joint_common_cause(structure, listing)
                if result.survivors:
                    assert result.trace is None
                    continue
                refuted += 1
                assert result.trace.complete
                assert check_derivation(listing, result.trace) >= 1, listing
        assert refuted == 2 * 73

    def test_refuted_exactly_when_no_values_can_be_preassigned(self):
        # the lemma behind a certificate: a family refutes a joint common
        # cause exactly when its parity products admit no value assignment
        structure = build_abstract_structure()
        refuted = 0
        for fam in EVERY_FAMILY[1:]:
            constraints = []
            for ctx in fam:
                vectors = consistent_vectors(ctx)
                products = {math.prod(v.signs) for v in vectors}
                assert len(products) == 1, ctx
                constraints.append((ctx, products.pop()))
            unassignable = not brute_force_value_search(constraints).witnesses
            result = refute_joint_common_cause(structure, fam)
            assert (result.survivors == ()) == unassignable, fam
            refuted += unassignable
        assert refuted == 73

    def test_duplicate_contexts_are_collapsed(self):
        result = refute_joint_common_cause(
            build_abstract_structure(),
            [("x", "x", "x"), ("x", "x", "x")],
        )
        assert result.contexts == (("x", "x", "x"),)

    def test_unknown_context_rejected(self):
        with pytest.raises(ValueError, match="unknown context"):
            refute_joint_common_cause(
                build_abstract_structure(), [("x", "x", "z")]
            )

    def test_structure_without_outcome_events_rejected(self):
        with pytest.raises(ValueError, match="lacks outcome event 'x-1'"):
            refute_joint_common_cause(
                resolve_document(toy_decay_document()), THEOREM_CONTEXTS
            )

    def test_no_contexts_is_vacuous(self):
        result = refute_joint_common_cause(build_abstract_structure(), [])
        assert len(result.survivors) == 4096
        assert any("vacuously" in n for n in result.notes)
        # every profile, in lexicographic order
        flags = [p.flags for p in result.survivors]
        assert flags == list(itertools.product((False, True), repeat=12))
        assert result.witness.consistent_events() == ()
        assert result.trace is None

    def test_survivor_note_disclaims_existence(self):
        result = refute_joint_common_cause(
            build_abstract_structure(), [("x", "x", "x")]
        )
        assert any("necessary conditions only" in n for n in result.notes)


def flagged(*names):
    return sum(_BIT[n] for n in names)


def given_facts(*names):
    """A ``why`` holding a given fact, a step with no premises, for each
    starting flag."""
    fact = (TraceStep("cc2-existence", "xxx", "given", "given"), 0)
    return {_BIT[n]: fact for n in names}


def premises(fact, why):
    """The facts ``why`` holds for a fact's premise mask, most significant
    bit first."""
    return tuple(why[b] for b in _BIT.values() if fact[1] & b)


class TestPropagation:
    """The closure on states the refutation itself never builds: screening
    fires before a vector can fill up, so the cc3 contradiction is only
    reachable from a state handed in whole."""

    def test_a_fully_consistent_inconsistent_vector_is_a_contradiction(self):
        screens, stables = _compile([("x", "x", "x")])
        t = flagged("x-1", "x-2", "x+3")
        why = given_facts("x-1", "x-2", "x+3")
        clash = _close(screens, stables, t, 0, why)[2]
        assert clash[0] == TraceStep(
            "contradiction",
            "xxx",
            "inconsistent vector xxx:--+",
            "every term of an inconsistent vector came out consistent",
        )
        assert premises(clash, why) == (why[_BIT["x-1"]],) * 3

    def test_settling_and_screening_are_forced_steps(self):
        screens, stables = _compile([("x", "x", "y")])
        why = given_facts("x-1")
        assert _close(screens, stables, 0, flagged("x-1"), why) == (
            flagged("x+1"), flagged("x-1"), False
        )
        # xxy:++- screens y-3 and y+3 settles; then xxy:+-+ and xxy:-++
        # screen x-2 and x-1
        why = given_facts("x+1", "x+2")
        assert _close(screens, stables, flagged("x+1", "x+2"), 0, why) == (
            flagged("x+1", "x+2", "y+3"), flagged("y-3", "x-2", "x-1"), False
        )


def unfold(fact, why):
    """A fact as nested (step, premises), comparable across engines: the
    oracle's facts hold their premises, a premise mask resolves through
    ``why``, most significant bit first."""
    step, held = fact
    if isinstance(held, int):
        held = premises(fact, why)
    return (step, tuple(unfold(p, why) for p in held))


@settings(deadline=None, max_examples=300)
@given(
    st.permutations(ALL_CONTEXTS).flatmap(
        lambda order: st.integers(1, len(order)).map(lambda n: order[:n])
    ),
    # each flag open half the time, else flagged consistent or inconsistent
    st.lists(
        st.sampled_from((None, None, True, False)), min_size=12, max_size=12
    ),
)
def test_close_agrees_with_the_full_rescan(contexts, states):
    # any disjoint (t, f), each flag set with a given fact of its own
    t = sum(b for b, s in zip(_BIT.values(), states) if s is True)
    f = sum(b for b, s in zip(_BIT.values(), states) if s is False)
    given = {
        b: (TraceStep("cc2-existence", "xxx", "given", name), 0)
        for name, b in _BIT.items()
        if b & (t | f)
    }
    why, oracle_why = dict(given), dict(given)
    t1, f1, clash = _close(*_compile(contexts), t, f, why)
    t2, f2, oracle_clash = rescan_close(contexts, t, f, oracle_why)
    assert (t1, f1) == (t2, f2)
    assert (clash and unfold(clash, why)) == (
        oracle_clash and unfold(oracle_clash, oracle_why)
    )
    assert {b: unfold(x, why) for b, x in why.items()} == {
        b: unfold(x, oracle_why) for b, x in oracle_why.items()
    }


def theorem_trace():
    return refute_joint_common_cause(
        build_abstract_structure(), THEOREM_CONTEXTS
    ).trace


def with_steps(trace, steps):
    return ReductioTrace(steps=tuple(steps), complete=trace.complete)


class TestDerivationGuards:
    """The replay oracle rejects every derivation that is not forced."""

    def test_start_needs_a_listed_consistent_vector(self):
        trace = theorem_trace()
        start = trace.steps[0]
        inconsistent = TraceStep(
            start.rule, start.context, "consistent vector xxx:+++",
            start.conclusion,
        )
        steps = (inconsistent,) + trace.steps[1:]
        with pytest.raises(ValueError, match="not parity consistent"):
            check_derivation(THEOREM_CONTEXTS, with_steps(trace, steps))
        with pytest.raises(ValueError, match="listed context"):
            check_derivation(THEOREM_CONTEXTS[1:], trace)

    def test_screen_must_be_forced(self):
        trace = theorem_trace()
        # screening y+2 by xyy:++- needs y-3, which the settling step gives
        steps = list(trace.steps)
        del steps[2]
        with pytest.raises(ValueError, match="step 3: .*not forced"):
            check_derivation(THEOREM_CONTEXTS, with_steps(trace, steps))

    def test_screen_rejects_consistent_vectors(self):
        trace = theorem_trace()
        screen = trace.steps[1]
        consistent = TraceStep(
            screen.rule, screen.context, "inconsistent vector xxy:+--",
            screen.conclusion,
        )
        steps = (trace.steps[0], consistent) + trace.steps[2:]
        with pytest.raises(ValueError, match="not parity inconsistent"):
            check_derivation(THEOREM_CONTEXTS, with_steps(trace, steps))

    def test_the_theorem_trace_passes(self):
        assert check_derivation(THEOREM_CONTEXTS, theorem_trace()) == 1

    def test_dropping_any_step_fails(self):
        trace = theorem_trace()
        for k in range(len(trace.steps)):
            steps = trace.steps[:k] + trace.steps[k + 1:]
            with pytest.raises(ValueError):
                check_derivation(THEOREM_CONTEXTS, with_steps(trace, steps))

    def test_reordering_a_dependent_step_fails(self):
        trace = theorem_trace()
        # steps 4 and 5 screen y+2 and y-2 independently; every other
        # adjacent pair is a premise and the step that uses it
        for k in (0, 1, 2, 4):
            steps = list(trace.steps)
            steps[k], steps[k + 1] = steps[k + 1], steps[k]
            with pytest.raises(ValueError):
                check_derivation(THEOREM_CONTEXTS, with_steps(trace, steps))

    def test_a_step_after_the_contradiction_fails(self):
        trace = theorem_trace()
        steps = trace.steps + trace.steps[-1:]
        with pytest.raises(ValueError, match="follows the closed derivation"):
            check_derivation(THEOREM_CONTEXTS, with_steps(trace, steps))

    def test_both_cases_of_a_split_must_close(self):
        contexts = [ctx for ctx, _ in OMEGA_CONSTRAINTS]
        trace = refute_joint_common_cause(
            build_abstract_structure(), contexts
        ).trace
        rules = [s.rule for s in trace.steps]
        second = len(rules) - 1 - rules[::-1].index("case-split")
        with pytest.raises(ValueError, match="second case"):
            check_derivation(contexts, with_steps(trace, trace.steps[:second]))
        incomplete = ReductioTrace(steps=trace.steps, complete=False)
        with pytest.raises(ValueError, match="incomplete"):
            check_derivation(contexts, incomplete)


class TestDeterminism:
    def test_single_history_model(self):
        m = build_model(["a", "b"], [("a", "b")])
        report = classify_determinism(m)
        assert report.level == "I"
        assert report.history_count == 1
        assert not report.level3_evidence

    def test_toy_correlations_are_screened(self, toy):
        report = classify_determinism(toy.model, [toy.station_nspread])
        assert report.level == "indeterministic"
        assert report.history_count == 2
        assert not report.level3_evidence
        assert any("screened by atomic spreads at d" in n for n in report.notes)

    def test_ghz_correlations_are_not_screened(self, ghz_model, ghz_structure):
        ns = ghz_structure.nspreads[nspread_name(("x", "x", "y"))]
        report = classify_determinism(ghz_model, [ns])
        assert report.level == "indeterministic"
        assert report.level3_evidence
        assert any("no screening atomic spread" in n for n in report.notes)
        assert any("evidence only" in n for n in report.notes)

    def test_width_40_lists_no_vector(self, scale_grade):
        # 2^40 - 3 inconsistent vectors: a classification that listed them
        # would not finish
        model, ns = scale_grade.width_model(40)
        report = classify_determinism(model, [ns])
        assert report.level3_evidence
        assert report.notes[0] == (
            "n-spread at s00: 1099511627773 inconsistent vectors, no "
            "screening atomic spread"
        )

    def test_nspread_without_inconsistent_vectors_noted(self, toy):
        ns = NSpread(spreads=(toy.decay_spread,))
        report = classify_determinism(toy.model, [ns])
        assert not report.level3_evidence
        assert any("no inconsistent vectors" in n for n in report.notes)
