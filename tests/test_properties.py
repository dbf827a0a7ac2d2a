"""Randomized structural properties, cross-checked against brute force."""

import itertools

from hypothesis import assume, given, settings, strategies as st

from bstghz.common_cause import atomic_spreads, classify_determinism
from bstghz.events import NSpread, consistency_grade, is_consistent
from bstghz.ghz import (
    ALL_CONTEXTS,
    build_abstract_structure,
    refute_joint_common_cause,
)
from bstghz.model import (
    bit_indices,
    build_model,
    check_prior_choice,
    choice_points,
)

from .conftest import causal_models
from .oracles import (
    atomic_candidate_events,
    brute_force_histories,
    brute_force_prior_choice_ok,
    fact1_violations,
    set_model_of,
)

RELAXED = settings(deadline=None)


@RELAXED
@given(causal_models())
def test_histories_match_subset_enumeration(model):
    fast = {frozenset(model.names(h.mask)) for h in model.histories}
    assert fast == brute_force_histories(model)


@RELAXED
@given(causal_models())
def test_histories_are_downward_closed_and_directed(model):
    sm = set_model_of(model)
    for h in model.histories:
        members = frozenset(model.names(h.mask))
        for p in members:
            assert sm.below[p] <= members
        for a, b in itertools.combinations(sorted(members), 2):
            assert any(sm.le(a, u) and sm.le(b, u) for u in members)


@RELAXED
@given(causal_models())
def test_every_point_lies_in_some_history(model):
    covered = frozenset(
        p for h in model.histories for p in model.names(h.mask)
    )
    assert covered == frozenset(model.points)


@RELAXED
@given(causal_models())
def test_history_tops_are_their_unique_maxima(model):
    sm = set_model_of(model)
    for h in model.histories:
        members = frozenset(model.names(h.mask))
        assert sm.maximal_in(members) == {h.top}
        assert sm.down_closure(h.top) == members


@RELAXED
@given(causal_models())
def test_prior_choice_matches_chain_quantified_check(model):
    assert check_prior_choice(model).ok == brute_force_prior_choice_ok(model)


@RELAXED
@given(causal_models())
def test_choice_points_are_symmetric(model):
    hs = model.histories
    assume(len(hs) >= 2)
    for h1, h2 in itertools.combinations(hs, 2):
        assert choice_points(model, h1, h2) == choice_points(model, h2, h1)


@RELAXED
@given(causal_models())
def test_choice_points_are_maximal_in_the_intersection(model):
    hs = model.histories
    assume(len(hs) >= 2)
    sm = set_model_of(model)
    for h1, h2 in itertools.combinations(hs, 2):
        common = frozenset(model.names(h1.mask & h2.mask))
        for c in choice_points(model, h1, h2):
            assert c in common
            assert not (sm.above[c] & common)


@RELAXED
@given(causal_models())
def test_transitivity_and_irreflexivity(model):
    for i, up in enumerate(model.up):
        assert not model.down[i] >> i & 1
        for j in bit_indices(up):
            assert not model.up[j] & ~up


@RELAXED
@given(causal_models())
def test_order_pairs_rebuild_the_same_model(model):
    sm = set_model_of(model)
    pairs = [(a, b) for b in sm.points for a in sorted(sm.below[b])]
    rebuilt = build_model(model.points, pairs)
    assert rebuilt.points == model.points
    assert (rebuilt.up, rebuilt.down) == (model.up, model.down)


@RELAXED
@given(causal_models())
def test_spread_outcome_consistency_equivalences(model):
    spreads = list(atomic_spreads(model))
    nspreads = (
        [NSpread(spreads=(spreads[0],))] if spreads else []
    )
    if len(spreads) >= 2:
        nspreads.append(NSpread(spreads=(spreads[0], spreads[1])))
    events = atomic_candidate_events(model)
    assert fact1_violations(model, spreads, nspreads, events) == []


@RELAXED
@given(causal_models())
def test_grade_implications_on_atomic_nspreads(model):
    spreads = atomic_spreads(model)
    assume(spreads)
    g = consistency_grade(model, NSpread(spreads=(spreads[0],)))
    if g.maximal:
        assert g.one_consistent
    if g.one_consistent:
        assert g.minimal
    assert g.maximal == (not g.inconsistent_vectors)


@RELAXED
@given(causal_models())
def test_single_history_models_are_level_one(model):
    report = classify_determinism(model)
    assert (report.level == "I") == (len(model.histories) == 1)
    assert report.history_count == len(model.histories)


@RELAXED
@given(causal_models())
def test_initial_consistency_never_exceeds_outcome_reach(model):
    # each history containing an atomic initial overlaps exactly one of
    # its outcomes; count them directly
    for spread in atomic_spreads(model):
        for h in set_model_of(model).histories:
            if spread.initial.members <= h.members:
                hits = [
                    o for o in spread.outcomes if o.members & h.members
                ]
                assert len(hits) == 1


@RELAXED
@given(
    st.lists(
        st.sampled_from(ALL_CONTEXTS), min_size=1, max_size=3, unique=True
    ),
    st.sampled_from(ALL_CONTEXTS),
)
def test_refuter_survivors_shrink_with_more_contexts(base, extra):
    structure = build_abstract_structure()
    small = refute_joint_common_cause(structure, base)
    grown = refute_joint_common_cause(structure, [*base, extra])
    narrow = {p.flags for p in grown.survivors}
    wide = {p.flags for p in small.survivors}
    assert narrow <= wide


@RELAXED
@given(causal_models())
def test_consistency_is_monotone_in_outcome_sets(model):
    # dropping outcome constraints can only make consistency easier
    events = atomic_candidate_events(model)
    for a, b in itertools.combinations(events[:4], 2):
        joint = is_consistent(model, (), (a, b))
        if joint:
            assert is_consistent(model, (), (a,))
            assert is_consistent(model, (), (b,))
