"""Acceptance criteria, one test per criterion.

Each test prints one ACCEPTANCE line; `pytest -v` additionally reports
one PASSED or FAILED line per criterion.  Expected values here were
derived independently (closed forms, hand counts, brute enumeration)
before being frozen.
"""

import random
import time

from bstghz.cli import main
from bstghz.common_cause import (
    atomic_spreads,
    check_common_cause,
    search_common_causes,
)
from bstghz.events import (
    NSpread,
    consistency_grade,
    is_consistent,
    is_spacelike,
    validate_spread,
)
from bstghz.ghz import (
    ALL_CONTEXTS,
    OMEGA_CONSTRAINTS,
    THEOREM_CONTEXTS,
    build_abstract_structure,
    context_vectors,
    contextual_assignment_search,
    nspread_name,
    parity_consistent,
    refute_joint_common_cause,
    value_assignment_search,
)
from bstghz.model import (
    check_density,
    check_infima_suprema,
    check_prior_choice,
)
from bstghz.quantum import compare_with_stipulation, omega_eigencheck

from .oracles import (
    EIGEN_TOLERANCE,
    atomic_candidate_events,
    brute_force_histories,
    fact1_violations,
    seeded_model,
)

OMEGA_CONTEXTS = tuple(ctx for ctx, _ in OMEGA_CONSTRAINTS)


def stamp(n, text):
    print(f"ACCEPTANCE {n}: PASS ({text})")


def test_criterion_01_standard_family_refuted_with_trace(capsys):
    t0 = time.perf_counter()
    result = refute_joint_common_cause(
        build_abstract_structure(), THEOREM_CONTEXTS
    )
    elapsed = time.perf_counter() - t0
    assert result.profile_count == 4096
    assert result.survivors == ()
    assert result.trace is not None and result.trace.complete
    assert [s.rule for s in result.trace.steps] == [
        "cc2-existence",
        "cc3-screening",
        "cc2-existence",
        "cc3-screening",
        "cc3-screening",
        "contradiction",
    ]
    assert elapsed < 1.0

    code = main(
        ["ghz", "refute", "--contexts", "xxx,xxy,xyy,xyx", "--trace"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "survivors: 0" in out
    assert "trace 6: [contradiction xyy]" in out
    stamp(1, f"0 of 4096 profiles survive, 6-step trace, {elapsed:.3f}s")


def test_criterion_02_product_constraint_family_refuted():
    t0 = time.perf_counter()
    result = refute_joint_common_cause(
        build_abstract_structure(), OMEGA_CONTEXTS
    )
    elapsed = time.perf_counter() - t0
    assert result.survivors == ()
    assert result.witness is None
    assert result.trace is not None and result.trace.complete
    assert "case-split" in [s.rule for s in result.trace.steps]
    assert elapsed < 1.0
    stamp(
        2,
        f"0 of 4096 profiles survive, {len(result.trace.steps)}-step trace "
        f"with a case split, {elapsed:.3f}s",
    )


def test_criterion_03_eigenvalues_within_tolerance():
    res = omega_eigencheck()
    expected = (1.0, 1.0, 1.0, -1.0)
    for (spec, got), want in zip(res.operators, expected):
        assert abs(got - want) <= EIGEN_TOLERANCE, spec.label()
    assert abs(res.product_eigenvalue + 1.0) <= EIGEN_TOLERANCE
    assert res.pairwise_commuting
    stamp(3, "eigenvalues +1,+1,+1,-1 and product -1 at 1e-12")


def test_criterion_04_no_global_sign_assignment():
    full = value_assignment_search()
    assert full.total == 64 and full.satisfying == 0
    for k in range(len(OMEGA_CONSTRAINTS)):
        rest = [c for i, c in enumerate(OMEGA_CONSTRAINTS) if i != k]
        assert value_assignment_search(rest).satisfying == 8
    stamp(4, "0 of 64 assignments; any three constraints leave 8")


def test_criterion_05_contextual_assignments_abound():
    res = contextual_assignment_search()
    assert res.total == 4096 and res.satisfying == 256
    for triple, (_, target) in zip(res.witness, res.constraints):
        assert triple[0] * triple[1] * triple[2] == target
    stamp(5, "256 of 4096 per-context assignments, witness verified")


def test_criterion_06_concrete_model_realizes_the_rule(ghz):
    t0 = time.perf_counter()
    model, structure = ghz
    assert len(model.points) == 53
    assert len(model.histories) == 32
    assert all(h.mask.bit_count() == 10 for h in model.histories)
    assert check_prior_choice(model).ok
    assert check_infima_suprema(model).ok
    assert check_density(model).status == "waived"
    for spread in structure.spreads.values():
        assert validate_spread(model, spread).ok
    assert is_spacelike(model, structure.nspreads["Sigma_star_123"])
    for ctx in ALL_CONTEXTS:
        g = consistency_grade(model, structure.nspreads[nspread_name(ctx)])
        assert g.one_consistent and not g.maximal
        assert len(g.inconsistent_vectors) == 4
        for v in context_vectors(ctx):
            terms = [structure.events[n] for n in v.outcome_names]
            realized = is_consistent(model, (), terms)
            assert realized == parity_consistent(v)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    stamp(6, f"53 points, 32 histories, parity realized, {elapsed:.3f}s")


def test_criterion_07_consistency_equivalences_hold(ghz):
    model, structure = ghz
    spreads = list(structure.spreads.values())
    nspreads = list(structure.nspreads.values())
    events = list(structure.events.values())
    assert fact1_violations(model, spreads, nspreads, events) == []

    rng = random.Random(20240817)
    checked = 0
    for _ in range(100):
        m = seeded_model(rng, max_points=10)
        atomics = list(atomic_spreads(m))
        ns = [NSpread(spreads=(s,)) for s in atomics[:2]]
        if len(atomics) >= 2:
            ns.append(NSpread(spreads=(atomics[0], atomics[1])))
        bad = fact1_violations(m, atomics, ns, atomic_candidate_events(m))
        assert bad == [], bad
        checked += 1
    assert checked == 100
    stamp(7, "equivalences hold on the scenario and 100 random models")


def test_criterion_08_toy_decay_positive_control(toy):
    for vector in toy.inconsistent:
        report = check_common_cause(
            toy.model, toy.decay_spread, toy.station_nspread, vector
        )
        assert report.passed, vector.label()
    found = search_common_causes(
        toy.model,
        [toy.station_nspread] * len(toy.inconsistent),
        list(toy.inconsistent),
    )
    assert [s.initial.name for s in found.passing] == ["d"]
    stamp(8, "decay point passes cc1-cc3 and is the only atomic survivor")


def test_criterion_09_stipulation_matches_the_state_where_claimed():
    report = compare_with_stipulation()
    for ctx in OMEGA_CONTEXTS:
        assert report.count_for(ctx) == 0
    others = [c for c in ALL_CONTEXTS if c not in OMEGA_CONTEXTS]
    for ctx in others:
        assert report.count_for(ctx) == 4
    assert len(report.disagreements) == 16
    for d in report.disagreements:
        assert abs(d.probability - 0.125) < 1e-12
        assert not d.stipulated_consistent
    stamp(9, "0 disagreements on constrained contexts, 4 on each other")


def test_criterion_10_histories_equal_maximal_directed_subsets():
    rng = random.Random(99173)
    for _ in range(50):
        m = seeded_model(rng, max_points=12)
        fast = {frozenset(m.names(h.mask)) for h in m.histories}
        assert fast == brute_force_histories(m)
    stamp(10, "principal down-sets match brute force on 50 random models")


def test_acceptance_summary(capsys):
    # bookkeeping: all ten criteria above are collected and none skipped
    import tests.test_acceptance as me

    names = [
        n for n in dir(me) if n.startswith("test_criterion_")
    ]
    assert len(names) == 10
    print("ACCEPTANCE: 10 criteria defined")
