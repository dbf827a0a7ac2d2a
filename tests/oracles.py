"""Independent brute-force reference computations for the test suite.

Nothing here reuses the library's derived machinery: the order is closed
over Python sets by a depth-first search per point (``SetModel``, the
set implementation the bitset model replaced, with its prior-choice
report, covers, chain and boundedness tests and event classification;
an oracle handed a ``CausalModel`` closes the model's cover pairs again
with it, through ``set_model_of``, and reads no other mask), histories
are found by enumerating *all* subsets and keeping the maximal
directed ones, the branching-location check quantifies over all chains
rather than single points, the infima/suprema check scans every maximal
chain instead of trusting finiteness, consistency scans every history
with set operations instead of reading history bitmasks, a grade makes
one such scan per initial, outcome and vector of the product, spread
validation and the screening conditions compare every pair of points
with ``lt`` and scan every history, the common-cause search builds every
candidate's full report for every target, covers and
density gaps test every candidate point in between, refutation survivors
come from a scan of all 2^12 flag masks, a refutation trace is replayed
from the parity rule and the event labels alone, the propagation closure
rescans every rule after each forced step with its step texts rendered
from the labels, the scenario documents are compared with orders written
out by hand and closed over sets, the global sign search is replayed
over all 64 assignments, the per-context sign search over all 8^k
choices of triples, and the exact quantum oracle
is checked against float Pauli matrices, Kronecker products and inner
products (numpy; the tests that use it skip without it).
Agreement with the fast implementations is what the tests assert.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from math import sqrt
from typing import Any, Iterable, Iterator, NamedTuple, NoReturn, Sequence

import pytest

from bstghz.common_cause import (
    CommonCauseReport,
    CommonCauseSearch,
    ConditionResult,
)
from bstghz.errors import (
    CycleDetected,
    EmptyModel,
    InvalidSpread,
    PreconditionFailed,
    UnknownPoint,
)
from bstghz.events import (
    Event,
    EventClassification,
    GradeReport,
    NSpread,
    OutcomeVector,
    Spread,
    is_consistent,
)
from bstghz.ghz import (
    ALL_CONTEXTS,
    OUTCOME_EVENT_ORDER,
    STATIONS,
    CandidateProfile,
    Context,
    ContextualSearchResult,
    GhzVector,
    ReductioTrace,
    SignVector,
    TraceStep,
    ValueSearchResult,
    consistent_vectors,
    context_label,
    inconsistent_vectors,
    parity_consistent,
)
from bstghz.model import CausalModel, ValidationReport, build_model


def seeded_order(
    rng: random.Random, max_points: int = 10, edge_prob: float = 0.35
) -> tuple[list[str], list[tuple[str, str]]]:
    """Reproducible random points and forward edges on a line."""
    n = rng.randint(1, max_points)
    names = [f"p{i:02d}" for i in range(n)]
    pairs = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_prob
    ]
    return names, pairs


def seeded_model(
    rng: random.Random, max_points: int = 10, edge_prob: float = 0.35
) -> CausalModel:
    """A reproducible random model: forward edges on a line."""
    return build_model(*seeded_order(rng, max_points, edge_prob))


def seeded_station_model(
    rng: random.Random,
) -> tuple[CausalModel, list[Spread]]:
    """A reproducible random hidden-variable model and its station spreads.

    A source ``c`` branches to two or three values ``c0``, ``c1``, ...; two
    or three stations ``s0``, ``s1``, ... each branch to two or three
    outcomes, and each outcome lies above one value (in some models, an
    outcome lies above none).  A maximal point joins a value with one
    outcome per station that lies above no other value, or is a dead end of
    a value.  Joints are kept at random, and every outcome that fits some
    joint is kept in one, so station outcome vectors are often
    inconsistent, and ``c`` screens them in some models and fails one of
    cc1 to cc3 in others.  Plain ``seeded_model`` draws almost never have
    an inconsistent outcome vector.
    """
    values = [f"c{k}" for k in range(rng.randint(2, 3))]
    stations = {
        f"s{i}": tuple(f"s{i}{k}" for k in range(rng.randint(2, 3)))
        for i in range(rng.randint(2, 3))
    }
    pairs = [("c", v) for v in values]
    pairs += [(s, o) for s, outs in stations.items() for o in outs]
    share = rng.choice([0.6, 1.0])
    value_of = {
        o: rng.choice(values)
        for outs in stations.values()
        for o in outs
        if rng.random() < share
    }
    pairs += [(v, o) for o, v in value_of.items()]
    fitting = [
        (v,) + joint
        for v in values
        for joint in itertools.product(
            *(
                [o for o in outs if value_of.get(o, v) == v]
                for outs in stations.values()
            )
        )
    ]
    joints = [j for j in fitting if rng.random() < 0.5]
    for o in sorted(o for outs in stations.values() for o in outs):
        options = [j for j in fitting if o in j]
        if options and not any(o in j for j in joints):
            joints.append(rng.choice(options))
    joints += [(v,) for v in values if rng.random() < 0.2]
    points = ["c", *values, *stations]
    points += [o for outs in stations.values() for o in outs]
    for n, joint in enumerate(joints):
        points.append(f"t{n}")
        pairs += [(o, f"t{n}") for o in joint]

    def event(name: str) -> Event:
        return Event(name=name, members=frozenset({name}))

    spreads = [
        Spread(initial=event(s), outcomes=tuple(event(o) for o in outs))
        for s, outs in stations.items()
    ]
    return build_model(points, pairs), spreads


# -- the order as Python sets ------------------------------------------------


class SetHistory(NamedTuple):
    top: str
    members: frozenset[str]


@dataclass(frozen=True)
class SetModel:
    """A finite strict order held as Python sets.

    ``below[p]`` and ``above[p]`` are the strict predecessors and
    successors of ``p`` under the full transitive relation.  Built by
    :func:`set_model`; the methods are the set code the bitset model
    replaced.
    """

    points: tuple[str, ...]
    below: dict[str, frozenset[str]]
    above: dict[str, frozenset[str]]

    def lt(self, a: str, b: str) -> bool:
        return a in self.below[b]

    def le(self, a: str, b: str) -> bool:
        return a == b or a in self.below[b]

    def comparable(self, a: str, b: str) -> bool:
        return a == b or self.lt(a, b) or self.lt(b, a)

    def down_closure(self, p: str) -> frozenset[str]:
        return self.below[p] | {p}

    def require_points(self, pts: Iterable[str]) -> None:
        for p in pts:
            if p not in self.below:
                raise UnknownPoint(f"unknown point id: {p!r}")

    def covers(self, p: str) -> tuple[str, ...]:
        """The points above ``p`` that lie above no other point above it."""
        ups = self.above[p]
        out = set(ups)
        for r in ups:
            out -= self.above[r]
        return tuple(sorted(out))

    def maximal_points(self) -> tuple[str, ...]:
        return tuple(p for p in self.points if not self.above[p])

    def maximal_in(self, subset: frozenset[str]) -> frozenset[str]:
        return frozenset(p for p in subset if not (self.above[p] & subset))

    @functools.cached_property
    def histories(self) -> tuple[SetHistory, ...]:
        return tuple(
            SetHistory(top=m, members=self.down_closure(m))
            for m in self.maximal_points()
        )


def set_model(
    points: Iterable[str], order_pairs: Iterable[tuple[str, str]]
) -> SetModel:
    """The transitive closure by a depth-first search from every point.

    Raises the library's errors with its messages; a cycle names the
    first point, in input order, that reaches itself.
    """
    pts = list(points)
    if not pts:
        raise EmptyModel("a model needs at least one point event")
    seen: set[str] = set()
    for p in pts:
        if not isinstance(p, str) or not p:
            raise ValueError(f"point ids must be nonempty strings, got {p!r}")
        if p in seen:
            raise ValueError(f"duplicate point id: {p!r}")
        seen.add(p)

    succ: dict[str, set[str]] = {p: set() for p in pts}
    for a, b in order_pairs:
        if a not in succ:
            raise UnknownPoint(f"unknown point id in order pair: {a!r}")
        if b not in succ:
            raise UnknownPoint(f"unknown point id in order pair: {b!r}")
        succ[a].add(b)

    above: dict[str, frozenset[str]] = {}
    for p in pts:
        reached: set[str] = set()
        stack = list(succ[p])
        while stack:
            q = stack.pop()
            if q in reached:
                continue
            reached.add(q)
            stack.extend(succ[q])
        if p in reached:
            raise CycleDetected(f"ordering cycle through point {p!r}")
        above[p] = frozenset(reached)

    below: dict[str, set[str]] = {p: set() for p in pts}
    for p, ups in above.items():
        for q in ups:
            below[q].add(p)

    return SetModel(
        points=tuple(sorted(pts)),
        below={p: frozenset(s) for p, s in below.items()},
        above=above,
    )


@functools.lru_cache(maxsize=16)
def set_model_of(model: CausalModel) -> SetModel:
    """``model``'s order closed again over sets from its cover pairs.

    The closure, and the histories and sets read from it, come from
    :func:`set_model`, not from the model's ``up`` and ``down`` masks.
    Kept for the last few models, which compare by identity.
    """
    return set_model(
        model.points, [(p, q) for p in model.points for q in model.covers(p)]
    )


def set_is_chain(model: SetModel, pts: Iterable[str]) -> bool:
    members = list(dict.fromkeys(pts))
    if not members:
        raise ValueError("a chain must be nonempty")
    model.require_points(members)
    return all(
        model.comparable(a, b)
        for i, a in enumerate(members)
        for b in members[i + 1 :]
    )


def set_upper_bounded(model: SetModel, members: frozenset[str]) -> bool:
    return any(all(model.le(m, b) for m in members) for b in model.points)


def set_lower_bounded(model: SetModel, members: frozenset[str]) -> bool:
    return any(all(model.le(b, m) for m in members) for b in model.points)


def set_classify_event(model: SetModel, event: Event) -> EventClassification:
    """Roles by pairwise comparison and a scan of the histories."""
    model.require_points(event.members)
    chain = set_is_chain(model, event.members)
    initial = chain and set_upper_bounded(model, event.members)
    outcome = chain and set_lower_bounded(model, event.members)
    stable = (
        initial
        and outcome
        and all(
            event.members <= h.members
            for h in model.histories
            if h.members & event.members
        )
    )
    return EventClassification(
        is_initial=initial, is_outcome=outcome, is_stable=stable
    )


def set_check_prior_choice(model: SetModel) -> ValidationReport:
    """The prior-choice report, choice points rebuilt for every pair."""
    violations: list[str] = []
    hs = model.histories
    for h1 in hs:
        for h2 in hs:
            if h1.members == h2.members:
                continue
            cps = model.maximal_in(h1.members & h2.members)
            for e in sorted(h1.members - h2.members):
                if not any(model.lt(c, e) for c in cps):
                    violations.append(
                        f"no choice point below {e} for history pair "
                        f"({h1.top}, {h2.top})"
                    )
    status = "fail" if violations else "pass"
    return ValidationReport(
        check="prior-choice",
        status=status,
        violations=tuple(violations),
        notes=(
            "finite chains have minima, so single points stand in for all "
            "chains in the difference of two histories",
        ),
    )


def set_check_density(model: SetModel) -> ValidationReport:
    """The density report, its gaps read off the set covers."""
    gaps = [(a, b) for a in model.points for b in model.covers(a)]
    if not gaps:
        return ValidationReport(
            check="density",
            status="pass",
            notes=("order relation is empty; density holds vacuously",),
        )
    a, b = min(gaps)
    return ValidationReport(
        check="density",
        status="waived",
        violations=(f"no point strictly between {a} and {b}",),
        notes=(
            f"finite models with a nonempty order are never dense; "
            f"{len(gaps)} immediate gaps in total",
        ),
    )


def brute_force_histories(model: CausalModel) -> set[frozenset[str]]:
    """Maximal directed subsets by exhaustive subset enumeration."""
    sm = set_model_of(model)
    pts = sorted(sm.points)
    n = len(pts)
    # upper cone of each point, as a bitmask over pts
    cone = []
    for i, p in enumerate(pts):
        m = 0
        for j, q in enumerate(pts):
            if sm.le(p, q):
                m |= 1 << j
        cone.append(m)

    def directed(mask: int) -> bool:
        bits = [i for i in range(n) if mask >> i & 1]
        return all(
            cone[i] & cone[j] & mask
            for k, i in enumerate(bits)
            for j in bits[k + 1 :]
        )

    directed_masks = [m for m in range(1, 1 << n) if directed(m)]
    maximal = [
        m
        for m in directed_masks
        if not any(t != m and m | t == t for t in directed_masks)
    ]
    return {
        frozenset(pts[i] for i in range(n) if m >> i & 1) for m in maximal
    }


def brute_force_prior_choice_ok(model: CausalModel) -> bool:
    """Branching-location check quantified over all chains.

    For each ordered pair of distinct histories and every nonempty chain
    lying in the difference there must be a maximal point of the
    intersection strictly below the whole chain.
    """
    sm = set_model_of(model)
    for h1 in sm.histories:
        for h2 in sm.histories:
            if h1.members == h2.members:
                continue
            inter = h1.members & h2.members
            cps = [p for p in inter if not (sm.above[p] & inter)]
            diff = sorted(h1.members - h2.members)
            for r in range(1, len(diff) + 1):
                for combo in itertools.combinations(diff, r):
                    if not all(
                        sm.comparable(a, b)
                        for a, b in itertools.combinations(combo, 2)
                    ):
                        continue
                    if not any(
                        all(sm.lt(c, e) for e in combo) for c in cps
                    ):
                        return False
    return True


def brute_force_is_consistent(
    model: CausalModel,
    initials: Iterable[Event] = (),
    outcomes: Iterable[Event] = (),
) -> bool:
    """Some history contains every initial and overlaps every outcome.

    A scan of every history with set operations; roles are not checked.
    """
    ini = tuple(initials)
    out = tuple(outcomes)
    return any(
        all(e.members <= h.members for e in ini)
        and all(e.members & h.members for e in out)
        for h in set_model_of(model).histories
    )


def enumerate_outcome_vectors(ns: NSpread) -> tuple[OutcomeVector, ...]:
    """All outcome vectors, lexicographic in the declared outcome orders."""
    return tuple(
        OutcomeVector(terms=combo)
        for combo in itertools.product(*[s.outcomes for s in ns.spreads])
    )


def brute_force_grade(model: CausalModel, ns: NSpread) -> GradeReport:
    """The grade by ``brute_force_is_consistent`` queries: the initials,
    each outcome with them, and every vector of the product in
    lexicographic order.  The spreads are not validated."""
    minimal = brute_force_is_consistent(model, ns.initials)
    one = minimal and all(
        brute_force_is_consistent(model, ns.initials, (o,))
        for s in ns.spreads
        for o in s.outcomes
    )
    vectors = [
        OutcomeVector(terms=combo)
        for combo in itertools.product(*(s.outcomes for s in ns.spreads))
    ]
    inconsistent = tuple(
        v for v in vectors if not brute_force_is_consistent(model, (), v.terms)
    )
    return GradeReport(
        minimal=minimal,
        one_consistent=one,
        maximal=not inconsistent,
        vector_count=len(vectors),
        inconsistent_vectors=inconsistent,
    )


def brute_force_covers(model: CausalModel, p: str) -> tuple[str, ...]:
    """Points q above ``p`` with no r strictly between, by testing every r."""
    sm = set_model_of(model)
    return tuple(
        q
        for q in sorted(sm.above[p])
        if not any(sm.lt(p, r) and sm.lt(r, q) for r in sm.above[p])
    )


def brute_force_density_gaps(model: CausalModel) -> list[tuple[str, str]]:
    """Ordered pairs a < b with no point between, by testing every c < b."""
    sm = set_model_of(model)
    return [
        (a, b)
        for b in sm.points
        for a in sorted(sm.below[b])
        if not any(sm.lt(a, c) and sm.lt(c, b) for c in sm.below[b])
    ]


def random_chain(model: CausalModel, rng: random.Random) -> frozenset[str]:
    """A nonempty chain grown from a random point by comparable points."""
    sm = set_model_of(model)
    pts = list(sm.points)
    chain = {rng.choice(pts)}
    for q in rng.sample(pts, len(pts)):
        if rng.random() < 0.5 and all(sm.comparable(q, c) for c in chain):
            chain.add(q)
    return frozenset(chain)


def random_spread(
    model: CausalModel, rng: random.Random, chain_share: float = 0.8
) -> Spread:
    """A spread of one to three outcomes, seldom a valid one.

    Each event is a random chain with probability ``chain_share``, else
    up to three arbitrary points, which need not form a chain.
    """

    def event(name: str) -> Event:
        if rng.random() < chain_share:
            return Event(name=name, members=random_chain(model, rng))
        size = rng.randint(1, min(3, len(model.points)))
        return Event(name=name, members=frozenset(rng.sample(model.points, size)))

    return Spread(
        initial=event("I"),
        outcomes=tuple(event(f"O{k}") for k in range(rng.randint(1, 3))),
    )


def _maximal_chains(model: CausalModel) -> Iterator[tuple[str, ...]]:
    """All maximal chains, as cover paths from minimal to maximal points."""
    sm = set_model_of(model)
    minimal = [p for p in sm.points if not sm.below[p]]

    def extend(path: tuple[str, ...]) -> Iterator[tuple[str, ...]]:
        nxt = brute_force_covers(model, path[-1])
        if not nxt:
            yield path
            return
        for q in nxt:
            yield from extend(path + (q,))

    for start in minimal:
        yield from extend((start,))


def brute_force_infima_suprema_ok(model: CausalModel) -> bool:
    """Infima and suprema by scanning the spans of every maximal chain.

    Every chain extends to a maximal chain, and its infimum and supremum
    candidates depend only on its least and greatest member, so the
    (lo, hi) spans of all maximal chains cover every chain.  Each span
    must have a greatest lower bound in the model and a least upper bound
    inside every history containing it.  Exponential in the width of the
    order: keep the models small.
    """
    sm = set_model_of(model)
    for chain in _maximal_chains(model):
        for i, lo in enumerate(chain):
            for hi in chain[i:]:
                span = [p for p in chain if sm.le(lo, p) and sm.le(p, hi)]
                lower = frozenset.intersection(
                    *[sm.down_closure(p) for p in span]
                )
                greatest = [p for p in lower if not (sm.above[p] & lower)]
                if sorted(greatest) != [lo]:
                    return False
                for h in sm.histories:
                    if not set(span) <= h.members:
                        continue
                    upper = frozenset(
                        u
                        for u in h.members
                        if all(sm.le(p, u) for p in span)
                    )
                    least = [u for u in upper if not (sm.below[u] & upper)]
                    if sorted(least) != [hi]:
                        return False
    return True


def _not_below_pairs(
    model: CausalModel, lower: Event, upper: Event
) -> list[tuple[str, str]]:
    """(p, q) with p in ``lower`` not strictly below q in ``upper``, by
    ``lt`` over every pair of sorted members."""
    sm = set_model_of(model)
    return [
        (p, q)
        for p in sorted(lower.members)
        for q in sorted(upper.members)
        if not sm.lt(p, q)
    ]


def reference_spread_report(
    model: CausalModel, spread: Spread
) -> ValidationReport:
    """``validate_spread`` by pairwise comparison and a history scan.

    Roles are chain tests over every pair of members (a finite chain is
    bounded by its own extremes), condition (i) compares every initial
    point with every outcome point, and (ii) and (iii) test each history's
    member set.
    """
    sm = set_model_of(model)
    name = f"spread {spread.initial.name}"
    roles = [(spread.initial, "initial")]
    roles += [(o, "outcome") for o in spread.outcomes]
    for event, role in roles:
        members = sorted(event.members)
        if not all(sm.comparable(a, b) for a in members for b in members):
            return ValidationReport(
                check=name,
                status="fail",
                violations=(f"{event.name!r} is not an {role} event",),
            )
    violations = [
        f"(i) initial point {p} does not strictly precede {q} of outcome "
        f"{o.name}"
        for o in spread.outcomes
        for p, q in _not_below_pairs(model, spread.initial, o)
    ]
    for h in sm.histories:
        hit = [o.name for o in spread.outcomes if o.members & h.members]
        if spread.initial.members <= h.members and not hit:
            violations.append(
                f"(ii) history {h.top} contains the initial but "
                f"overlaps no outcome"
            )
        if len(hit) > 1:
            violations.append(
                f"(iii) history {h.top} overlaps outcomes {', '.join(hit)}"
            )
    return ValidationReport(
        check=name,
        status="fail" if violations else "pass",
        violations=tuple(violations),
    )


def reference_cc_conditions(
    model: CausalModel, sigma: Spread, ns: NSpread, vector: OutcomeVector
) -> CommonCauseReport:
    """cc1 to cc3 by ``lt`` over every pair of points and a history scan;
    the events must be chains.  No precondition is checked."""
    cc1 = [
        f"{p} is not strictly below {q} (outcome {o.name})"
        for s in ns.spreads
        for o in s.outcomes
        for p, q in _not_below_pairs(model, sigma.initial, o)
    ]
    cc2 = [
        f"{o.name} is not consistent with the initials"
        for o in sigma.outcomes
        if not brute_force_is_consistent(model, ns.initials, (o,))
    ]
    cc3: list[str] = []
    unscreened = False
    for o in sigma.outcomes:
        screens = [
            t.name
            for t in vector.terms
            if not brute_force_is_consistent(model, (), (o, t))
        ]
        if screens:
            cc3.append(f"{o.name} is inconsistent with {screens[0]}")
        else:
            unscreened = True
            cc3.append(f"{o.name} is consistent with every term of the vector")
    return CommonCauseReport(
        vector=vector.names,
        cc1=ConditionResult(not cc1, tuple(cc1)),
        cc2=ConditionResult(not cc2, tuple(cc2)),
        cc3=ConditionResult(not unscreened, tuple(cc3)),
    )


def reference_cc_preconditions(model: CausalModel, ns: NSpread) -> None:
    """Valid spreads, space-like and 1-consistent, by ``lt`` over pairs of
    points and history scans; raises what ``check_common_cause`` raises."""
    for s in ns.spreads:
        if not reference_spread_report(model, s).ok:
            raise InvalidSpread(f"spread at {s.initial.name!r} is invalid")
    sm = set_model_of(model)
    crossing = any(
        sm.lt(p, q)
        for i, s in enumerate(ns.spreads)
        for j, other in enumerate(ns.spreads)
        if i != j
        for p in s.initial.members
        for o in other.outcomes
        for q in o.members
    )
    if crossing or not brute_force_is_consistent(model, ns.initials):
        raise PreconditionFailed("the n-spread is not space-like")
    if not all(
        brute_force_is_consistent(model, ns.initials, (o,))
        for s in ns.spreads
        for o in s.outcomes
    ):
        raise PreconditionFailed("the n-spread is not 1-consistent")


def reference_atomic_spreads(model: CausalModel) -> list[Spread]:
    """Per point with covers, in sorted order, the point branching to its
    covers, kept when ``reference_spread_report`` passes it."""
    out = []
    for p in sorted(model.points):
        cov = brute_force_covers(model, p)
        if not cov:
            continue
        spread = Spread(
            initial=Event(name=p, members=frozenset({p})),
            outcomes=tuple(
                Event(name=q, members=frozenset({q})) for q in cov
            ),
        )
        if reference_spread_report(model, spread).ok:
            out.append(spread)
    return out


def reference_search_common_causes(
    model: CausalModel,
    ns_list: Sequence[NSpread],
    vectors: Sequence[OutcomeVector],
) -> CommonCauseSearch:
    """The search as a candidate x target loop that builds every
    ``reference_cc_conditions`` report and reads ``passed``.  Every pair
    is checked: the preconditions of its n-spread, the vector's shape,
    and that the vector is inconsistent.  ``notes`` stays empty."""
    if len(ns_list) != len(vectors):
        raise ValueError("ns_list and vectors must pair up one to one")
    for ns in ns_list:
        reference_cc_preconditions(model, ns)
    for ns, v in zip(ns_list, vectors):
        if len(v.terms) != len(ns.spreads) or any(
            t not in s.outcomes for t, s in zip(v.terms, ns.spreads)
        ):
            raise ValueError(f"{v.label()} is not a vector of the n-spread")
        if brute_force_is_consistent(model, (), v.terms):
            raise PreconditionFailed(f"vector {v.label()} is consistent")
    candidates = reference_atomic_spreads(model)
    return CommonCauseSearch(
        candidates_considered=len(candidates),
        passing=tuple(
            cand
            for cand in candidates
            if all(
                reference_cc_conditions(model, cand, ns, v).passed
                for ns, v in zip(ns_list, vectors)
            )
        ),
        vacuous=not ns_list,
    )


def atomic_candidate_events(model: CausalModel) -> list[Event]:
    """Singleton events over every point, for role-agnostic checks."""
    return [
        Event(name=p, members=frozenset({p})) for p in sorted(model.points)
    ]


def fact1_violations(
    model: CausalModel,
    spreads: list[Spread],
    nspreads: list[NSpread],
    events: list[Event],
) -> list[str]:
    """Violations of the two spread/outcome consistency equivalences.

    For a spread: an event is consistent with the initial exactly when it
    is consistent with some outcome.  For an n-spread: an event is
    consistent with the set of initials exactly when it is consistent
    with some outcome vector.  Events are passed in outcome role, which
    singleton events always have.
    """
    bad: list[str] = []
    for spread in spreads:
        for e in events:
            lhs = is_consistent(model, [spread.initial], [e])
            rhs = any(
                is_consistent(model, (), (o, e)) for o in spread.outcomes
            )
            if lhs != rhs:
                bad.append(
                    f"spread at {spread.initial.name}: event {e.name}: "
                    f"initial-consistency {lhs} but outcome-consistency {rhs}"
                )
    for ns in nspreads:
        for e in events:
            lhs = is_consistent(model, list(ns.initials), [e])
            rhs = any(
                is_consistent(model, (), tuple(combo) + (e,))
                for combo in itertools.product(
                    *[s.outcomes for s in ns.spreads]
                )
            )
            if lhs != rhs:
                bad.append(
                    f"n-spread at {ns.spreads[0].initial.name}: event "
                    f"{e.name}: initials-consistency {lhs} but "
                    f"vector-consistency {rhs}"
                )
    return bad


def brute_force_survivors(
    event_names: Sequence[str],
    groups: Sequence[tuple[Sequence[tuple[str, ...]], Sequence[tuple[str, ...]]]],
) -> list[tuple[bool, ...]]:
    """Profiles over the given events surviving all constraint groups.

    Each group is (consistent vectors, inconsistent vectors), a vector
    being a tuple of event names.  A profile survives when, per group,
    some consistent vector has all terms flagged and no inconsistent
    vector does.  Survivors come back sorted lexicographically (False
    before True, first event most significant).
    """
    index = {n: k for k, n in enumerate(event_names)}

    def mask(vector: tuple[str, ...]) -> int:
        m = 0
        for n in vector:
            m |= 1 << index[n]
        return m

    compiled = [
        ([mask(v) for v in cons], [mask(v) for v in inc])
        for cons, inc in groups
    ]
    survivors = []
    for m in range(1 << len(event_names)):
        ok = all(
            any(m & cm == cm for cm in cons)
            and not any(m & im == im for im in inc)
            for cons, inc in compiled
        )
        if ok:
            survivors.append(
                tuple(bool(m >> k & 1) for k in range(len(event_names)))
            )
    survivors.sort()
    return survivors


def family_groups(
    contexts: Sequence[Context],
) -> list[tuple[list[tuple[str, ...]], list[tuple[str, ...]]]]:
    """The (consistent, inconsistent) vector groups of a context family."""
    return [
        (
            [v.outcome_names for v in consistent_vectors(ctx)],
            [v.outcome_names for v in inconsistent_vectors(ctx)],
        )
        for ctx in contexts
    ]


def profile_satisfies_constraints(
    profile: CandidateProfile, contexts: Sequence[Context]
) -> bool:
    """Plain re-check of the two survival conditions, without bit tricks."""
    flags = profile.as_dict()
    for ctx in contexts:
        if not any(
            all(flags[n] for n in v.outcome_names)
            for v in consistent_vectors(ctx)
        ):
            return False
        if any(
            all(flags[n] for n in v.outcome_names)
            for v in inconsistent_vectors(ctx)
        ):
            return False
    return True


def check_derivation(contexts: Sequence[Context], trace: ReductioTrace) -> int:
    """Replay a reductio trace from the parity rule and the labels alone.

    The first step must flag consistent every term of a parity consistent
    vector of a listed context.  Every later step must be forced by the
    facts already established in its branch: screening by an inconsistent
    vector of a listed context whose other two terms are flagged
    consistent, settling by a measured station/axis whose other outcome is
    flagged inconsistent.  A case split assumes an open measured outcome
    inconsistent, closes that branch, then assumes it consistent.  Every
    branch must end in a justified contradiction and no step may follow
    the last one.  Returns the number of closed branches; raises
    ValueError at the first step that fails.
    """
    listed = {context_label(c): c for c in contexts}
    steps = trace.steps
    is_ = "the candidate outcome is "

    def fail(k: int, why: str) -> NoReturn:
        raise ValueError(f"step {k + 1}: {why}")

    def vector(k: int, kind: str) -> GhzVector:
        prefix = f"{kind} vector "
        detail = steps[k].detail
        label, _, signs = detail[len(prefix):].partition(":")
        if not detail.startswith(prefix) or label not in listed:
            fail(k, f"{detail!r} is not a vector of a listed context")
        if label != steps[k].context:
            fail(k, f"vector {detail!r} reported under {steps[k].context}")
        v = GhzVector(
            context=listed[label],
            signs=tuple(1 if s == "+" else -1 for s in signs),
        )
        if detail != prefix + v.label():
            fail(k, f"bad vector label {detail!r}")
        if parity_consistent(v) != (kind == "consistent"):
            fail(k, f"{v.label()} is not parity {kind}")
        return v

    def stable(k: int, label: str) -> tuple[str, str]:
        ctx = listed.get(steps[k].context)
        if ctx is None or len(label) != 2 or label[1] not in "123":
            fail(k, f"{label!r} is not measured by a listed context")
        axis, station = label[0], int(label[1])
        if ctx[station - 1] != axis:
            fail(k, f"{steps[k].context} does not measure {label}")
        return f"{axis}-{station}", f"{axis}+{station}"

    def claim(k: int, prefix: str) -> str:
        text = steps[k].conclusion
        if not text.startswith(prefix):
            fail(k, f"expected {prefix!r}, got {text!r}")
        return text[len(prefix):]

    def branch(k: int, facts: dict[str, bool]) -> tuple[int, int]:
        for k in range(k, len(steps)):
            rule, detail = steps[k].rule, steps[k].detail
            if rule == "contradiction" and detail.startswith("stable event "):
                lo, hi = stable(k, detail[len("stable event "):])
                if facts.get(lo) is not False or facts.get(hi) is not False:
                    fail(k, f"{lo} and {hi} are not both inconsistent")
                return k + 1, 1
            if rule == "contradiction":
                v = vector(k, "inconsistent")
                if not all(facts.get(n) for n in v.outcome_names):
                    fail(k, f"{v.label()} is not fully consistent")
                return k + 1, 1
            if rule == "case-split":
                name = claim(k, f"suppose {is_}inconsistent with ")
                if name not in stable(k, name[:1] + name[2:]) or name in facts:
                    fail(k, f"{name} is not an open measured outcome")
                k, closed_a = branch(k + 1, {**facts, name: False})
                if k == len(steps) or steps[k].rule != "case-split":
                    fail(k, f"expected the second case of {name}")
                if claim(k, f"suppose {is_}consistent with ") != name:
                    fail(k, f"expected the second case of {name}")
                k, closed_b = branch(k + 1, {**facts, name: True})
                return k, closed_a + closed_b
            if rule == "cc3-screening":
                v = vector(k, "inconsistent")
                target = claim(k, f"{is_}inconsistent with ")
                rest = [n for n in v.outcome_names if n != target]
                if len(rest) != 2 or target in facts:
                    fail(k, f"{target} is not an open term of {v.label()}")
                if not all(facts.get(n) for n in rest):
                    fail(k, f"screening {target} by {v.label()} is not forced")
                facts[target] = False
            elif rule == "cc2-existence" and detail.startswith("stable "):
                label = detail.split(" ")[2]
                lo, hi = stable(k, label)
                if detail != f"stable initial {label} branches to {lo} or {hi}":
                    fail(k, f"bad settling detail {detail!r}")
                target = claim(k, f"{is_}consistent with ")
                other = {lo: hi, hi: lo}.get(target)
                if other is None or target in facts:
                    fail(k, f"{target} is not an open outcome of {label}")
                if facts.get(other) is not False:
                    fail(k, f"settling {target} is not forced")
                facts[target] = True
            else:
                fail(k, f"unexpected {rule} step {detail!r}")
        fail(len(steps) - 1, "the branch ends without a contradiction")

    if not trace.complete or not steps:
        raise ValueError("the trace is incomplete")
    if steps[0].rule != "cc2-existence":
        fail(0, "the derivation must start from a consistent vector")
    start = vector(0, "consistent")
    names = ", ".join(start.outcome_names)
    if claim(0, f"{is_}consistent with each of ") != names:
        fail(0, f"the start does not flag {names}")
    end, closed = branch(1, dict.fromkeys(start.outcome_names, True))
    if end != len(steps):
        fail(end, "a step follows the closed derivation")
    return closed


class RescanFact(NamedTuple):
    """A trace step and the facts it was derived from."""

    step: TraceStep
    premises: tuple[Any, ...]


def rescan_close(
    contexts: Sequence[Context], t: int, f: int, why: dict[int, Any]
) -> tuple[int, int, RescanFact | bool]:
    """The propagation closure by a full rescan after every forced step.

    Rules come from the labels: a screen per inconsistent vector of each
    listed context, a stable per measured station/axis under the first
    context listing it.  Each pass looks for a contradiction among every
    rule (screens, then stables), else takes the first forced step,
    screening before settling, and starts over.  Masks give the first
    outcome event the most significant bit; a derived flag's fact goes
    into ``why``, its premises the facts of the flags it rests on, most
    significant first.  Returns the flags and the contradiction's fact,
    False if none.
    """
    is_ = "the candidate outcome is "
    bits = {
        n: 1 << len(OUTCOME_EVENT_ORDER) - 1 - k
        for k, n in enumerate(OUTCOME_EVENT_ORDER)
    }
    names = {b: n for n, b in bits.items()}
    screens = [
        (
            context_label(ctx),
            f"inconsistent vector {v.label()}",
            sum(bits[n] for n in v.outcome_names),
        )
        for ctx in contexts
        for v in inconsistent_vectors(ctx)
    ]
    stables: dict[str, tuple[str, str, int, int]] = {}
    for ctx in contexts:
        for i, a in zip(STATIONS, ctx):
            lo, hi = bits[f"{a}-{i}"], bits[f"{a}+{i}"]
            stables.setdefault(
                f"{a}{i}", (context_label(ctx), f"{a}{i}", lo, hi)
            )

    def fact(mask: int, rule: str, ctx: str, *text: str) -> RescanFact:
        premises = tuple(
            why[b] for b in sorted(names, reverse=True) if mask & b
        )
        return RescanFact(TraceStep(rule, ctx, *text), premises)

    while True:
        for ctx, detail, m in screens:
            if t & m == m:
                return t, f, fact(
                    m, "contradiction", ctx, detail,
                    "every term of an inconsistent vector came out "
                    "consistent",
                )
        for ctx, stable, lo, hi in stables.values():
            if f & lo and f & hi:
                return t, f, fact(
                    lo | hi, "contradiction", ctx, f"stable event {stable}",
                    f"{is_}inconsistent with both {names[lo]} and "
                    f"{names[hi]}, although consistency with {stable} "
                    "requires one of them",
                )
        for ctx, detail, m in screens:
            rest = m & ~t
            if rest & (rest - 1) == 0 and not rest & f:
                f |= rest
                why[rest] = fact(
                    m & ~rest, "cc3-screening", ctx, detail,
                    f"{is_}inconsistent with {names[rest]}",
                )
                break
        else:
            for ctx, stable, lo, hi in stables.values():
                settled = (lo | hi) & ~f
                if settled != lo | hi and not t & settled:
                    t |= settled
                    why[settled] = fact(
                        (lo | hi) & f, "cc2-existence", ctx,
                        f"stable initial {stable} branches to {names[lo]} "
                        f"or {names[hi]}",
                        f"{is_}consistent with {names[settled]}",
                    )
                    break
            else:
                return t, f, False


# -- the scenario documents by hand and the per-context sign search --------


def reference_covers(
    points: Iterable[str], pairs: Iterable[tuple[str, str]]
) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    """The sorted points and cover pairs of the order the pairs generate,
    closed over Python sets."""
    model = set_model(points, pairs)
    return model.points, tuple(
        (p, q) for p in model.points for q in model.covers(p)
    )


# The toy decay's order as written by hand: d+ forces a+ and b-, d- the
# reverse, and m1, m2 join the two anticorrelated outcome pairs.
TOY_DECAY_POINTS = (
    "d", "d-", "d+", "a", "a-", "a+", "b", "b-", "b+", "m1", "m2"
)
TOY_DECAY_PAIRS = (
    ("d", "d-"), ("d", "d+"),
    ("a", "a-"), ("a", "a+"),
    ("b", "b-"), ("b", "b+"),
    ("d+", "a+"), ("d+", "b-"),
    ("d-", "a-"), ("d-", "b+"),
    ("a+", "m1"), ("b-", "m1"),
    ("a-", "m2"), ("b+", "m2"),
)


def reference_ghz_spreads() -> dict[str, tuple[str, tuple[str, ...]]]:
    """The GHZ spreads written out by hand: name to (initial, outcomes)."""
    spreads = {}
    for i in STATIONS:
        spreads[f"sigma_{i}"] = (f"I{i}", (f"x{i}", f"y{i}"))
        for a in ("x", "y"):
            spreads[f"sigma_{a}_{i}"] = (f"{a}{i}", (f"{a}-{i}", f"{a}+{i}"))
        spreads[f"sigma_star_{i}"] = (
            f"I{i}",
            tuple(f"{a}{s}{i}" for a in ("x", "y") for s in "-+"),
        )
    return spreads


def reference_ghz_order() -> tuple[
    tuple[str, ...], tuple[tuple[str, str], ...]
]:
    """Points and cover pairs of the concrete GHZ model built by hand.

    Every spread's initial lies below each of its outcomes, the star
    spreads' pairs included, and one terminal ``t:<context>:<signs>`` per
    parity consistent vector lies above its three signs.
    """
    pairs = {
        (initial, o)
        for initial, outcomes in reference_ghz_spreads().values()
        for o in outcomes
    }
    for ctx in ALL_CONTEXTS:
        for v in consistent_vectors(ctx):
            pairs |= {(o, f"t:{v.label()}") for o in v.outcome_names}
    return reference_covers({p for pair in pairs for p in pair}, pairs)


def brute_force_value_search(
    constraints: Sequence[tuple[Context, int]],
) -> ValueSearchResult:
    """Every assignment of one sign per station/axis, in lexicographic
    order, kept when it meets every product constraint."""
    keys = ValueSearchResult.assignment_keys()
    witnesses = []
    for signs in itertools.product((-1, 1), repeat=len(keys)):
        value = dict(zip(keys, signs))
        if all(
            value[(1, ctx[0])] * value[(2, ctx[1])] * value[(3, ctx[2])]
            == target
            for ctx, target in constraints
        ):
            witnesses.append(signs)
    return ValueSearchResult(
        constraints=tuple(constraints),
        total=2 ** len(keys),
        satisfying=len(witnesses),
        witnesses=tuple(witnesses),
    )


def brute_force_contextual_search(
    constraints: Sequence[tuple[Context, int]],
) -> ContextualSearchResult:
    """Every joint choice of one sign triple per constraint, in
    lexicographic order, counted against the targets."""
    count = 0
    witness = None
    triples = tuple(itertools.product((-1, 1), repeat=3))
    for combo in itertools.product(triples, repeat=len(constraints)):
        if all(
            t[0] * t[1] * t[2] == target
            for t, (_, target) in zip(combo, constraints)
        ):
            count += 1
            if witness is None:
                witness = combo
    return ContextualSearchResult(
        constraints=tuple(constraints),
        total=len(triples) ** len(constraints),
        satisfying=count,
        witness=witness,
    )


# -- the quantum oracle against float matrices -------------------------------

# The tolerance for comparing the exact oracle's values with floats.
EIGEN_TOLERANCE = 1e-12


def _numpy() -> Any:
    return pytest.importorskip("numpy")


def pauli_matrix(axes: Context) -> Any:
    """The Kronecker product of one Pauli matrix per station."""
    np = _numpy()
    pauli = {
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    }
    m = pauli[axes[0]]
    for a in axes[1:]:
        m = np.kron(m, pauli[a])
    return m


def float_ghz_state() -> Any:
    """(|000> - |111>)/sqrt(2) as 8 complex floats."""
    psi = _numpy().zeros(8, dtype=complex)
    psi[0] = 1 / sqrt(2)
    psi[7] = -1 / sqrt(2)
    return psi


def float_eigenvalue(m: Any, psi: Any) -> complex:
    """<psi|m|psi>, after checking m psi is that multiple of psi."""
    np = _numpy()
    lam = complex(np.vdot(psi, m @ psi))
    residual = float(np.linalg.norm(m @ psi - lam * psi))
    if residual >= EIGEN_TOLERANCE:
        raise AssertionError(f"not an eigenstate (residual {residual:.3e})")
    return lam


def float_product(contexts: Sequence[Context]) -> Any:
    np = _numpy()
    product = np.eye(8, dtype=complex)
    for ctx in contexts:
        product = product @ pauli_matrix(ctx)
    return product


def float_commute(a: Context, b: Context) -> bool:
    np = _numpy()
    ma, mb = pauli_matrix(a), pauli_matrix(b)
    return bool(np.allclose(ma @ mb, mb @ ma, atol=1e-12))


def float_probability(
    context: Context, signs: SignVector, psi: Any = None
) -> float:
    """|<v|psi>|^2 with v the Kronecker product of sign eigenstates.

    ``psi`` defaults to the GHZ state.
    """
    np = _numpy()
    if psi is None:
        psi = float_ghz_state()

    def eigenstate(axis: str, sign: int) -> Any:
        phase = 1 if axis == "x" else 1j
        return np.array([1, sign * phase], dtype=complex) / sqrt(2)

    v = eigenstate(context[0], signs[0])
    for a, s in zip(context[1:], signs[1:]):
        v = np.kron(v, eigenstate(a, s))
    return float(abs(complex(np.vdot(v, psi))) ** 2)
