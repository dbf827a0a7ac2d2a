"""Independent brute-force reference computations for the test suite.

Nothing here reuses the library's derived machinery: histories are found
by enumerating *all* subsets and keeping the maximal directed ones, the
branching-location check quantifies over all chains rather than single
points, the infima/suprema check scans every maximal chain instead
of trusting finiteness, consistency scans every history with set
operations instead of reading history bitmasks, and covers and density
gaps test every candidate point in between.  Agreement with the fast
implementations is what the tests assert.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Iterator

from bstghz.events import Event, NSpread, Spread, is_consistent
from bstghz.model import CausalModel, build_model


def seeded_model(
    rng: random.Random, max_points: int = 10, edge_prob: float = 0.35
) -> CausalModel:
    """A reproducible random model: forward edges on a shuffled line."""
    n = rng.randint(1, max_points)
    names = [f"p{i:02d}" for i in range(n)]
    pairs = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_prob
    ]
    return build_model(names, pairs)


def brute_force_histories(model: CausalModel) -> set[frozenset[str]]:
    """Maximal directed subsets by exhaustive subset enumeration."""
    pts = sorted(model.points)
    n = len(pts)
    # upper cone of each point, as a bitmask over pts
    cone = []
    for i, p in enumerate(pts):
        m = 0
        for j, q in enumerate(pts):
            if model.le(p, q):
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
    for h1 in model.histories:
        for h2 in model.histories:
            if h1.members == h2.members:
                continue
            inter = h1.members & h2.members
            cps = [p for p in inter if not (model.above[p] & inter)]
            diff = sorted(h1.members - h2.members)
            for r in range(1, len(diff) + 1):
                for combo in itertools.combinations(diff, r):
                    if not all(
                        model.comparable(a, b)
                        for a, b in itertools.combinations(combo, 2)
                    ):
                        continue
                    if not any(
                        all(model.lt(c, e) for e in combo) for c in cps
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
        for h in model.histories
    )


def brute_force_covers(model: CausalModel, p: str) -> tuple[str, ...]:
    """Points q above ``p`` with no r strictly between, by testing every r."""
    return tuple(
        q
        for q in sorted(model.above[p])
        if not any(model.lt(p, r) and model.lt(r, q) for r in model.above[p])
    )


def brute_force_density_gaps(model: CausalModel) -> list[tuple[str, str]]:
    """Ordered pairs a < b with no point between, by testing every c < b."""
    return [
        (a, b)
        for b in model.points
        for a in sorted(model.below[b])
        if not any(model.lt(a, c) and model.lt(c, b) for c in model.below[b])
    ]


def random_chain(model: CausalModel, rng: random.Random) -> frozenset[str]:
    """A nonempty chain grown from a random point by comparable points."""
    pts = list(model.points)
    chain = {rng.choice(pts)}
    for q in rng.sample(pts, len(pts)):
        if rng.random() < 0.5 and all(model.comparable(q, c) for c in chain):
            chain.add(q)
    return frozenset(chain)


def _maximal_chains(model: CausalModel) -> Iterator[tuple[str, ...]]:
    """All maximal chains, as cover paths from minimal to maximal points."""
    minimal = [p for p in model.points if not model.below[p]]

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
    for chain in _maximal_chains(model):
        for i, lo in enumerate(chain):
            for hi in chain[i:]:
                span = [p for p in chain if model.le(lo, p) and model.le(p, hi)]
                lower = frozenset.intersection(
                    *[model.down_closure(p) for p in span]
                )
                greatest = [p for p in lower if not (model.above[p] & lower)]
                if sorted(greatest) != [lo]:
                    return False
                for h in model.histories:
                    if not set(span) <= h.members:
                        continue
                    upper = frozenset(
                        u
                        for u in h.members
                        if all(model.le(p, u) for p in span)
                    )
                    least = [u for u in upper if not (model.below[u] & upper)]
                    if sorted(least) != [hi]:
                        return False
    return True


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
