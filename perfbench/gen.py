"""Seeded inputs for the benchmark, and the benchmark's own oracles.

Nothing here imports ``bstghz``: the generated documents are plain JSON
text, the contexts and outcome names are spelled out again, and the
refutation oracle is an independent bitset count.  The program under
test therefore sees only generated inputs, and its answers are checked
against values computed without it.
"""

from __future__ import annotations

import itertools
import json
import random

AXES = ("x", "y")
SIGNS = (-1, 1)
STATIONS = (1, 2, 3)
CONTEXTS: tuple[tuple[str, str, str], ...] = tuple(
    itertools.product(AXES, repeat=3)  # type: ignore[arg-type]
)
THEOREM_FAMILY = (("x", "x", "x"), ("x", "x", "y"), ("x", "y", "y"), ("x", "y", "x"))
# Every nonempty context family, each in CONTEXTS order except the paper's
# family, which keeps its own order because its trace names contexts.
FAMILIES: tuple[tuple[tuple[str, str, str], ...], ...] = tuple(
    THEOREM_FAMILY
    if fam == tuple(sorted(THEOREM_FAMILY))
    else fam
    for fam in (
        tuple(c for k, c in enumerate(CONTEXTS) if mask >> k & 1)
        for mask in range(1, 1 << len(CONTEXTS))
    )
)
OUTCOME_ORDER = tuple(
    f"{a}{'+' if s > 0 else '-'}{i}" for i in STATIONS for a in AXES for s in SIGNS
)


def rng_for(seed: int, *stream: object) -> random.Random:
    """An independent generator for one named stream of one seed."""
    return random.Random(repr((seed,) + stream))


def label(ctx: tuple[str, ...]) -> str:
    return "".join(ctx)


def outcome(station: int, axis: str, sign: int) -> str:
    return f"{axis}{'+' if sign > 0 else '-'}{station}"


def parity_consistent(ctx: tuple[str, str, str], signs: tuple[int, ...]) -> bool:
    """The paper's stipulation: even minus count in mixed contexts, odd in
    the unmixed ones."""
    minuses = sum(1 for s in signs if s < 0)
    return minuses % 2 == (0 if len(set(ctx)) > 1 else 1)


def context_vectors(ctx, consistent: bool) -> list[tuple[str, str, str]]:
    return [
        tuple(outcome(i, a, s) for i, a, s in zip(STATIONS, ctx, signs))
        for signs in itertools.product(SIGNS, repeat=3)
        if parity_consistent(ctx, signs) == consistent
    ]


def survivor_counts() -> dict[frozenset, int]:
    """Surviving profiles per context family, by an independent count.

    A profile flags each of the twelve outcome events; it survives a
    context when some consistent vector of the context is fully flagged
    and no inconsistent one is.  Each context's survivors are one
    4096-bit integer, so a family's count is the popcount of an AND.
    """
    bit = {n: 1 << k for k, n in enumerate(OUTCOME_ORDER)}

    def masks(vectors):
        return [sum(bit[n] for n in v) for v in vectors]

    ok: dict[tuple, int] = {}
    for ctx in CONTEXTS:
        cons = masks(context_vectors(ctx, True))
        inc = masks(context_vectors(ctx, False))
        bits = 0
        for m in range(1 << len(OUTCOME_ORDER)):
            if any(m & c == c for c in cons) and not any(m & c == c for c in inc):
                bits |= 1 << m
        ok[ctx] = bits
    full = (1 << (1 << len(OUTCOME_ORDER))) - 1
    counts = {}
    for fam in FAMILIES:
        bits = full
        for ctx in fam:
            bits &= ok[ctx]
        counts[frozenset(fam)] = bits.bit_count()
    return counts


# -- layered model documents ------------------------------------------------

# (stations, tree depth, past depth, past width, in-degree, terminals).
# A "past" of layered points with fixed in-degree sits below one branching
# tree per station; terminals join one leaf of every station.  The number
# of maximal chains is terminals * stations * indegree**depth, so the shapes
# climb the chain-walk cliff while their other costs stay small.  An odd
# number of shapes keeps the median operation inside one shape.
POSET_SHAPES = (
    (2, 1, 1, 2, 1, 3),
    (3, 1, 2, 2, 2, 5),
    (2, 2, 2, 3, 2, 6),
    (2, 2, 3, 3, 2, 6),
    (2, 2, 3, 4, 2, 8),
)


def layered_document(rng: random.Random, shape) -> tuple[str, dict]:
    """One model document and the facts its construction fixes."""
    stations, tree_depth, depth, width, indeg, terminals = shape
    names = iter(rng.sample(range(10_000), 400))
    new = lambda: f"e{next(names)}"  # noqa: E731
    points: list[str] = []
    order: list[list[str]] = []
    children: dict[str, list[str]] = {}

    below: list[str] = []
    for _ in range(depth):
        layer = [new() for _ in range(width)]
        if below:
            perm = rng.sample(below, len(below))
            for j, q in enumerate(layer):
                order += [[perm[(j + o) % width], q] for o in range(indeg)]
        points += layer
        below = layer

    roots, leaves = [], []
    perm = rng.sample(below, len(below))
    for s in range(stations):
        root = new()
        roots.append(root)
        points.append(root)
        if perm:
            order += [[perm[(s * indeg + o) % width], root] for o in range(indeg)]
        frontier = [root]
        for _ in range(tree_depth):
            nxt = []
            for n in frontier:
                children[n] = [new(), new()]
                for c in children[n]:
                    points.append(c)
                    order.append([n, c])
                nxt += children[n]
            frontier = nxt
        leaves.append(frontier)

    # Cover every leaf once with a random matching, then add distinct tuples.
    per = len(leaves[0])
    shuffled = [rng.sample(ls, per) for ls in leaves]
    joins = {tuple(col[j] for col in shuffled) for j in range(per)}
    others = [t for t in itertools.product(*leaves) if t not in joins]
    joins |= set(rng.sample(others, terminals - per))
    branch = {
        leaf: child
        for child in (c for r in roots for c in children[r])
        for leaf in _leaves_under(children, child)
    }
    combos = {tuple(branch[leaf] for leaf in t) for t in joins}
    for t in sorted(joins):
        top = new()
        points.append(top)
        order += [[leaf, top] for leaf in t]

    spread_of = {n: f"s_{n}" for n in children}
    tree = set(children).union(*children.values())
    doc = {
        "version": 1,
        "points": rng.sample(points, len(points)),
        "order": rng.sample(order, len(order)),
        "events": {n: [n] for n in points if n in tree},
        "spreads": {
            spread_of[n]: {"initial": n, "outcomes": rng.sample(cs, len(cs))}
            for n, cs in children.items()
        },
        "nspreads": {"N": [spread_of[r] for r in roots]},
    }
    facts = {
        "points": len(points),
        "histories": len(joins),
        "spreads": sorted(spread_of.values()),
        "nspread": "N",
        "vectors": 2**stations,
        "inconsistent": 2**stations - len(combos),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n", facts


def _leaves_under(children: dict[str, list[str]], n: str) -> list[str]:
    if n not in children:
        return [n]
    return [leaf for c in children[n] for leaf in _leaves_under(children, c)]
