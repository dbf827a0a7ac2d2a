#!/usr/bin/env python3
"""Time the order layers on layered models of growing history count.

Usage, from the root of a checkout with ``src`` on ``PYTHONPATH``:

    python3 scripts/scale_order.py            # 16, 32, 128 and 256 histories
    python3 scripts/scale_order.py 16 32      # chosen sizes only (up to 512)

Each model has a layered past (25 layers of 8 points, every point above
two points of the layer before it), one binary tree of depth 3 per
station (three stations) whose root lies above every third point of
the top layer, and one terminal
point per history joining a leaf of every station; the terminals take
distinct leaf triples, every leaf is used, and the prior-choice check
passes.  The past and the trees hold 245 points, so 256 histories give
the 501-point model.  For each size the script prints one JSON line:
the point, history and branching-point counts (``model.branching``,
whose points are the only ones ``check_prior_choice`` visits; the
maximal points count among them), the prior-choice status, and the seconds
spent in ``build_model``, in the first read of ``model.history_bits``,
in ``check_prior_choice`` and in ``check_density``, each timed once with
``time.perf_counter``.  ``build_model`` fills the histories and
``history_bits`` as it builds the order, so ``build_model_s`` includes
both and ``history_bits_s`` times a field read.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import time

from bstghz.model import build_model, check_density, check_prior_choice

SIZES = (16, 32, 128, 256)
STATIONS, TREE_DEPTH, DEPTH, WIDTH, INDEGREE = 3, 3, 25, 8, 2


def layered_order(
    histories: int, seed: int = 0
) -> tuple[list[str], list[tuple[str, str]]]:
    """Points and generating pairs of one layered model."""
    rng = random.Random(seed)
    pairs: list[tuple[str, str]] = []
    layers = [[f"L{d:02d}w{w}" for w in range(WIDTH)] for d in range(DEPTH)]
    for lower, upper in zip(layers, layers[1:]):
        for w, q in enumerate(upper):
            pairs += [(lower[(w + o) % WIDTH], q) for o in range(INDEGREE)]
    points = [p for layer in layers for p in layer]
    leaves = []
    for s in range(STATIONS):
        root = f"S{s}"
        points.append(root)
        pairs += [(q, root) for q in layers[-1][s::STATIONS]]
        frontier = [root]
        for _ in range(TREE_DEPTH):
            nxt = [f"{n}{c}" for n in frontier for c in "01"]
            pairs += [(n[:-1], n) for n in nxt]
            points += nxt
            frontier = nxt
        leaves.append(frontier)
    per = len(leaves[0])
    columns = [rng.sample(ls, per) for ls in leaves]
    joins = {tuple(col[j] for col in columns) for j in range(per)}
    rest = [t for t in itertools.product(*leaves) if t not in joins]
    joins |= set(rng.sample(rest, histories - per))
    for k, t in enumerate(sorted(joins)):
        points.append(f"T{k:03d}")
        pairs += [(leaf, f"T{k:03d}") for leaf in t]
    return points, pairs


def measure(histories: int) -> dict:
    points, pairs = layered_order(histories)
    t0 = time.perf_counter()
    model = build_model(points, pairs)
    t1 = time.perf_counter()
    model.history_bits
    t2 = time.perf_counter()
    prior = check_prior_choice(model)
    t3 = time.perf_counter()
    check_density(model)
    t4 = time.perf_counter()
    return {
        "points": len(model.points),
        "histories": len(model.histories),
        "branching": model.branching.bit_count(),
        "prior_choice": prior.status,
        "build_model_s": t1 - t0,
        "history_bits_s": t2 - t1,
        "prior_choice_s": t3 - t2,
        "density_s": t4 - t3,
    }


def main(argv: list[str]) -> int:
    sizes = [int(a) for a in argv] or list(SIZES)
    for h in sizes:
        print(json.dumps(measure(h)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
