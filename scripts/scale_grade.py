#!/usr/bin/env python3
"""Time the consistency grade of an n-spread by its width.

Usage, from the root of a checkout with ``src`` on ``PYTHONPATH``:

    python3 scripts/scale_grade.py              # widths 8 12 14 16, 5 times
    python3 scripts/scale_grade.py 20           # the same widths, 20 times
    python3 scripts/scale_grade.py 3 4 6 8      # widths 4, 6 and 8, 3 times

The model of width k has a root below k stations; each station branches
into a ``-`` and a ``+`` outcome, and three terminals join one outcome of
every station: all ``+``, all ``-``, and ``+`` and ``-`` alternating.  So
the model has 3 histories, and the n-spread of the k stations has 2^k
outcome vectors, of which 3 are consistent (2 when k is 1).

For each width the n-spread is graded once untimed, which pays the
per-model chain checks and spread validations, and then ``repeats``
times, each call timed with ``time.perf_counter``.  The script prints
one JSON line per width: the number of points, the vector count, the
number of inconsistent vectors, and the median milliseconds per grade
(``grade_ms``).
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from bstghz.events import Event, NSpread, Spread, consistency_grade
from bstghz.model import CausalModel, build_model

REPEATS = 5
WIDTHS = (8, 12, 14, 16)


def width_model(k: int) -> tuple[CausalModel, NSpread]:
    """The width-``k`` model and the n-spread of its stations."""
    stations = [f"s{i:02d}" for i in range(k)]
    terminals = {
        "t+": [f"{s}+" for s in stations],
        "t-": [f"{s}-" for s in stations],
        "t~": [f"{s}{'+-'[i % 2]}" for i, s in enumerate(stations)],
    }
    points = ["r", *stations, *terminals]
    pairs = []
    for s in stations:
        points += [f"{s}-", f"{s}+"]
        pairs += [("r", s), (s, f"{s}-"), (s, f"{s}+")]
    pairs += [(o, t) for t, outs in terminals.items() for o in outs]

    def event(name: str) -> Event:
        return Event(name=name, members=frozenset({name}))

    ns = NSpread(
        spreads=tuple(
            Spread(initial=event(s), outcomes=(event(f"{s}-"), event(f"{s}+")))
            for s in stations
        )
    )
    return build_model(points, pairs), ns


def measure(widths: list[int], repeats: int) -> list[dict]:
    rows = []
    for k in widths:
        model, ns = width_model(k)
        grade = consistency_grade(model, ns)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            consistency_grade(model, ns)
            times.append(time.perf_counter() - t0)
        rows.append(
            {
                "width": k,
                "points": len(model.points),
                "histories": len(model.histories),
                "vector_count": grade.vector_count,
                "inconsistent": len(grade.inconsistent_vectors),
                "grade_ms": statistics.median(times) * 1000,
            }
        )
    return rows


def main(argv: list[str]) -> int:
    repeats = int(argv[0]) if argv else REPEATS
    widths = [int(k) for k in argv[1:]] or list(WIDTHS)
    for row in measure(widths, repeats):
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
