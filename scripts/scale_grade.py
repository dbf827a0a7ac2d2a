#!/usr/bin/env python3
"""Time the consistency grade of an n-spread, the common-cause search
over its inconsistent vectors, and one common-cause check, by its width.

Usage, from the root of a checkout with ``src`` on ``PYTHONPATH``:

    python3 scripts/scale_grade.py              # widths 8 12 14 16, 5 times
    python3 scripts/scale_grade.py 20           # the same widths, 20 times
    python3 scripts/scale_grade.py 3 4 6 8      # widths 4, 6 and 8, 3 times

The model of width k has a root below k stations; each station branches
into a ``-`` and a ``+`` outcome, and three terminals join one outcome of
every station: all ``+``, all ``-``, and ``+`` and ``-`` alternating.  So
the model has 3 histories, and the n-spread of the k stations has 2^k
outcome vectors, of which 3 are consistent (2 when k is 1).

For each width the n-spread is graded and searched once, unrecorded,
which pays the per-model chain checks, spread validations and candidate
spreads.  Then each of ``repeats`` rounds times, with
``time.perf_counter``, a grade and then ``search_common_causes`` over
that grade's inconsistent vectors, which is what ``bstghz check-cc
--search`` does.  The script prints one JSON line per width: the number
of points, the vector count, the number of inconsistent vectors, the
median milliseconds per grade (``grade_ms``), and the median over the
rounds of the grade and search together (``search_ms``).  Each round's
sum is at least its own grade time, so ``search_ms`` is never below
``grade_ms``.

``check_ms`` is the median milliseconds, over ``repeats`` calls after one
unrecorded call, of ``check_common_cause`` with the first station's
spread as the candidate against the first inconsistent vector.  That
station precedes no outcome of the other k - 1 stations, so cc1 fails
with 2(k - 1) witnesses, which the check words.  With no inconsistent
vector (k = 1) there is nothing to check and ``check_ms`` is null.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from bstghz.common_cause import check_common_cause, search_common_causes
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


def timed_ms(
    model: CausalModel, ns: NSpread, repeats: int
) -> tuple[float, float]:
    """The median milliseconds, over ``repeats`` rounds, of a grade of
    ``ns`` and of that grade plus the search over its inconsistent
    vectors, as ``bstghz check-cc --search`` does."""
    grades, totals = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        vectors = consistency_grade(model, ns).inconsistent_vectors
        t1 = time.perf_counter()
        search_common_causes(model, [ns] * len(vectors), vectors)
        t2 = time.perf_counter()
        grades.append(t1 - t0)
        totals.append(t2 - t0)
    return statistics.median(grades) * 1000, statistics.median(totals) * 1000


def check_ms(
    model: CausalModel, ns: NSpread, vectors: tuple, repeats: int
) -> float | None:
    """The median milliseconds, over ``repeats`` calls after an unrecorded
    one, of ``check_common_cause`` with the first station's spread as the
    candidate against the first of ``ns``'s inconsistent ``vectors``;
    None when there is none."""
    if not vectors:
        return None
    sigma, vector = ns.spreads[0], vectors[0]
    check_common_cause(model, sigma, ns, vector)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        check_common_cause(model, sigma, ns, vector)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000


def measure(widths: list[int], repeats: int) -> list[dict]:
    rows = []
    for k in widths:
        model, ns = width_model(k)
        grade = consistency_grade(model, ns)
        timed_ms(model, ns, 1)
        grade_ms, search_ms = timed_ms(model, ns, repeats)
        rows.append(
            {
                "width": k,
                "points": len(model.points),
                "histories": len(model.histories),
                "vector_count": grade.vector_count,
                "inconsistent": len(grade.inconsistent_vectors),
                "grade_ms": grade_ms,
                "search_ms": search_ms,
                "check_ms": check_ms(
                    model, ns, grade.inconsistent_vectors, repeats
                ),
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
