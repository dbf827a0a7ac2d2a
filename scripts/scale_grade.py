#!/usr/bin/env python3
"""Time the consistency grade of an n-spread, the common-cause search
against every inconsistent vector of it, and one common-cause check, by
its width.

Usage, from the root of a checkout with ``src`` on ``PYTHONPATH``:

    python3 scripts/scale_grade.py              # widths 8 to 64, 5 times
    python3 scripts/scale_grade.py 20           # the same widths, 20 times
    python3 scripts/scale_grade.py 3 4 6 8      # widths 4, 6 and 8, 3 times

The model of width k has a root below k stations; each station branches
into a ``-`` and a ``+`` outcome, and three terminals join one outcome of
every station: all ``+``, all ``-``, and ``+`` and ``-`` alternating.  So
the model has 3 histories, and the n-spread of the k stations has 2^k
outcome vectors, of which 3 are consistent (2 when k is 1).  The model
is declared as a document (``width_document``), so ``bstghz check-cc
FILE --search --nspread Sigma`` runs on it as written by
``bstghz.document.dump_document``.

For each width the n-spread is searched once, unrecorded, which pays
the per-model chain checks, spread validations and candidate spreads
and writes the n-spread's record.  Then ``search_ms``
is the median milliseconds, over ``repeats`` calls timed with
``time.perf_counter``, of the search against every inconsistent vector
by the box test (``_search_every_vector``), which is what ``bstghz
check-cc --search`` does; it lists no vector.  The script prints one
JSON line per width: the number of points and histories, the vector
count, the number of inconsistent vectors (the vector count less the
consistent ranks the n-spread's record holds), ``search_ms``,
``grade_ms`` and ``check_ms``.

``grade_ms`` is the median milliseconds, over ``repeats`` calls, of
``consistency_grade``.  The grade reads the n-spread's record and holds
its inconsistent vectors as a lazy sequence over the ranks that are not
consistent, so it lists no vector and is timed at every width.  Like
``len(range(2**64))``, ``len`` of that sequence raises
``OverflowError`` past ``sys.maxsize`` vectors; the vector count and
the inconsistent count printed here are exact.

``check_ms`` is the median milliseconds, over ``repeats`` calls after one
unrecorded call, of ``check_common_cause`` with the first station's
spread as the candidate against the first inconsistent vector in
lexicographic order, item 0 of the grade's sequence, and of reading
every witness line of its report, as ``bstghz check-cc --format json``
lists them.  That station precedes no outcome of the other k - 1
stations, so cc1 fails with 2(k - 1) witnesses.  The check words none;
reading them does, once per report, so the curve still measures the
wording.  With no inconsistent vector (k = 1) there is nothing to check
and ``check_ms`` is null.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from bstghz.common_cause import _search_every_vector, check_common_cause
from bstghz.document import ModelDocument, SpreadDoc, resolve_document
from bstghz.events import NSpread, consistency_grade, _nspread_record
from bstghz.model import CausalModel

REPEATS = 5
WIDTHS = (8, 12, 16, 20, 24, 32, 40, 48, 56, 64)


def width_document(k: int) -> ModelDocument:
    """The width-``k`` model as a document; its n-spread is ``Sigma``."""
    stations = [f"s{i:02d}" for i in range(k)]
    terminals = {
        "t+": [f"{s}+" for s in stations],
        "t-": [f"{s}-" for s in stations],
        "t~": [f"{s}{'+-'[i % 2]}" for i, s in enumerate(stations)],
    }
    points = ["r", *stations, *terminals]
    pairs = []
    named = []
    for s in stations:
        points += [f"{s}-", f"{s}+"]
        pairs += [("r", s), (s, f"{s}-"), (s, f"{s}+")]
        named += [s, f"{s}-", f"{s}+"]
    pairs += [(o, t) for t, outs in terminals.items() for o in outs]
    return ModelDocument(
        points=tuple(points),
        order=tuple(pairs),
        events={n: (n,) for n in named},
        spreads={s: SpreadDoc(s, (f"{s}-", f"{s}+")) for s in stations},
        nspreads={"Sigma": tuple(stations)},
    )


def width_model(k: int) -> tuple[CausalModel, NSpread]:
    """The width-``k`` model and the n-spread of its stations."""
    resolved = resolve_document(width_document(k))
    return resolved.model, resolved.nspreads["Sigma"]


def median_ms(call, repeats: int) -> float:
    """The median milliseconds of ``call()`` over ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000


def check_ms(model: CausalModel, ns: NSpread, repeats: int) -> float | None:
    """The median milliseconds, over ``repeats`` calls after an unrecorded
    one, of ``check_common_cause`` with the first station's spread as the
    candidate against ``ns``'s first inconsistent vector, with every
    witness line of its report read; None when there is none."""
    inconsistent = consistency_grade(model, ns).inconsistent_vectors
    if not inconsistent:
        return None
    sigma, vector = ns.spreads[0], inconsistent[0]

    def check() -> list[list[str]]:
        report = check_common_cause(model, sigma, ns, vector)
        conditions = (report.cc1, report.cc2, report.cc3)
        return [list(c.witnesses) for c in conditions]

    check()
    return median_ms(check, repeats)


def measure(widths: list[int], repeats: int) -> list[dict]:
    rows = []
    for k in widths:
        model, ns = width_model(k)
        _search_every_vector(model, [ns])
        _, _, count, ranks, _ = _nspread_record(model, ns)
        search_ms = median_ms(
            lambda: _search_every_vector(model, [ns]), repeats
        )
        grade_ms = median_ms(lambda: consistency_grade(model, ns), repeats)
        rows.append(
            {
                "width": k,
                "points": len(model.points),
                "histories": len(model.histories),
                "vector_count": count,
                "inconsistent": count - len(ranks),
                "search_ms": search_ms,
                "grade_ms": grade_ms,
                "check_ms": check_ms(model, ns, repeats),
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
