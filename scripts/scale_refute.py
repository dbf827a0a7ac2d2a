#!/usr/bin/env python3
"""Time the GHZ profile refutation by the number of contexts in a family.

Usage, from the root of a checkout with ``src`` on ``PYTHONPATH``:

    python3 scripts/scale_refute.py         # every family timed 5 times
    python3 scripts/scale_refute.py 20      # every family timed 20 times

Every nonempty family of the eight contexts (255 of them) is refuted
once, cold, and then ``repeats`` times, each call timed with
``time.perf_counter``.  The first call pays whatever per-context set-up
the process has not cached yet, so that cost shows in the size-1 row.
For each family size from 1 to 8 the script prints one JSON line: the
number of families, how many of them are refuted (no surviving profile),
the median milliseconds per call over the refuted and over the surviving
families of that size (``null`` when there are none), the median
milliseconds of the first calls (``first_ms``), the median milliseconds
of the AND of the contexts' profile sets alone over every family
(``survivors_ms``), the median milliseconds of reading a result's
survivors out as a tuple of profiles over every family (``readout_ms``:
a result holds its survivors as a ``ProfileSet`` and reads them out only
when asked, so this cost is not in a call's time), and the median
milliseconds of the derivation alone over the refuted families
(``derivation_ms``, ``null`` when none is refuted).  The last three time
the survivors, their readout and the trace apart.
"""

from __future__ import annotations

import itertools
import json
import operator
import statistics
import sys
import time
from functools import reduce

from bstghz.ghz import (
    _ALL_PROFILES,
    ALL_CONTEXTS,
    _compile,
    _context_profiles,
    _derivation,
    build_abstract_structure,
    refute_joint_common_cause,
)

REPEATS = 5


def measure(repeats: int) -> list[dict]:
    structure = build_abstract_structure()
    rows = []
    for size in range(1, len(ALL_CONTEXTS) + 1):
        times: dict[bool, list[float]] = {True: [], False: []}
        families = list(itertools.combinations(ALL_CONTEXTS, size))
        refuted = 0
        first = []
        survivors = []
        readout = []
        derivation = []
        for fam in families:
            t0 = time.perf_counter()
            result = refute_joint_common_cause(structure, fam)
            first.append(time.perf_counter() - t0)
            dead = not result.survivors
            refuted += dead
            for _ in range(repeats):
                t0 = time.perf_counter()
                refute_joint_common_cause(structure, fam)
                times[dead].append(time.perf_counter() - t0)
            for _ in range(repeats):
                t0 = time.perf_counter()
                reduce(operator.and_, map(_context_profiles, fam), _ALL_PROFILES)
                survivors.append(time.perf_counter() - t0)
            for _ in range(repeats):
                t0 = time.perf_counter()
                tuple(result.survivors)
                readout.append(time.perf_counter() - t0)
            if dead:
                rules = _compile(fam)
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    _derivation(fam, *rules)
                    derivation.append(time.perf_counter() - t0)
        rows.append(
            {
                "contexts": size,
                "families": len(families),
                "refuted": refuted,
                **{
                    f"{kind}_ms": (
                        statistics.median(times[dead]) * 1000
                        if times[dead]
                        else None
                    )
                    for kind, dead in (("refuted", True), ("surviving", False))
                },
                "first_ms": statistics.median(first) * 1000,
                "survivors_ms": statistics.median(survivors) * 1000,
                "readout_ms": statistics.median(readout) * 1000,
                "derivation_ms": (
                    statistics.median(derivation) * 1000
                    if derivation
                    else None
                ),
            }
        )
    return rows


def main(argv: list[str]) -> int:
    repeats = int(argv[0]) if argv else REPEATS
    for row in measure(repeats):
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
