#!/usr/bin/env python3
"""Time fresh ``bstghz`` processes against a bare interpreter start.

Usage, from anywhere:

    python3 scripts/scale_start.py               # 21 rounds, this checkout
    python3 scripts/scale_start.py 5             # 5 rounds
    python3 scripts/scale_start.py 21 A B        # checkouts A and B, interleaved

Each round starts one fresh process per command and per checkout, in
turn, the checkouts of one command back to back, with the checkout as
working directory and its ``src`` first on ``PYTHONPATH``; every other
round runs them in reverse order, so no process always comes first.  The commands are ``python -c pass`` (the
interpreter's own start) and three subcommands on the canned fixtures:
``validate``, ``check-cc --search`` and ``ghz refute --trace``.  Wall
time is taken with ``time.perf_counter`` around the whole process.

For each checkout and command the script prints one JSON line: the
median and quartiles in milliseconds, the exit code, and a SHA-256 of
the exit code, stdout and stderr together (``output_sha256``), so two
checkouts can be compared byte for byte; ``stable`` is false when that
digest differed between rounds.  ``bytecode_cache`` is false when the
processes write no ``__pycache__`` (``PYTHONDONTWRITEBYTECODE`` is set,
read here as ``sys.dont_write_bytecode``): then every process compiles
each module it loads, which is part of the times.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROUNDS = 21
FIXTURE = "fixtures/ghz_model.json"
COMMANDS = {
    "python -c pass": ["-c", "pass"],
    "validate": ["-m", "bstghz", "validate", FIXTURE],
    "check-cc --search": [
        "-m", "bstghz", "check-cc", FIXTURE,
        "--search", "--nspread", "Sigma_xxx,Sigma_xxy",
    ],
    "ghz refute": [
        "-m", "bstghz", "ghz", "refute",
        "--contexts", "xxx,xxy,xyy,xyx", "--trace",
    ],
}


def run_once(checkout: Path, args: list[str]) -> tuple[float, int, str]:
    """Milliseconds, exit code and output digest of one fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(checkout / "src"), env.get("PYTHONPATH")])
    )
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=checkout, env=env, capture_output=True
    )
    ms = (time.perf_counter() - t0) * 1000
    digest = hashlib.sha256(
        b"%d\0%s\0%s" % (proc.returncode, proc.stdout, proc.stderr)
    ).hexdigest()
    return ms, proc.returncode, digest


def measure(rounds: int, checkouts: list[Path]) -> list[dict]:
    jobs = [(c, name) for name in COMMANDS for c in checkouts]
    times: dict[tuple[Path, str], list[float]] = {j: [] for j in jobs}
    outputs: dict[tuple[Path, str], set[tuple[int, str]]] = {
        j: set() for j in jobs
    }
    for k in range(rounds):
        for job in jobs if k % 2 == 0 else reversed(jobs):
            ms, code, digest = run_once(job[0], COMMANDS[job[1]])
            times[job].append(ms)
            outputs[job].add((code, digest))
    rows = []
    for checkout, name in jobs:
        ms = times[checkout, name]
        q1, median, q3 = statistics.quantiles(ms, n=4, method="inclusive")
        (code, digest), *rest = sorted(outputs[checkout, name])
        rows.append({
            "checkout": str(checkout),
            "command": name,
            "runs": len(ms),
            "median_ms": round(median, 3),
            "q1_ms": round(q1, 3),
            "q3_ms": round(q3, 3),
            "exit": code,
            "output_sha256": digest,
            "stable": not rest,
            "bytecode_cache": not sys.dont_write_bytecode,
        })
    return rows


def main(argv: list[str]) -> int:
    rounds = int(argv[0]) if argv else ROUNDS
    if rounds < 2:
        print("error: quartiles need at least 2 rounds", file=sys.stderr)
        return 2
    here = Path(__file__).resolve().parent.parent
    checkouts = [Path(a).resolve() for a in argv[1:]] or [here]
    for row in measure(rounds, checkouts):
        print(json.dumps(row, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
