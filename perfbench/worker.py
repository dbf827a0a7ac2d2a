"""One benchmark process: set up a workload, then time it or trace it.

``run.py`` starts this file with one JSON argument and reads one JSON
object back from its standard output.  The process is fresh, so its
set-up pays the interpreter start and ``import bstghz`` as a user would.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from gen import FAMILIES
from spans import OFF, Tracer
from workloads import WORKLOADS

MAX_ERRORS = 5
# The reference pass's table, built once so that every pass only reads it.
REF_TABLE = {(i, i % 7): i for i in range(2048)}


def reference_pass() -> float:
    """Time one fixed pass of pure-Python work, with the collector off.

    The pass does what the package's code does most, dictionary and set
    lookups and tuple building, on data of its own and without collecting,
    so its time follows the speed the machine gives this process at that
    moment and nothing that the package does.
    """
    table = REF_TABLE
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    seen = set()
    total = 0
    for i in range(6000):
        j = i % 2048
        total += table[(j, j % 7)]
        if j not in seen:
            seen.add(j)
        total += len((i, j, total))
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


class Loop:
    """Runs operations and keeps latencies and failures."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append("".join(traceback.format_exception_only(exc)).strip())

    def one(self, i: int) -> None:
        wl = self.workload
        wl.tracer.op = i
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = wl.run(i)
        except Exception as exc:  # a failed operation is data, not a crash
            self.latencies.append(time.perf_counter() - t0)
            self.fail(exc)
            return
        self.latencies.append(time.perf_counter() - t0)
        try:
            wl.check(i, result)
        except Exception as exc:
            self.fail(exc)

    def warm_up(self) -> None:
        """One fixed operation, checked but not timed."""
        self.attempted += 1
        try:
            self.workload.warm_up()
        except Exception as exc:
            self.fail(exc)

    def report(self) -> dict:
        return {
            "latencies": self.latencies,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
        }


def timed(wl, job: dict) -> dict:
    """Warm up, then run operations from ``start`` for ``seconds``, and at
    least ``min_ops`` of them.  A reference pass runs before the first
    operation and after each one, so every operation lies between two."""
    loop = Loop(wl)
    loop.warm_up()
    setup_s = time.monotonic() - job["launched"]
    refs = [reference_pass()]
    deadline = time.perf_counter() + job["seconds"]
    i = job["start"]
    while time.perf_counter() < deadline or i - job["start"] < job["min_ops"]:
        loop.one(i)
        refs.append(reference_pass())
        i += 1
    usage = resource.RUSAGE_CHILDREN if wl.in_children else resource.RUSAGE_SELF
    return loop.report() | {
        "refs": refs,
        "setup_s": setup_s,
        "next": i,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
    }


def traced(wl, tracer: Tracer, job: dict) -> dict:
    """One traced cycle from operation 0, for spans and counts.  With
    ``compare``, the cycle is then repeated for about ``seconds`` with
    and without tracing, to measure the tracing overhead."""
    loop = Loop(wl)
    wl.tracer = OFF
    loop.warm_up()
    wl.tracer = tracer
    for i in range(wl.cycle):
        loop.one(i)
    kept = list(tracer.spans)
    busy = {OFF: 0.0, tracer: 0.0}
    if job["compare"]:
        # Each operation runs untraced and traced back to back, in
        # alternating order, so drifts in machine speed cancel.
        deadline = time.perf_counter() + job["seconds"]
        i = 0
        while i % wl.cycle or time.perf_counter() < deadline:
            for mode in (OFF, tracer) if i % 2 else (tracer, OFF):
                wl.tracer = mode
                t0 = time.perf_counter()
                loop.one(i % wl.cycle)
                busy[mode] += time.perf_counter() - t0
            tracer.spans.clear()
            i += 1
        wl.tracer = tracer
    out = loop.report()
    out.update(
        spans=kept,
        layers=wl.layer_metrics(kept),
        overhead=busy[tracer] / busy[OFF] - 1 if job["compare"] else None,
    )
    del out["latencies"]
    return out


def main() -> int:
    job = json.loads(sys.argv[1])
    root = Path(job["root"])
    sys.path.insert(0, str(root / "src"))
    tracer = Tracer() if job["mode"] == "trace" else OFF
    survivors = dict(zip(map(frozenset, FAMILIES), job["survivors"]))
    wl = WORKLOADS[job["workload"]](root, job["seed"], tracer, survivors)
    out = timed(wl, job) if job["mode"] == "timed" else traced(wl, tracer, job)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
