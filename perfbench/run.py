"""Benchmark of the bstghz package: fresh-process CLI and in-process layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload poset-validate --seed 1 --seconds 35 --trace 0

``--workload all`` (the default) runs every workload in turn.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, measured with tracing off; with ``--trace 1`` they are
the per-layer ones from a separate traced run, whose spans are also
written to ``.perfbench/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import gen  # noqa: E402
from workloads import FIXED, WORKLOADS  # noqa: E402

# Each timed run is split over this many fresh worker processes, one after
# another; set-up time is their median.
WORKERS = 9
# p90 needs at least ten samples beyond it, and a run covers the whole
# mix of each workload's fixed operations a few times.
MIN_OPS = 100
MIN_CYCLES = 3
WORKER_TIMEOUT_S = 150
# The reference pass's time (``worker.reference_pass``) at the reference
# speed: its median on a shared 2-core Intel Xeon VM with Python 3.11.7.
REF_PASS_S = 0.0027
OUT_DIR = ".perfbench"
LAYER_UNITS = {
    m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
}


class BenchError(Exception):
    pass


def spawn(job: dict) -> dict:
    """Run one worker to completion; on timeout, kill it and its child."""
    job = dict(job, root=str(ROOT), launched=time.monotonic())
    with subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{job['workload']} worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{job['workload']} worker failed:\n{err.strip()}")
    return json.loads(out.splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)]


def timed_run(workload: str, seed: int, seconds: float, survivors: list[int]) -> dict:
    """Closed loop, one client, split over fresh workers one after another.

    Every timed operation is a sample.  ``ops_per_s`` is completed
    operations over the time spent in them; the percentiles are over the
    operations' latencies.  Operation times are at the reference speed
    (see :func:`at_reference_speed`); set-up time is as measured.
    """
    parts = []
    start = 0
    target = max(MIN_OPS, MIN_CYCLES * WORKLOADS[workload].cycle)
    for k in range(WORKERS):
        part = spawn(
            {
                "mode": "timed",
                "workload": workload,
                "seed": seed,
                "survivors": survivors,
                "seconds": seconds / WORKERS,
                "start": start,
                "min_ops": math.ceil((target - start) / (WORKERS - k)),
            }
        )
        start = part["next"]
        parts.append(part)
    latencies = at_reference_speed(parts, WORKLOADS[workload].in_children)
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    wall = [t for p in parts for t in p["latencies"]]
    metrics = {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_ms_p50": (statistics.median(latencies) * 1000, "ms"),
        "op_ms_p90": (percentile(latencies, 0.9) * 1000, "ms"),
        "setup_s": (statistics.median(p["setup_s"] for p in parts), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in parts), "MB"),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": [e for p in parts for e in p["errors"]],
        "samples": len(latencies),
        "metrics": metrics,
        "wall": {
            "ops_per_s": len(wall) / sum(wall),
            "op_ms_p50": statistics.median(wall) * 1000,
            "op_ms_p90": percentile(wall, 0.9) * 1000,
        },
        "speed": REF_PASS_S / statistics.median(r for p in parts for r in p["refs"]),
        "error_rate": failed / attempted,
    }


def at_reference_speed(parts: list[dict], in_children: bool) -> list[float]:
    """Operation latencies scaled to the reference speed.

    On a shared host the speed a process gets can drift by a quarter and
    more within a minute, and every timing follows it.  A worker times a fixed
    reference pass before its first operation and after each one.  Where
    the work runs in the worker, an operation's latency is scaled by
    ``REF_PASS_S`` over the mean of the two passes around it.  Where it runs
    in child processes, which the scheduler may put on another core than
    the worker's passes, a pass says little about the child next to it, so
    every latency is scaled by ``REF_PASS_S`` over the median of the
    worker's passes; that follows only the slower drift of the machine
    as a whole.  A change to the package moves the
    scaled times as it moves the wall times; a change in machine speed
    moves the reference passes as well, and cancels.
    """
    latencies = []
    for p in parts:
        refs = p["refs"]
        if in_children:
            speed = REF_PASS_S / statistics.median(refs)
            latencies += [t * speed for t in p["latencies"]]
        else:
            latencies += [t * 2 * REF_PASS_S / (refs[k] + refs[k + 1]) for k, t in enumerate(p["latencies"])]
    return latencies


def trace_run(workload: str, seed: int, seconds: float, survivors: list[int]) -> dict:
    """Trace one cycle of every workload; the named one also measures the
    tracing overhead against its untraced passes."""
    parts = {
        name: spawn(
            {
                "mode": "trace",
                "workload": name,
                "seed": seed,
                "survivors": survivors,
                "seconds": seconds / 2,
                "compare": name == workload,
            }
        )
        for name in WORKLOADS
    }
    layers: dict[str, float] = {}
    for part in parts.values():
        layers.update(part["layers"])
    layers["bench.trace_overhead"] = parts[workload]["overhead"]
    attempted = sum(p["attempted"] for p in parts.values())
    failed = sum(p["failed"] for p in parts.values())
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": [e for p in parts.values() for e in p["errors"]],
        "metrics": {name: (value, LAYER_UNITS[name]) for name, value in sorted(layers.items())},
        "error_rate": failed / attempted,
        "spans": {name: p["spans"] for name, p in parts.items()},
    }


def size_curve(spans: dict[str, list[dict]]) -> dict:
    """Median operation time against input size, per in-process workload."""
    curve = {}
    for name, key in (("poset-validate", "points"), ("ghz-refute", "contexts"), ("ghz-checkcc", "contexts")):
        by_size: dict[int, list[float]] = {}
        for s in spans[name]:
            if s["name"] == "op":
                by_size.setdefault(s["attrs"][key], []).append((s["end"] - s["start"]) * 1000)
        curve[name] = {
            f"{key}={size}": round(statistics.median(ms), 3) for size, ms in sorted(by_size.items())
        }
    return curve


def environment(seed: int) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def oracle_survivors() -> list[int]:
    """Surviving profiles per family in ``gen.FAMILIES`` order, counted
    once here so that no worker's set-up pays for the oracle."""
    counts = gen.survivor_counts()
    refuted = sum(1 for n in counts.values() if n == 0)
    if refuted != FIXED["refuted_families"]:
        raise BenchError(f"the refutation oracle refutes {refuted} families")
    return [counts[frozenset(fam)] for fam in gen.FAMILIES]


def require_checkout() -> None:
    missing = [
        p
        for p in ("src/bstghz/__init__.py", "fixtures/ghz_model.json", "fixtures/toy_decay.json")
        if not (ROOT / p).is_file()
    ]
    if missing:
        raise BenchError(f"not a bstghz checkout, missing: {', '.join(missing)}")


def print_table(workload: str, result: dict) -> None:
    for name, (value, unit) in result["metrics"].items():
        print(f"{workload:15} {name:36} {value:14.6g} {unit}")
    rate = result["error_rate"]
    print(f"{workload:15} {'error_rate':36} {rate:14.6g} ratio ({result['failed']} of {result['attempted']})")
    if "samples" in result:
        print(f"{workload:15} {'samples':36} {result['samples']:14d} count")
        for name, value in result["wall"].items():
            print(f"{workload:15} {'wall.' + name:36} {value:14.6g} (unscaled)")
        print(f"{workload:15} {'machine_speed':36} {result['speed']:14.6g} (of the reference speed)")
    for error in result["errors"]:
        print(f"{workload:15} failure: {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_checkout()
        survivors = oracle_survivors()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            run = trace_run if args.trace else timed_run
            results[name] = run(name, args.seed, args.seconds, survivors)
            print_table(name, results[name])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        out = ROOT / OUT_DIR
        out.mkdir(exist_ok=True)
        for name, result in results.items():
            curve = size_curve(result["spans"])
            print(f"{name:15} cost against size (median ms per op): {json.dumps(curve)}")
            path = out / f"trace-{name}-seed{args.seed}.json"
            path.write_text(json.dumps({"env": env, "size_curve": curve, "spans": result["spans"]}))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    prefix = len(results) > 1
    metrics = {
        (f"{name}.{metric}" if prefix else metric): {"value": value, "unit": unit}
        for name, result in results.items()
        for metric, (value, unit) in result["metrics"].items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
