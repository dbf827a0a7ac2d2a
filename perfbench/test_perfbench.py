"""Tests of the benchmark itself: ``python -m pytest perfbench`` from the
repository root.  They check that every workload runs, that the output
checks can fail, that the result line has the promised metrics, and that
no workload runs more processes or threads at once than there are CPUs.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import OFF, Tracer, self_times  # noqa: E402
from worker import Loop, reference_pass  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SURVIVORS = gen.survivor_counts()


def make(name: str, tracer=OFF):
    return workloads.WORKLOADS[name](ROOT, 0, tracer, SURVIVORS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_once_at_its_smallest_size(name):
    wl = make(name)
    loop = Loop(wl)
    loop.warm_up()
    loop.one(0)
    assert (loop.attempted, loop.failed) == (2, 0), loop.errors


@pytest.mark.parametrize(
    "name, key, wrong",
    [
        ("ghz-checkcc", "ghz_candidates", 22),
        ("ghz-refute", "profiles", 4095),
        ("poset-validate", None, None),
        ("cli-ghz", "theorem_trace", ()),
    ],
)
def test_a_wrong_expected_value_counts_a_failure(monkeypatch, name, key, wrong):
    wl = make(name)
    if key is None:
        text, facts = wl.warm_item
        monkeypatch.setitem(facts, "histories", facts["histories"] + 1)
    else:
        monkeypatch.setitem(workloads.FIXED, key, wrong)
    loop = Loop(wl)
    loop.warm_up()
    assert (loop.attempted, loop.failed) == (1, 1)
    assert "Mismatch" in loop.errors[0]


def test_the_refutation_oracle_matches_the_paper():
    assert len(SURVIVORS) == 255
    assert sum(1 for n in SURVIVORS.values() if n == 0) == 73
    assert SURVIVORS[frozenset(gen.THEOREM_FAMILY)] == 0


def test_generated_documents_depend_only_on_the_seed():
    shape = gen.POSET_SHAPES[-1]
    first = gen.layered_document(gen.rng_for(3, "x"), shape)
    assert first == gen.layered_document(gen.rng_for(3, "x"), shape)
    assert first != gen.layered_document(gen.rng_for(4, "x"), shape)


def test_times_are_scaled_by_the_reference_passes():
    ref = run.REF_PASS_S
    part = {"latencies": [0.1, 0.1, 0.1], "refs": [ref, ref, 3 * ref, 2 * ref]}
    assert run.at_reference_speed([part], in_children=False) == pytest.approx([0.1, 0.05, 0.04])
    assert run.at_reference_speed([part], in_children=True) == pytest.approx([0.1 / 1.5] * 3)


def test_the_reference_pass_leaves_the_collector_as_it_was():
    assert gc.isenabled()
    assert reference_pass() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        reference_pass()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_self_time_subtracts_children():
    spans = [
        {"name": "op", "start": 0.0, "end": 10.0, "parent": None, "op": 0},
        {"name": "a", "start": 1.0, "end": 4.0, "parent": 0, "op": 0},
        {"name": "b", "start": 5.0, "end": 6.0, "parent": 0, "op": 0},
    ]
    assert self_times(spans) == [6.0, 3.0, 1.0]


def test_traced_counts_repeat_exactly():
    runs = []
    for _ in range(2):
        tracer = Tracer()
        wl = make("ghz-refute", tracer)
        for i in range(wl.cycle):
            tracer.op = i
            wl.run(i)
        runs.append(wl.layer_metrics(tracer.spans))
    counts = ("common_cause.profiles_scanned", "common_cause.refuted_families", "common_cause.trace_complete_ratio")
    assert [r[c] for r in runs for c in counts] == [4096 * 255, 73, 69 / 73] * 2


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )


def test_result_line_has_every_end_to_end_metric():
    proc = bench("--workload", "ghz-checkcc", "--seed", "2", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["failed"]) == (True, 0)
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(v["unit"] == units[k] and v["value"] > 0 for k, v in result["metrics"].items())
    assert "error_rate" in proc.stdout


def test_traced_run_has_every_per_layer_metric():
    proc = bench("--workload", "ghz-refute", "--seed", "2", "--seconds", "2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert result["metrics"]["common_cause.candidates"]["value"] == 21
    assert result["metrics"]["common_cause.trace_complete_ratio"]["value"] == 69 / 73


def test_refuses_to_run_outside_a_checkout(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ghz-refute", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _descendants(root_pid: int) -> dict[int, int]:
    """Live descendants of ``root_pid`` and their thread counts."""
    parent, threads = {}, {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            status = Path(f"/proc/{entry}/status").read_text()
        except OSError:
            continue
        fields = dict(line.split(":\t", 1) for line in status.splitlines() if ":\t" in line)
        parent[int(entry)] = int(fields["PPid"])
        threads[int(entry)] = int(fields["Threads"])
    found: dict[int, int] = {}
    frontier = [root_pid]
    while frontier:
        pid = frontier.pop()
        for child, ppid in parent.items():
            if ppid == pid and child not in found:
                found[child] = threads[child]
                frontier.append(child)
    return found


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_no_more_processes_or_threads_than_cpus(name):
    """The launcher waits for one worker at a time and a worker for one
    command at a time, so below the launcher at most a worker and its
    child are alive, and no process has more threads than there are CPUs."""
    nproc = os.cpu_count()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seconds", "1"],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    most_processes = most_threads = 0
    try:
        while proc.poll() is None:
            below = _descendants(proc.pid)
            most_processes = max(most_processes, len(below))
            most_threads = max([most_threads, *below.values()])
            time.sleep(0.05)
    finally:
        proc.kill()
        proc.wait(timeout=60)
    assert proc.returncode == 0
    assert 1 <= most_processes <= nproc
    assert most_threads <= nproc
