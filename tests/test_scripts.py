"""The scripts under scripts/ run end to end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def run_refutation(*args):
    return run_script("run_refutation.py", *args)


def test_run_refutation_walkthrough():
    proc = run_refutation()
    assert proc.returncode == 0, proc.stderr
    assert "refutation: 0 of 4096 profiles survive" in proc.stdout
    assert (
        "  6. [contradiction xyy] the candidate outcome is inconsistent with "
        "both y-2 and y+2, although consistency with y2 requires one of them"
    ) in proc.stdout.splitlines()


def test_run_refutation_prints_a_case_split_trace():
    proc = run_refutation("--contexts", "xyy,yxy,yyx,xxx")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "refutation: 0 of 4096 profiles survive" in lines
    assert (
        "  2. [case-split yxy] suppose the candidate outcome is "
        "inconsistent with y-1"
    ) in lines
    assert any(line.startswith("  14. [contradiction ") for line in lines)


@pytest.mark.parametrize(
    "contexts, message",
    [
        ("xxz", "not an axis context: 'xxz'"),
        (",", "--contexts needs at least one context"),
    ],
)
def test_run_refutation_rejects_a_bad_label(contexts, message):
    proc = run_refutation("--contexts", contexts)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: BadFlag: {message}")
    assert "Traceback" not in proc.stderr


def test_scale_order_prints_one_json_line_per_size():
    proc = run_script("scale_order.py", "16")
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    row = json.loads(line)
    assert (row["points"], row["histories"], row["branching"]) == (261, 16, 52)
    assert row["prior_choice"] == "pass"
    for layer in ("build_model", "history_bits", "prior_choice", "density"):
        assert row[f"{layer}_s"] >= 0


def test_scale_refute_prints_one_json_line_per_family_size():
    proc = run_script("scale_refute.py", "1")
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [row["contexts"] for row in rows] == list(range(1, 9))
    assert [row["families"] for row in rows] == [8, 28, 56, 70, 56, 28, 8, 1]
    assert [row["refuted"] for row in rows] == [0, 0, 0, 8, 32, 24, 8, 1]
    for row in rows:
        for kind, present in (
            ("refuted", row["refuted"] > 0),
            ("surviving", row["refuted"] < row["families"]),
        ):
            ms = row[f"{kind}_ms"]
            assert (ms >= 0) if present else (ms is None)
        assert row["first_ms"] >= 0
        assert row["survivors_ms"] >= 0
        assert row["readout_ms"] >= 0
        derivation = row["derivation_ms"]
        assert (derivation >= 0) if row["refuted"] else (derivation is None)


def test_scale_grade_prints_one_json_line_per_width():
    proc = run_script("scale_grade.py", "1", "1", "2", "5", "17")
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [row["width"] for row in rows] == [1, 2, 5, 17]
    assert [row["points"] for row in rows] == [7, 10, 19, 55]
    assert {row["histories"] for row in rows} == {3}
    assert [row["vector_count"] for row in rows] == [2, 4, 32, 2**17]
    assert [row["inconsistent"] for row in rows] == [0, 1, 29, 2**17 - 3]
    assert all(row["search_ms"] >= 0 for row in rows)
    # the grade lists no vector, so it is timed at every width
    assert all(row["grade_ms"] >= 0 for row in rows)
    # width 1 has no inconsistent vector to check
    assert rows[0]["check_ms"] is None
    assert all(row["check_ms"] >= 0 for row in rows[1:])


def test_scale_start_prints_one_json_line_per_command():
    proc = run_script("scale_start.py", "2")
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [row["command"] for row in rows] == [
        "python -c pass", "validate", "check-cc --search", "ghz refute",
    ]
    assert {row["checkout"] for row in rows} == {str(ROOT)}
    # the processes inherit the environment, so they cache bytecode unless
    # PYTHONDONTWRITEBYTECODE is set
    cache = not os.environ.get("PYTHONDONTWRITEBYTECODE")
    for row in rows:
        assert (row["runs"], row["exit"], row["stable"]) == (2, 0, True)
        assert row["bytecode_cache"] is cache
        assert 0 < row["q1_ms"] <= row["median_ms"] <= row["q3_ms"]
        assert len(row["output_sha256"]) == 64
