"""The CLI reproduces its recorded transcript byte for byte.

``tests/golden/cli.json`` holds argv, exit code, stdout and stderr of
each command, recorded by ``scripts/write_fixtures.py`` from the
repository root.  A refactor that keeps behaviour keeps this file as it
is; an intended change to the output regenerates it.  The ``check-cc``
search on both fixtures, a failing single-vector check, the traced
refutations (the eight-context family and xxy,xyx,yxx,yyy in JSON) and
the JSON oracle report are replayed under ``python -O`` as well.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bstghz.cli import main

ROOT = Path(__file__).resolve().parent.parent
TRANSCRIPT = json.loads(
    (ROOT / "tests" / "golden" / "cli.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize(
    "entry", TRANSCRIPT, ids=[" ".join(e["argv"]) for e in TRANSCRIPT]
)
def test_cli_matches_the_transcript(entry, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code = main(list(entry["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        entry["code"],
        entry["stdout"],
        entry["stderr"],
    )


OPTIMIZED = [
    ["check-cc", "fixtures/toy_decay.json", "--search", "--nspread", "Sigma_ab"],
    [
        "check-cc",
        "fixtures/ghz_model.json",
        "--search",
        "--nspread",
        "Sigma_xxx,Sigma_xxy",
    ],
    [
        "check-cc",
        "fixtures/ghz_model.json",
        "--spread",
        "sigma_1",
        "--nspread",
        "Sigma_xxy",
        "--vector",
        "x+1,x+2,y-3",
    ],
    ["ghz", "refute", "--contexts", "xxx,xxy,xyy,xyx", "--trace"],
    ["ghz", "refute", "--contexts", "xyy,yxy,yyx,xxx", "--trace"],
    [
        "--format",
        "json",
        "ghz",
        "refute",
        "--contexts",
        "xxy,xyx,yxx,yyy",
        "--trace",
    ],
    ["ghz", "refute", "--contexts", "xxx,yyy", "--trace"],
    [
        "--format",
        "json",
        "ghz",
        "refute",
        "--contexts",
        "xxx,xxy,xyx,xyy,yxx,yxy,yyx,yyy",
        "--trace",
    ],
    ["--format", "json", "ghz", "oracle"],
]


@pytest.mark.parametrize("argv", OPTIMIZED, ids=" ".join)
def test_cli_matches_the_transcript_under_optimize(argv):
    # with asserts stripped, the engines must still report as recorded
    entry = next(e for e in TRANSCRIPT if e["argv"] == argv)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-O", "-m", "bstghz", *argv],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=60,
    )
    assert (out.returncode, out.stdout) == (entry["code"], entry["stdout"])
