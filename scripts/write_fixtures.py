#!/usr/bin/env python3
"""Regenerate the JSON documents shipped under fixtures/ and the golden
CLI transcript under tests/golden/.

The transcript records argv, exit code, stdout and stderr of each
command in ``GOLDEN_COMMANDS``, run in process from the repository root.
``tests/test_golden.py`` replays it; regenerate it only when a change to
the CLI's output is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

from bstghz.cli import main as cli_main
from bstghz.common_cause import toy_decay_document
from bstghz.document import ModelDocument, SpreadDoc, dump_document
from bstghz.ghz import ghz_document

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = ROOT / "tests" / "golden"

# Two stations a and b fed by a source d, as in the toy decay, with
# two-point initials and outcomes.  Sigma_ab is a valid, space-like and
# 1-consistent n-spread; bad_i, bad_ii and bad_iii fail spread conditions
# (i), (ii) and (iii); X is neither an initial nor an outcome event.
SPREADS_DOCUMENT = ModelDocument(
    points=(
        "a", "a0", "am", "am2", "ap", "ap2",
        "b", "b0", "bm", "bm2", "bp", "bp2",
        "d", "d0", "dm", "dp", "m1", "m2",
    ),
    order=(
        ("d0", "d"), ("d", "dm"), ("d", "dp"),
        ("a0", "a"), ("a", "am"), ("a", "ap"), ("am", "am2"), ("ap", "ap2"),
        ("b0", "b"), ("b", "bm"), ("b", "bp"), ("bm", "bm2"), ("bp", "bp2"),
        ("dp", "ap"), ("dp", "bm"), ("dm", "am"), ("dm", "bp"),
        ("ap2", "m1"), ("bm2", "m1"), ("am2", "m2"), ("bp2", "m2"),
    ),
    events={
        "A": ("a0", "a"),
        "Am": ("am", "am2"),
        "Ap": ("ap", "ap2"),
        "B": ("b0", "b"),
        "Bm": ("bm", "bm2"),
        "Bp": ("bp", "bp2"),
        "D": ("d0", "d"),
        "Dm": ("dm",),
        "Dp": ("dp",),
        "DpBm": ("dp", "bm"),
        "X": ("am", "bm"),
    },
    spreads={
        "bad_i": SpreadDoc("A", ("Am", "DpBm")),
        "bad_ii": SpreadDoc("D", ("Am",)),
        "bad_iii": SpreadDoc("D", ("Am", "Dm", "Ap")),
        "bad_initial": SpreadDoc("X", ("Am",)),
        "bad_outcome": SpreadDoc("D", ("X", "Ap")),
        "sigma_a": SpreadDoc("A", ("Am", "Ap")),
        "sigma_b": SpreadDoc("B", ("Bm", "Bp")),
        "sigma_d": SpreadDoc("D", ("Dm", "Dp")),
    },
    nspreads={
        "Sigma_ab": ("sigma_a", "sigma_b"),
        "Sigma_bad": ("sigma_a", "bad_i"),
    },
)

_GHZ = "fixtures/ghz_model.json"
_TOY = "fixtures/toy_decay.json"
_SPREADS = "tests/golden/spreads.json"
_THEOREM = "xxx,xxy,xyy,xyx"


def _both_formats(*argv: str) -> list[list[str]]:
    return [list(argv), ["--format", "json", *argv]]


GOLDEN_COMMANDS: list[list[str]] = [
    *(
        cmd
        for path in (_TOY, _GHZ, _SPREADS)
        for sub in ("validate", "histories")
        for cmd in _both_formats(sub, path)
    ),
    *_both_formats(
        "check-cc", _TOY, "--spread", "sigma_d", "--nspread", "Sigma_ab",
        "--vector", "a-,b-",
    ),
    *_both_formats(
        "check-cc", _TOY, "--spread", "sigma_a", "--nspread", "Sigma_ab",
        "--vector", "a+,b+",
    ),
    *_both_formats("check-cc", _TOY, "--search", "--nspread", "Sigma_ab"),
    *_both_formats(
        "check-cc", _GHZ, "--spread", "sigma_1", "--nspread", "Sigma_xxy",
        "--vector", "x+1,x+2,y-3",
    ),
    # a short vector, a foreign term, a consistent vector: exit 2 each
    *(
        [
            "check-cc", _GHZ, "--spread", "sigma_1", "--nspread", "Sigma_xxy",
            "--vector", vector,
        ]
        for vector in ("x+1,x+2", "x+1,x+2,x+3", "x+1,x+2,y+3")
    ),
    *_both_formats(
        "check-cc", _GHZ, "--search", "--nspread", "Sigma_xxx,Sigma_xxy",
    ),
    *_both_formats(
        "check-cc", _SPREADS, "--spread", "sigma_a", "--nspread", "Sigma_ab",
        "--vector", "Am,Bm",
    ),
    *_both_formats(
        "check-cc", _SPREADS, "--spread", "sigma_d", "--nspread", "Sigma_ab",
        "--vector", "Ap,Bp",
    ),
    *_both_formats("check-cc", _SPREADS, "--search", "--nspread", "Sigma_ab"),
    [
        "check-cc", _SPREADS, "--spread", "bad_i", "--nspread", "Sigma_ab",
        "--vector", "Am,Bm",
    ],
    [
        "check-cc", _SPREADS, "--spread", "sigma_d", "--nspread",
        "Sigma_bad", "--vector", "Am,Am",
    ],
    ["check-cc", _SPREADS, "--search", "--nspread", "Sigma_bad"],
    *_both_formats("ghz", "build"),
    *_both_formats("ghz", "refute", "--contexts", _THEOREM),
    ["ghz", "refute", "--contexts", _THEOREM, "--trace"],
    ["ghz", "refute", "--contexts", "xyy,yxy,yyx,xxx", "--trace"],
    [
        "--format", "json", "ghz", "refute", "--contexts", "xxy,xyx,yxx,yyy",
        "--trace",
    ],
    *_both_formats("ghz", "refute", "--contexts", "xxx,yyy", "--trace"),
    *_both_formats("ghz", "refute", "--contexts", "xxx"),
    ["ghz", "refute", "--contexts", "yyy,xxx,yyy"],
    [
        "--format", "json", "ghz", "refute", "--contexts",
        "xxx,xxy,xyx,xyy,yxx,yxy,yyx,yyy", "--trace",
    ],
    *_both_formats("ghz", "values"),
    *_both_formats("ghz", "contextual"),
    *_both_formats("ghz", "oracle"),
    *_both_formats("ghz", "oracle", "--context", "xyx"),
]


def run_cli(argv: list[str]) -> dict[str, object]:
    """One transcript entry: argv, exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return {
        "argv": argv,
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    GOLDEN.mkdir(exist_ok=True)
    for path, doc in (
        (FIXTURES / "ghz_model.json", ghz_document()),
        (FIXTURES / "toy_decay.json", toy_decay_document()),
        (GOLDEN / "spreads.json", SPREADS_DOCUMENT),
    ):
        path.write_text(dump_document(doc), encoding="utf-8")
        print(f"wrote {path}")
    os.chdir(ROOT)
    transcript = [run_cli(argv) for argv in GOLDEN_COMMANDS]
    path = GOLDEN / "cli.json"
    path.write_text(
        json.dumps(transcript, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
