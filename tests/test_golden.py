"""The CLI reproduces its recorded transcript byte for byte.

``tests/golden/cli.json`` holds argv, exit code, stdout and stderr of
each command, recorded by ``scripts/write_fixtures.py`` from the
repository root.  A refactor that keeps behaviour keeps this file as it
is; an intended change to the output regenerates it.  The ``check-cc``
search on both fixtures, a failing single-vector check, the three
rejected ``check-cc`` vectors (too short, a foreign term, a consistent
one), the traced refutations (the eight-context family and
xxy,xyx,yxx,yyy in JSON), the JSON oracle report, the built GHZ document
in both formats and the two sign assignment searches are replayed under
``python -O`` as well, stderr included.

``tests/golden/traces.json`` pins every refutation: one SHA-256 per
nonempty context family, listed in ``ALL_CONTEXTS`` order and reversed,
over the result's contexts, survivor flags, trace and notes.  It was
recorded once with ``trace_digests()`` and is not regenerated: a change
to the engine must reproduce every trace byte for byte.
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bstghz.cli import main
from bstghz.ghz import (
    ALL_CONTEXTS,
    build_abstract_structure,
    context_label,
    parse_context,
    refute_joint_common_cause,
)

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
    *(
        [
            "check-cc",
            "fixtures/ghz_model.json",
            "--spread",
            "sigma_1",
            "--nspread",
            "Sigma_xxy",
            "--vector",
            vector,
        ]
        for vector in ("x+1,x+2", "x+1,x+2,x+3", "x+1,x+2,y+3")
    ),
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
    ["ghz", "build"],
    ["--format", "json", "ghz", "build"],
    ["ghz", "contextual"],
    ["ghz", "values"],
    ["--format", "json", "ghz", "values"],
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
    assert (out.returncode, out.stdout, out.stderr) == (
        entry["code"],
        entry["stdout"],
        entry["stderr"],
    )


def family_digest(structure, listing):
    """SHA-256 of one family's refutation as listed: its contexts, the
    flags of each survivor, the trace's steps and completeness, and the
    notes."""
    result = refute_joint_common_cause(structure, listing)
    trace = result.trace
    record = [
        [context_label(ctx) for ctx in result.contexts],
        ["".join("01"[f] for f in p.flags) for p in result.survivors],
        None
        if trace is None
        else [
            [(s.rule, s.context, s.detail, s.conclusion) for s in trace.steps],
            trace.complete,
        ],
        list(result.notes),
    ]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def trace_digests():
    """Each nonempty family's digest, forward then reversed, keyed by its
    listing (``xxx,xxy``)."""
    structure = build_abstract_structure()
    return {
        ",".join(map(context_label, listing)): family_digest(
            structure, listing
        )
        for r in range(1, len(ALL_CONTEXTS) + 1)
        for fam in itertools.combinations(ALL_CONTEXTS, r)
        for listing in (fam, fam[::-1])
    }


def test_every_family_replays_its_recorded_trace():
    recorded = json.loads(
        (ROOT / "tests" / "golden" / "traces.json").read_text(encoding="utf-8")
    )
    assert len(recorded) == 2 * 255 - len(ALL_CONTEXTS)
    structure = build_abstract_structure()
    for key, digest in recorded.items():
        listing = [parse_context(label) for label in key.split(",")]
        got = family_digest(structure, listing)
        assert got == digest, f"first family that differs: {key}"
