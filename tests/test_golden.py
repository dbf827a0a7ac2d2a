"""The CLI reproduces its recorded transcript byte for byte.

``tests/golden/cli.json`` holds argv, exit code, stdout and stderr of
each command, recorded by ``scripts/write_fixtures.py`` from the
repository root.  A refactor that keeps behaviour keeps this file as it
is; an intended change to the output regenerates it.
"""

import json
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
