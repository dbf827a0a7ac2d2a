"""The package runs on the standard library alone.

numpy is a test extra (the float cross-check in ``tests/oracles.py``);
nothing a user runs may import it.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "bstghz"
NUMPY_IMPORT = re.compile(r"^\s*(import|from)\s+numpy\b", re.MULTILINE)
IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+\d+ \|\s+(\S+)$")


def python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []
    assert "numpy" in project["optional-dependencies"]["test"]


def test_source_has_no_numpy_import():
    offenders = [
        path.name
        for path in sorted(SOURCE.glob("*.py"))
        if NUMPY_IMPORT.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_import_leaves_numpy_unloaded():
    proc = python(
        "-c", "import sys, bstghz; print('numpy' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("context", [[], ["--context", "xyy"]])
def test_oracle_command_never_imports_numpy(fmt, context):
    proc = python(
        "-X", "importtime", "-m", "bstghz",
        "--format", fmt, "ghz", "oracle", *context,
    )
    assert proc.returncode == 0, proc.stderr
    assert "eigenvalue" in proc.stdout or '"eigenvalues"' in proc.stdout
    modules = [
        found.group(1)
        for found in map(IMPORT_LINE.match, proc.stderr.splitlines())
        if found
    ]
    assert "bstghz.quantum" in modules
    assert [m for m in modules if m.split(".")[0] == "numpy"] == []
