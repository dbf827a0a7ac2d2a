"""The package runs on the standard library alone, in two layers.

numpy is a test extra (the float cross-check in ``tests/oracles.py``);
nothing a user runs may import it.  The generic layer imports neither
the GHZ scenario, the quantum oracle nor the command line.
"""

import ast
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
GENERIC = ("model", "events", "document", "errors", "common_cause")
SCENARIO = {"ghz", "quantum", "cli"}


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


def package_imports(source):
    """The ``bstghz`` modules that ``source`` imports, relative or
    absolute: ``ghz`` for ``from .ghz import x``, ``from . import ghz``,
    ``from bstghz import ghz`` and ``import bstghz.ghz`` alike."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            prefix = "bstghz" if node.level else ""
            module = ".".join(filter(None, [prefix, node.module]))
            names = [module, *(f"{module}.{a.name}" for a in node.names)]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "bstghz" and len(parts) > 1:
                found.add(parts[1])
    return found


def test_generic_layer_imports_no_scenario():
    probe = (
        "import bstghz.ghz\n"
        "from bstghz import quantum\n"
        "from bstghz.cli import main\n"
        "from . import events\n"
        "from .model import build_model\n"
        "from typing import Iterable\n"
    )
    assert package_imports(probe) == {
        "ghz", "quantum", "cli", "events", "model",
    }
    offenders = {}
    for module in GENERIC:
        source = (SOURCE / f"{module}.py").read_text(encoding="utf-8")
        found = package_imports(source) & SCENARIO
        if found:
            offenders[module] = found
    assert offenders == {}


def test_source_imports_only_names_it_uses():
    """Each name a module imports is read there, as a name or as the base
    of an attribute; ``__init__`` imports only to re-export."""
    unused = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.append(f"{path.name}: {bound}")
    assert unused == []


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
