"""The package runs on the standard library alone, in two layers.

numpy is a test extra (the float cross-check in ``tests/oracles.py``);
nothing a user runs may import it.  The generic layer imports neither
the GHZ scenario, the quantum oracle nor the command line.  Each entry
point loads only the modules it uses: ``import bstghz`` loads none, and
each exported name loads its own module on first use.  No entry point
loads ``dataclasses``: the package's records are plain ``__slots__``
classes, and no module builds code from text (no ``exec``, ``eval``,
``compile`` or ``types.FunctionType``).
"""

import ast
import json
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
    of an attribute."""
    unused = []
    for path in sorted(SOURCE.glob("*.py")):
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


# -- what each entry point loads ---------------------------------------------

GHZ_FIXTURE = str(ROOT / "fixtures" / "ghz_model.json")


def loaded_modules(*args):
    """The modules a fresh ``python -X importtime *args`` imports."""
    proc = python("-X", "importtime", *args)
    assert proc.returncode in (0, 1), proc.stderr
    assert "Traceback" not in proc.stderr
    return {
        found.group(1)
        for found in map(IMPORT_LINE.match, proc.stderr.splitlines())
        if found
    }


@pytest.mark.parametrize("command", ["validate", "histories"])
def test_model_commands_load_no_scenario_and_no_fractions(command):
    modules = loaded_modules("-m", "bstghz", command, GHZ_FIXTURE)
    assert "bstghz.document" in modules
    unwanted = {
        "bstghz.ghz", "bstghz.quantum", "bstghz.common_cause", "fractions",
    }
    assert modules & unwanted == set()


def test_common_cause_search_loads_no_scenario():
    modules = loaded_modules(
        "-m", "bstghz", "check-cc", GHZ_FIXTURE,
        "--search", "--nspread", "Sigma_xxx,Sigma_xxy",
    )
    assert "bstghz.common_cause" in modules
    assert modules & {"bstghz.ghz", "bstghz.quantum"} == set()


def test_refute_loads_neither_the_oracle_nor_the_checker():
    modules = loaded_modules(
        "-m", "bstghz", "ghz", "refute",
        "--contexts", "xxx,xxy,xyy,xyx", "--trace",
    )
    assert "bstghz.ghz" in modules
    assert modules & {"bstghz.quantum", "bstghz.common_cause"} == set()


def test_bare_import_loads_no_submodule():
    modules = loaded_modules("-c", "import bstghz")
    assert "bstghz" in modules
    assert sorted(m for m in modules if m.startswith("bstghz.")) == []


@pytest.mark.parametrize(
    "touch, module",
    [
        ("refute_joint_common_cause", "bstghz.ghz"),
        ("quantum", "bstghz.quantum"),
    ],
)
def test_lazy_loads_show_under_importtime(touch, module):
    modules = loaded_modules("-c", f"import bstghz; bstghz.{touch}")
    assert module in modules


# -- records without dataclasses ---------------------------------------------

# ``dataclasses`` pulls in ``inspect`` and, through it, ``ast`` and ``dis``
HEAVY = {"dataclasses", "inspect"}
TOUCH_EVERY_EXPORT = (
    "import bstghz; [getattr(bstghz, n) for n in bstghz.__all__]"
)


def test_source_imports_no_dataclasses():
    offenders = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "dataclasses" for n in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


# builtins that run or build code from text, and the function constructor
GENERATORS = {"exec", "eval", "compile", "FunctionType"}


def generated_code(source):
    """The lines of ``source`` that call a code generator, bare or as a
    module attribute (``types.FunctionType``, ``builtins.exec``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in GENERATORS:
            found.append(node.lineno)
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in GENERATORS
            and isinstance(func.value, ast.Name)
            and func.value.id in {"types", "builtins"}
        ):
            found.append(node.lineno)
    return found


def test_records_are_built_without_generated_code():
    probe = (
        "exec('x = 1')\n"
        "eval('1')\n"
        "compile('1', '<probe>', 'eval')\n"
        "types.FunctionType(code, {})\n"
        "builtins.exec('x = 1')\n"
        "re.compile('x')\n"
        "_compile(contexts)\n"
    )
    assert generated_code(probe) == [1, 2, 3, 4, 5]
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(SOURCE.glob("*.py"))
        for line in generated_code(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


@pytest.mark.parametrize(
    "args",
    [
        ["-m", "bstghz", "validate", GHZ_FIXTURE],
        ["-m", "bstghz", "histories", GHZ_FIXTURE],
        [
            "-m", "bstghz", "check-cc", GHZ_FIXTURE,
            "--search", "--nspread", "Sigma_xxx,Sigma_xxy",
        ],
        [
            "-m", "bstghz", "ghz", "refute",
            "--contexts", "xxx,xxy,xyy,xyx", "--trace",
        ],
        ["-m", "bstghz", "ghz", "oracle"],
        ["-c", TOUCH_EVERY_EXPORT],
    ],
    ids=["validate", "histories", "check-cc", "refute", "oracle", "exports"],
)
def test_no_entry_point_loads_dataclasses(args):
    modules = loaded_modules(*args)
    assert "bstghz" in modules
    assert modules & HEAVY == set()


# -- the export surface ------------------------------------------------------

# every name the package exports, by its defining module
EXPORTS = {
    "errors": (
        "BadFlag", "BstError", "CycleDetected", "EmptyModel",
        "InvalidSpread", "MisclassifiedEvent", "NotEigenstate",
        "NotInconsistencyType", "ParseError", "PreconditionFailed",
        "SameHistory", "UnknownPoint", "UnknownReference",
    ),
    "model": (
        "CausalModel", "History", "ValidationReport", "build_model",
        "check_density", "check_infima_suprema", "check_prior_choice",
        "choice_points", "compute_histories", "is_chain",
    ),
    "events": (
        "Event", "EventClassification", "GradeReport", "NSpread",
        "OutcomeVector", "Spread", "classify_event", "consistency_grade",
        "is_consistent", "is_spacelike", "validate_spread",
    ),
    "common_cause": (
        "CommonCauseReport", "LevelReport", "atomic_spreads",
        "build_toy_decay", "check_common_cause", "classify_determinism",
        "search_common_causes", "toy_decay_document",
    ),
    "ghz": (
        "THEOREM_CONTEXTS", "CandidateProfile", "GhzVector",
        "ReductioTrace", "RefutationResult", "build_abstract_structure",
        "build_concrete_model", "contextual_assignment_search",
        "ghz_document", "nspread_name", "parity_consistent",
        "refute_joint_common_cause", "value_assignment_search",
    ),
    "quantum": (
        "DiscrepancyReport", "EigencheckResult", "ObservableSpec",
        "compare_with_stipulation", "ghz_state", "omega_eigencheck",
        "outcome_probability",
    ),
    "document": (
        "ModelDocument", "dump_document", "load_document",
        "resolve_document",
    ),
}

# prints facts rather than asserting them, so that it reports under -O too
SURFACE_PROBE = """
import importlib, json, sys
import bstghz
exports = json.loads(sys.argv[1])
out = {
    "loaded": sorted(m for m in sys.modules if m.startswith("bstghz.")),
    "parse_document": bstghz.document.parse_document
    is importlib.import_module("bstghz.document").parse_document,
}
out["mismatched"] = [
    name
    for module, names in exports.items()
    for name in names
    if getattr(bstghz, name)
    is not getattr(importlib.import_module("bstghz." + module), name)
]
star = {}
exec("from bstghz import *", star)
out["star"] = sorted(k for k in star if k != "__builtins__")
out["dir"] = dir(bstghz)
try:
    bstghz.no_such_name
except AttributeError as exc:
    out["unknown"] = str(exc)
print(json.dumps(out))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_every_export_is_its_module_attribute(flags):
    proc = python(*flags, "-c", SURFACE_PROBE, json.dumps(EXPORTS))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["loaded"] == []
    assert out["parse_document"] is True
    assert out["mismatched"] == []
    names = {n for names in EXPORTS.values() for n in names}
    assert set(out["star"]) == names | set(EXPORTS)
    assert names | set(EXPORTS) | {"__version__"} <= set(out["dir"])
    assert out["unknown"] == "module 'bstghz' has no attribute 'no_such_name'"
