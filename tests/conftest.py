from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest
from hypothesis import strategies as st

from bstghz.common_cause import build_toy_decay
from bstghz.ghz import build_concrete_model
from bstghz.model import build_model


@pytest.fixture(scope="session")
def ghz():
    """(model, structure) for the concrete 53-point realization."""
    return build_concrete_model()


@pytest.fixture(scope="session")
def ghz_model(ghz):
    return ghz[0]


@pytest.fixture(scope="session")
def ghz_structure(ghz):
    return ghz[1]


@pytest.fixture(scope="session")
def toy():
    return build_toy_decay()


def _script(name: str):
    """``scripts/<name>.py`` loaded as a module."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def scale_grade():
    """``scripts/scale_grade.py`` as a module, for its width models."""
    return _script("scale_grade")


@pytest.fixture(scope="session")
def scale_order():
    """``scripts/scale_order.py`` as a module, for its layered orders."""
    return _script("scale_order")


@st.composite
def causal_models(draw, max_points: int = 7):
    """Random finite models: forward edges over an indexed point list."""
    n = draw(st.integers(min_value=1, max_value=max_points))
    names = [f"p{i}" for i in range(n)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs.append((names[i], names[j]))
    return build_model(names, pairs)
