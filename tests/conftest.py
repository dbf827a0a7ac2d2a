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


@pytest.fixture(scope="session")
def scale_grade():
    """``scripts/scale_grade.py`` as a module, for its width models."""
    root = Path(__file__).resolve().parent.parent
    path = root / "scripts" / "scale_grade.py"
    spec = importlib.util.spec_from_file_location("scale_grade", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
