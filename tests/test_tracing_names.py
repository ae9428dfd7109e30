"""The names that bench/tracing.py patches exist in the library, so a
rename fails here rather than only in a traced benchmark run."""

import importlib
import importlib.util
import inspect
import os

import pytest

from lie2coh import grp
from lie2coh.lattice import LatticeContext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "tracing", os.path.join(ROOT, "bench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _tracing()


def _module(name):
    return importlib.import_module("lie2coh." + name)


@pytest.mark.parametrize("module, function",
                         [entry[:2] for entry in TRACING.FUNCTIONS])
def test_traced_functions_exist(module, function):
    assert callable(getattr(_module(module), function, None))


@pytest.mark.parametrize("module, cls, method",
                         [entry[:3] for entry in TRACING.METHODS])
def test_traced_methods_exist(module, cls, method):
    assert callable(getattr(getattr(_module(module), cls), method, None))


def test_traced_lattice_methods_exist():
    for method in ("component_matrix", "nabla", "nabla_squared_blocks"):
        assert callable(getattr(LatticeContext, method, None)), method


def test_traced_scenarios_exist():
    assert set(TRACING.SCENARIOS) <= set(grp.SCENARIOS)


@pytest.mark.parametrize("function", TRACING.SAMPLED)
def test_sampled_checks_take_samples(function):
    assert "samples" in inspect.signature(getattr(grp, function)).parameters
