"""The names the benchmark tracer hooks still exist where it looks for them.

perfbench/tracer.py instruments riskdiv from outside the package by name.  A
rename under src/ would otherwise surface only as a "tracer could not hook"
problem in a traced benchmark run.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("layer,module,attr", load_tracer().TRACED_FUNCTIONS)
def test_traced_function_resolves(layer, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), layer


def test_cdf_is_a_cached_property():
    from riskdiv.distributions import DiscreteLossDistribution

    assert isinstance(DiscreteLossDistribution.__dict__["cdf"], functools.cached_property)


def test_monte_carlo_hooks_exist():
    from riskdiv import montecarlo

    assert callable(montecarlo._draw_block)
    assert callable(montecarlo.ProcessPoolExecutor)
