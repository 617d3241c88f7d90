"""The names the benchmark in `perfbench/` reads from prhc still resolve.

The benchmark's tracer is loaded from its file, as the benchmark loads it,
so deleting or renaming a traced function fails here instead of making every
benchmark run fail.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from prhc.harness import Scenario, ScenarioConfig
from prhc.policy import RunResult
from prhc.solver import HorizonSolution

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANNED = load_tracing().SPANNED


@pytest.mark.parametrize("layer,fn", [(layer, fn) for layer, fns in SPANNED.items()
                                      for fn in fns])
def test_spanned_function_resolves(layer, fn):
    assert callable(getattr(importlib.import_module(f"prhc.{layer}"), fn))


def test_worker_count_resolves():
    assert callable(importlib.import_module("prhc.harness").worker_count)


@pytest.mark.parametrize("cls,names", [
    (HorizonSolution, ("iterations", "converged")),
    (RunResult, ("interval_solutions",)),
    (Scenario, ("seed", "cost_kind", "sys", "costs", "w_full", "x1", "T", "N",
                "policies")),
    (ScenarioConfig, ("cost_kind", "n", "m", "T", "N", "a_high")),
])
def test_fields_read_by_the_benchmark_exist(cls, names):
    fields = {f.name for f in dataclasses.fields(cls)}
    assert set(names) <= fields
