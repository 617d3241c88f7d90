"""The names the benchmark in `perfbench/` reads from prhc still resolve,
and every workload passes its own checks at its smoke sizes.

The benchmark's tracer and workloads are loaded from their files, as the
benchmark loads them, so deleting or renaming a traced function, or changing
a call a workload makes or an output it checks, fails here instead of making
every benchmark run fail.
"""

import dataclasses
import hashlib
import importlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

from prhc.harness import Scenario, ScenarioConfig
from prhc.linsys import StackedDynamics
from prhc.policy import RunResult
from prhc.solver import HorizonSolution

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


SPANNED = load_perfbench("tracing").SPANNED
WORKLOADS = load_perfbench("workloads").WORKLOADS


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
    (StackedDynamics, ("F", "G", "H")),
])
def test_fields_read_by_the_benchmark_exist(cls, names):
    fields = {f.name for f in dataclasses.fields(cls)}
    assert set(names) <= fields


def smoke_pass(wl, scenarios):
    """One pass as the benchmark times it: run and check every task, then
    summarize; (payload digest, cost total, problems)."""
    outputs, problems = [], []
    for sc in scenarios:
        out = wl.run(sc, wl.smoke)
        problems += wl.check(sc, out, wl.smoke)
        outputs.append(out)
    payload, cost, pass_problems = wl.summarize(scenarios, outputs, wl.smoke)
    return hashlib.sha256(payload).hexdigest(), cost, problems + pass_problems


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_its_checks_at_smoke_size(name):
    wl = WORKLOADS[name]
    scenarios = wl.build(0, wl.smoke)
    digest, cost, problems = smoke_pass(wl, scenarios)
    assert problems == []
    assert math.isfinite(cost)
    assert smoke_pass(wl, scenarios) == (digest, cost, [])
