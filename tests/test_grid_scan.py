"""Property test: the stage-by-stage grid scan against plain enumeration."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from prhc import harness  # noqa: E402
from prhc.costs import total_cost  # noqa: E402
from prhc.harness import COST_KINDS, ScenarioConfig, gen_scenario  # noqa: E402
from prhc.linsys import LinearSystem, rollout  # noqa: E402

MAX_POINTS = 800   # keeps the reference enumeration quick


def enumerated_cost(sc, point) -> float:
    u = np.asarray(point, dtype=float).reshape(sc.T, sc.sys.m)
    return total_cost(rollout(sc.sys, sc.x1, u, sc.w_full), sc.costs)


@st.composite
def instances(draw):
    kind = draw(st.sampled_from(COST_KINDS))
    n = 2 if kind == "nonconvex" else draw(st.sampled_from([1, 2]))
    m = draw(st.sampled_from([1, 2]))
    T = draw(st.sampled_from([1, 2, 3]))
    seed = draw(st.integers(0, 2**16))
    axes = []
    budget = MAX_POINTS
    for _ in range(T * m):
        top = max(2, min(6, budget // 2 ** (T * m - len(axes) - 1)))
        size = draw(st.integers(2, top))
        budget //= size
        values = draw(st.lists(st.floats(-2.0, 2.0), min_size=size,
                               max_size=size, unique=True))
        axes.append(np.array(values))
    chunk = draw(st.sampled_from([None, 1, 5, 64]))
    sc = gen_scenario(seed, ScenarioConfig(cost_kind=kind, n=n, m=m, T=T, N=T))
    # the family's B is all ones, which hides any mix-up of input columns
    B = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, m))
    sc = dataclasses.replace(sc, sys=LinearSystem(A=sc.sys.A, B=B))
    return sc, axes, chunk


@settings(derandomize=True, deadline=None, max_examples=60)
@given(instances())
def test_scan_matches_enumeration(instance):
    sc, axes, chunk = instance
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(harness, "EVAL_CHUNK", chunk)
        J, u = harness._grid_scan(sc, axes)
    J_ref = min(enumerated_cost(sc, p) for p in itertools.product(*axes))
    assert math.isclose(J, J_ref, rel_tol=1e-12)
    assert u.shape == (len(axes),)
    assert all(u[j] in axes[j] for j in range(len(axes)))
    assert math.isclose(enumerated_cost(sc, u), J_ref, rel_tol=1e-12)
