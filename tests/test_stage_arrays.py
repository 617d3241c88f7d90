"""Property tests of the stage-array cost contract: eval and gradient on an
array of stage indices, and eval on the grid oracle's broadcast shape,
against one call per stage or per point."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from prhc.costs import NonConvexCost, QuadraticCost, SetDistanceCost  # noqa: E402

ULPS = 4  # SetDistanceCost's batched distance may round a few ulps apart
EPS = np.finfo(float).eps


def pd_stack(rng, L, d):
    """L positive-definite d x d matrices with a skew part, which the model drops."""
    M = rng.normal(size=(L, d, d))
    skew = rng.normal(size=(L, d, d))
    return M @ M.transpose(0, 2, 1) + 0.1 * np.eye(d) + skew - skew.transpose(0, 2, 1)


@st.composite
def models(draw):
    kind = draw(st.sampled_from(["quadratic", "nonconvex", "set_distance"]))
    n = draw(st.integers(2 if kind == "nonconvex" else 1, 5))
    m = draw(st.integers(1, 3))
    L = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if kind == "quadratic":
        costs = QuadraticCost(pd_stack(rng, L, n), pd_stack(rng, L, m))
    elif kind == "nonconvex":
        costs = NonConvexCost(b=rng.uniform(-1.0, 1.0))
    else:
        costs = SetDistanceCost(rng.uniform(0.0, 1.0, L), center=rng.uniform(-1.0, 1.0, n),
                                radius=rng.uniform(0.1, 2.0))
    return costs, n, m, L, rng


def states(rng, costs, n, size):
    """Draws of x; for SetDistanceCost, at up to twice the radius from the
    center, so about half of them lie inside the ball."""
    if isinstance(costs, SetDistanceCost):
        d = rng.normal(size=(size, n))
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        return costs.center + d * costs.radius * rng.uniform(0.0, 2.0, (size, 1))
    return rng.uniform(-3.0, 3.0, (size, n))


def assert_same(costs, x, got, ref):
    """Bit for bit, except a few ulps of the distance for SetDistanceCost."""
    assert got.shape == ref.shape
    if isinstance(costs, SetDistanceCost):
        scale = 1.0 + float(np.max(np.linalg.norm(x - costs.center, axis=-1)))
        np.testing.assert_allclose(got, ref, rtol=ULPS * EPS, atol=ULPS * EPS * scale**2)
    else:
        assert got.tobytes() == ref.tobytes()


@settings(derandomize=True, deadline=None, max_examples=150)
@given(models(), st.integers(1, 20))
def test_stage_array_equals_per_stage_calls(model, size):
    costs, n, m, L, rng = model
    t = rng.integers(0, L, size)  # unsorted, with repeats
    x = states(rng, costs, n, size)
    u = rng.uniform(-3.0, 3.0, (size, m))
    c = costs.eval(t, x, u)
    gx, gu = costs.gradient(t, x, u)
    single = [(costs.eval(int(t[k]), x[k], u[k]), costs.gradient(int(t[k]), x[k], u[k]))
              for k in range(size)]
    assert_same(costs, x, c, np.array([s[0] for s in single]))
    assert_same(costs, x, gx, np.array([s[1][0] for s in single]))
    assert_same(costs, x, gu, np.array([s[1][1] for s in single]))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(models(), st.integers(1, 6), st.integers(1, 6))
def test_grid_shape_equals_per_point_calls(model, rows, cols):
    # the brute-force grid oracle costs every (state, input) pair of a stage
    costs, n, m, L, rng = model
    t = int(rng.integers(0, L))
    x = states(rng, costs, n, rows)
    u = rng.uniform(-3.0, 3.0, (cols, m))
    grid = costs.eval(t, x[:, None, :], u[None, :, :])
    ref = np.array([[costs.eval(t, x[i], u[j]) for j in range(cols)] for i in range(rows)])
    assert_same(costs, x, grid, ref)
