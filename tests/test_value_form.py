"""Property test: the factored window value form against the dense formula."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from prhc.costs import QuadraticCost, _value_form  # noqa: E402
from prhc.linsys import LinearSystem, stack_dynamics  # noqa: E402


def dense_value_form(sd, costs, t0):
    """S'(Qbar - GtQ' normal^-1 GtQ) S with S = [F, H] and dense stage weights."""
    n, m, N = sd.n, sd.m, sd.N
    Qbar = np.zeros((n * N, n * N))
    Rbar = np.zeros((m * N, m * N))
    for k in range(N):
        Qbar[k * n:(k + 1) * n, k * n:(k + 1) * n] = costs.Q_seq[t0 + k]
        Rbar[k * m:(k + 1) * m, k * m:(k + 1) * m] = costs.R_seq[t0 + k]
    GtQ = sd.G.T @ Qbar
    normal = GtQ @ sd.G + Rbar
    S = np.hstack([sd.F, sd.H])
    return S.T @ (Qbar - GtQ.T @ np.linalg.solve(normal, GtQ)) @ S


def pd_stack(rng, L, d):
    """L non-diagonal positive-definite d x d matrices."""
    M = rng.normal(size=(L, d, d))
    return M @ M.transpose(0, 2, 1) + 0.1 * np.eye(d)


@st.composite
def windows(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 2))
    N = draw(st.integers(1, 8))
    L = N + draw(st.integers(0, 3))
    t0 = draw(st.integers(0, L - 1))  # past L - N the window is a tail, h < N
    rho = draw(st.sampled_from([0.5, 0.95, 0.99, 1.0, 1.01]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    A = rng.normal(size=(n, n))
    A *= rho / np.max(np.abs(np.linalg.eigvals(A)))
    sys = LinearSystem(A=A, B=rng.normal(size=(n, m)))
    costs = QuadraticCost(pd_stack(rng, L, n), pd_stack(rng, L, m))
    return sys, costs, N, t0, min(N, L - t0)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(windows())
def test_factored_form_matches_dense_formula(window):
    sys, costs, N, t0, h = window
    stack_dynamics(sys, N)  # a tail window is then served from this stack
    P = _value_form(stack_dynamics(sys, h), costs, t0)
    ref = dense_value_form(stack_dynamics(LinearSystem(A=sys.A, B=sys.B), h), costs, t0)
    assert P.shape == ref.shape == (sys.n * (h + 1),) * 2
    np.testing.assert_array_equal(P, P.T)
    assert np.max(np.abs(P - ref)) <= 1e-9 * np.max(np.abs(ref))
