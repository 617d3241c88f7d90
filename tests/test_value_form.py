"""Property tests of the exact quadratic envelope: the window value form built
from backward Lyapunov sums against the dense formula, and the screened
envelope against an unscreened per-window eigenvalue reference."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from prhc import costs as costs_mod  # noqa: E402
from prhc.costs import QuadraticCost, _value_form, estimate_gamma_alpha_upper  # noqa: E402
from prhc.harness import ScenarioConfig, gen_scenario  # noqa: E402
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
    N = draw(st.integers(1, 16))
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
def test_value_form_matches_dense_formula(window):
    sys, costs, N, t0, h = window
    stack_dynamics(sys, N)  # a tail window is then served from this stack
    P = _value_form(sys, stack_dynamics(sys, h), costs, t0)
    ref = dense_value_form(stack_dynamics(LinearSystem(A=sys.A, B=sys.B), h), costs, t0)
    assert P.shape == ref.shape == (sys.n * (h + 1),) * 2
    np.testing.assert_array_equal(P, P.T)
    assert np.max(np.abs(P - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_value_form_matches_dense_formula_at_benchmark_size():
    # the quadratic_scale scenario size, on a seed whose A has spectral radius
    # above 1, so the Lyapunov sums over 48 stages grow along the window
    sc = gen_scenario(1, ScenarioConfig(cost_kind="quadratic", n=8, m=1, T=192,
                                        N=48, a_high=0.25))
    assert np.max(np.abs(np.linalg.eigvals(sc.sys.A))) >= 1.0
    for t0 in (0, 97, 144, 170, 191):  # full windows, then tails of 22 and 1 steps
        h = min(sc.N, sc.T - t0)
        P = _value_form(sc.sys, stack_dynamics(sc.sys, h), sc.costs, t0)
        ref = dense_value_form(stack_dynamics(sc.sys, h), sc.costs, t0)
        np.testing.assert_array_equal(P, P.T)
        assert np.max(np.abs(P - ref)) <= 1e-9 * np.max(np.abs(ref))


def window_gains(sys, costs, N):
    """Per window start, lambda_max of the x- and w-blocks of the value form,
    each plus the cross-term norm, from eigvalsh on every block."""
    n = sys.n
    gains = []
    for t0 in range(costs.length):
        h = min(N, costs.length - t0)
        P = _value_form(sys, stack_dynamics(sys, h), costs, t0)
        cross = float(np.linalg.norm(P[:n, n:], 2))
        lam_x = float(np.linalg.eigvalsh(P[:n, :n]).max(initial=0.0))
        lam_w = float(np.linalg.eigvalsh(P[n:n * h, n:n * h]).max(initial=0.0))
        gains.append((lam_x + cross, lam_w + cross))
    return gains


def unscreened_upper(sys, costs, N):
    gains = window_gains(sys, costs, N)
    return max(g[0] for g in gains), max(g[1] for g in gains)


@pytest.fixture
def counted_envelope(monkeypatch):
    """estimate_gamma_alpha_upper that also returns how many eigvalsh calls
    it made on w-blocks: each window start makes one on its x-block, the
    rest are on w-blocks."""
    calls = []
    real = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)

    def run(sys, costs, N):
        calls.clear()
        est = estimate_gamma_alpha_upper(sys, costs, N)
        return (est.alpha_hi, est.gamma_bar_sq), len(calls) - costs.length

    return run


@st.composite
def envelopes(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 2))
    N = draw(st.integers(1, 8))
    L = N + draw(st.integers(0, 6))  # the last N - 1 starts are tail windows
    rho = draw(st.floats(0.5, 1.01))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    A = rng.normal(size=(n, n))
    A *= rho / np.max(np.abs(np.linalg.eigvals(A)))
    sys = LinearSystem(A=A, B=rng.normal(size=(n, m)))
    return sys, QuadraticCost(pd_stack(rng, L, n), pd_stack(rng, L, m)), N


@settings(derandomize=True, deadline=None, max_examples=80)
@given(envelopes())
def test_screened_envelope_equals_unscreened_reference(case):
    sys, costs, N = case
    est = estimate_gamma_alpha_upper(sys, costs, N)
    assert (est.alpha_hi, est.gamma_bar_sq) == unscreened_upper(sys, costs, N)


def test_every_full_window_a_new_record_falls_back_to_eigvalsh(counted_envelope):
    # Q_t = (1 + t) Q0: each full window's w-gain exceeds all before it, so
    # none of them may be screened out
    rng = np.random.default_rng(4)
    n, m, N, L = 3, 2, 4, 10
    Q0, R0 = pd_stack(rng, 1, n)[0], pd_stack(rng, 1, m)[0]
    costs = QuadraticCost(np.stack([(1 + t) * Q0 for t in range(L)]),
                          np.stack([R0] * L))
    sys = LinearSystem(A=0.5 * rng.normal(size=(n, n)), B=rng.normal(size=(n, m)))
    upper, w_blocks = counted_envelope(sys, costs, N)
    assert w_blocks >= L - N + 1
    gains = [g[1] for g in window_gains(sys, costs, N)][:L - N + 1]
    assert all(b > a for a, b in zip(gains, gains[1:]))
    assert upper == unscreened_upper(sys, costs, N)


def test_tied_full_windows_fall_back_to_eigvalsh(counted_envelope):
    # time-invariant weights: every full window has the same value form, so
    # each one after the first ties the running maximum exactly
    rng = np.random.default_rng(5)
    n, m, N, L = 3, 1, 4, 12
    costs = QuadraticCost(np.stack([pd_stack(rng, 1, n)[0]] * L),
                          np.stack([pd_stack(rng, 1, m)[0]] * L))
    sys = LinearSystem(A=0.5 * rng.normal(size=(n, n)), B=rng.normal(size=(n, m)))
    upper, w_blocks = counted_envelope(sys, costs, N)
    assert w_blocks >= L - N + 1
    gains = [g[1] for g in window_gains(sys, costs, N)]
    assert len(set(gains[:L - N + 1])) == 1
    assert upper == unscreened_upper(sys, costs, N)


def test_screen_skips_most_w_block_eigvalsh(counted_envelope):
    sc = gen_scenario(0, ScenarioConfig(cost_kind="quadratic", n=4, m=1, T=96,
                                        N=24, a_high=0.5))
    upper, w_blocks = counted_envelope(sc.sys, sc.costs, sc.N)
    assert w_blocks <= sc.T // 8
    assert upper == unscreened_upper(sc.sys, sc.costs, sc.N)


def test_non_finite_value_form_names_its_window_start(monkeypatch):
    # Cholesky returns NaNs rather than raising on NaN input, so without a
    # check a poisoned window would pass the screen and drop out unseen
    sc = gen_scenario(0, ScenarioConfig(cost_kind="quadratic", n=3, m=1, T=20,
                                        N=6, a_high=0.5))
    n, bad = sc.sys.n, 7
    real = costs_mod._value_form

    def poisoned(sys, sd, costs, t0):
        P = real(sys, sd, costs, t0)
        if t0 == bad:
            P[n + 1, n + 2] = P[n + 2, n + 1] = np.nan
        return P

    monkeypatch.setattr(costs_mod, "_value_form", poisoned)
    with pytest.raises(ValueError, match=f"from start {bad} is not finite"):
        estimate_gamma_alpha_upper(sc.sys, sc.costs, sc.N)


def test_normal_matrix_without_cholesky_factor_names_its_window_start(monkeypatch):
    sc = gen_scenario(0, ScenarioConfig(cost_kind="quadratic", n=3, m=1, T=20,
                                        N=6, a_high=0.5))
    bad = 7
    real = costs_mod._condensed_qp

    def indefinite(sd, costs, t0):
        GtQ, normal = real(sd, costs, t0)
        return GtQ, -normal if t0 == bad else normal

    monkeypatch.setattr(costs_mod, "_condensed_qp", indefinite)
    with pytest.raises(ValueError, match=f"window from start {bad} is singular"):
        estimate_gamma_alpha_upper(sc.sys, sc.costs, sc.N)
