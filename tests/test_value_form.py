"""Property tests of the exact quadratic envelope: the window value form built
from backward Lyapunov sums against the dense formula, the LQR and game
sweeps against the value form, and the screened envelope against an
unscreened per-window eigenvalue reference."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from prhc import costs as costs_mod  # noqa: E402
from prhc.costs import (  # noqa: E402
    QuadraticCost,
    _value_form,
    estimate_gamma_alpha_upper,
    quadratic_value_form,
)
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


def system(rng, n, m, rho):
    A = rng.normal(size=(n, n))
    A *= rho / np.max(np.abs(np.linalg.eigvals(A)))
    return LinearSystem(A=A, B=rng.normal(size=(n, m)))


@st.composite
def windows(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 2))
    N = draw(st.integers(1, 16))
    L = N + draw(st.integers(0, 3))
    t0 = draw(st.integers(0, L - 1))  # past L - N the window is a tail, h < N
    rho = draw(st.sampled_from([0.5, 0.95, 0.99, 1.0, 1.01]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    sys = system(rng, n, m, rho)
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
    """estimate_gamma_alpha_upper that also returns the window starts whose
    value form it evaluated densely."""
    starts = []
    real = costs_mod._value_form

    def counting(sys, sd, costs, t0):
        starts.append(t0)
        return real(sys, sd, costs, t0)

    monkeypatch.setattr(costs_mod, "_value_form", counting)

    def run(sys, costs, N):
        starts.clear()
        return estimate_gamma_alpha_upper(sys, costs, N), list(starts)

    return run


@st.composite
def envelopes(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 2))
    N = draw(st.integers(1, 8))
    L = N + draw(st.integers(0, 6))  # the last N - 1 starts are tail windows
    rho = draw(st.floats(0.5, 1.2))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    sys = system(rng, n, m, rho)
    return sys, QuadraticCost(pd_stack(rng, L, n), pd_stack(rng, L, m)), N


@settings(derandomize=True, deadline=None, max_examples=80)
@given(envelopes())
def test_screened_envelope_equals_unscreened_reference(case):
    sys, costs, N = case
    assert estimate_gamma_alpha_upper(sys, costs, N) == unscreened_upper(sys, costs, N)


@st.composite
def sweep_cases(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 2))
    N = draw(st.integers(1, 12))
    L = N + draw(st.integers(0, 4))
    rho = draw(st.floats(0.5, 1.2))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    sys = system(rng, n, m, rho)
    return sys, QuadraticCost(pd_stack(rng, L, n), pd_stack(rng, L, m)), N


def growing_case():
    """A sweep case whose A has spectral radius 1.15, so the window forms
    grow along the window."""
    rng = np.random.default_rng(21)
    L, N = 14, 9
    return system(rng, 3, 2, 1.15), QuadraticCost(pd_stack(rng, L, 3), pd_stack(rng, L, 2)), N


@settings(derandomize=True, deadline=None, max_examples=60)
@given(sweep_cases())
@example(growing_case())
def test_sweeps_agree_with_the_value_form(case):
    # the LQR sweep's lambda_max(P_xx) and cross term against the value form,
    # and the game sweep's screen at levels below and above each window's
    # lambda_max(P_ww), down to 1e-7 relative: it must never certify a level
    # at or below it
    sys, costs, N = case
    n, L = sys.n, costs.length
    starts = np.arange(L)
    lam_x, cross = costs_mod._lqr_sweep(sys, costs, N)
    lam_w = np.empty(L)
    for t0 in starts:
        h = min(N, L - t0)
        P = quadratic_value_form(sys, costs, t0, h)
        ref_x = np.linalg.eigvalsh(P[:n, :n]).max()
        ref_cross = np.linalg.norm(P[:n, n:], 2)
        assert abs(lam_x[t0] - ref_x) <= 1e-9 * ref_x
        assert abs(cross[t0] - ref_cross) <= 1e-9 * max(ref_cross, ref_x)
        lam_w[t0] = np.linalg.eigvalsh(P[n:n * h, n:n * h]).max(initial=0.0)
    for r in (0.9, 0.999999, 1 - 1e-7, 1 + 1e-7, 1.000001, 1.1):
        c = r * lam_w
        certified = costs_mod._game_certifies(sys, costs, N, starts, c)
        assert not np.any(certified & (lam_w >= c))
    # one level for all windows, between two of their lambda_max(P_ww)
    c = np.full(L, np.median(lam_w))
    certified = costs_mod._game_certifies(sys, costs, N, starts, c)
    assert not np.any(certified & (lam_w >= c))


def test_every_full_window_a_new_record_falls_back_to_eigvalsh(counted_envelope):
    # Q_t = (1 + t) Q0: each full window's w-gain exceeds all before it, so
    # no window can be excluded on an earlier one's gain, and the window
    # that holds gamma_bar_sq must get the dense form
    rng = np.random.default_rng(4)
    n, m, N, L = 3, 2, 4, 10
    Q0, R0 = pd_stack(rng, 1, n)[0], pd_stack(rng, 1, m)[0]
    costs = QuadraticCost(np.stack([(1 + t) * Q0 for t in range(L)]),
                          np.stack([R0] * L))
    sys = LinearSystem(A=0.5 * rng.normal(size=(n, n)), B=rng.normal(size=(n, m)))
    upper, dense = counted_envelope(sys, costs, N)
    gains = [g[1] for g in window_gains(sys, costs, N)]
    assert int(np.argmax(gains)) in dense
    full = gains[:L - N + 1]
    assert all(b > a for a, b in zip(full, full[1:]))
    assert upper == unscreened_upper(sys, costs, N)


def test_tied_full_windows_fall_back_to_eigvalsh(counted_envelope):
    # time-invariant weights: every full window has the same value form, so
    # each one after the first ties the running maximum exactly, is never
    # certified, and reuses the first full window's eigenvalues
    rng = np.random.default_rng(5)
    n, m, N, L = 3, 1, 4, 12
    costs = QuadraticCost(np.stack([pd_stack(rng, 1, n)[0]] * L),
                          np.stack([pd_stack(rng, 1, m)[0]] * L))
    sys = LinearSystem(A=0.5 * rng.normal(size=(n, n)), B=rng.normal(size=(n, m)))
    upper, dense = counted_envelope(sys, costs, N)
    assert len(set(range(L - N + 1)) & set(dense)) == 1
    assert len(dense) == len(set(dense))
    gains = [g[1] for g in window_gains(sys, costs, N)]
    assert len(set(gains[:L - N + 1])) == 1
    assert upper == unscreened_upper(sys, costs, N)


def test_time_invariant_weights_share_one_value_form(counted_envelope):
    # the quadratic_scale size with one Q and one R for all 192 stages: the
    # 145 full windows tie, so none is certified, and a window's weight
    # slice is fixed by its horizon alone
    sc = gen_scenario(0, ScenarioConfig(cost_kind="quadratic", n=8, m=1, T=192,
                                        N=48, a_high=0.25))
    L, N = sc.T, sc.N
    costs = QuadraticCost(np.stack([sc.costs.Q_seq[0]] * L),
                          np.stack([sc.costs.R_seq[0]] * L))
    upper, dense = counted_envelope(sc.sys, costs, N)
    assert upper == unscreened_upper(sc.sys, costs, N)
    horizons = [min(N, L - t0) for t0 in dense]
    assert len(horizons) == len(set(horizons))  # one form per distinct slice
    assert horizons.count(N) == 1


@pytest.mark.parametrize("alternating", ["Q", "R"])
def test_windows_with_other_weights_get_their_own_form(counted_envelope, alternating):
    # one of Q_t and R_t fixed, the other alternating between two matrices:
    # full windows from even and from odd starts share only the fixed slices
    rng = np.random.default_rng(6)
    n, m, N, L = 3, 1, 4, 12
    Q, R = pd_stack(rng, 2, n), pd_stack(rng, 2, m)
    parity = np.arange(L) % 2
    costs = QuadraticCost(Q[parity if alternating == "Q" else 0 * parity],
                          R[parity if alternating == "R" else 0 * parity])
    sys = LinearSystem(A=0.5 * rng.normal(size=(n, n)), B=rng.normal(size=(n, m)))
    upper, dense = counted_envelope(sys, costs, N)
    assert upper == unscreened_upper(sys, costs, N)
    assert sorted(t0 % 2 for t0 in dense if t0 <= L - N) == [0, 1]


def test_screen_skips_most_w_block_eigvalsh(counted_envelope):
    sc = gen_scenario(0, ScenarioConfig(cost_kind="quadratic", n=4, m=1, T=96,
                                        N=24, a_high=0.5))
    upper, dense = counted_envelope(sc.sys, sc.costs, sc.N)
    assert len(dense) <= sc.T // 8
    assert upper == unscreened_upper(sc.sys, sc.costs, sc.N)


@pytest.fixture
def sweep_only(counted_envelope, monkeypatch):
    """A gen_scenario instance whose envelope must raise before it evaluates
    any window's value form densely, so only the sweeps can see a fault.

    A fault planted in stage 0 lies in the window from start 0 alone, which
    the clean envelope of this instance never evaluates densely either."""
    sc = gen_scenario(0, ScenarioConfig(cost_kind="quadratic", n=3, m=1, T=20,
                                        N=6, a_high=0.5))
    _, dense = counted_envelope(sc.sys, sc.costs, sc.N)
    assert dense and 0 not in dense

    def forbidden(sys, sd, costs, t0):
        pytest.fail(f"the dense value form of start {t0} was evaluated")

    monkeypatch.setattr(costs_mod, "_value_form", forbidden)
    return sc


def test_non_finite_value_form_names_its_window_start(sweep_only, monkeypatch):
    # Cholesky returns NaNs rather than raising on NaN input, so without a
    # check a poisoned window would pass the screen and drop out unseen
    Q = sweep_only.costs.Q_seq.copy()
    Q[0, 1, 2] = Q[0, 2, 1] = np.nan
    monkeypatch.setattr(sweep_only.costs, "Q_seq", Q)
    with pytest.raises(ValueError, match="from start 0 is not finite"):
        estimate_gamma_alpha_upper(sweep_only.sys, sweep_only.costs, sweep_only.N)


def test_normal_matrix_without_cholesky_factor_names_its_window_start(sweep_only,
                                                                      monkeypatch):
    R = sweep_only.costs.R_seq.copy()
    R[0] = -1e6 * np.eye(sweep_only.sys.m)
    monkeypatch.setattr(sweep_only.costs, "R_seq", R)
    with pytest.raises(ValueError, match="window from start 0 is singular"):
        estimate_gamma_alpha_upper(sweep_only.sys, sweep_only.costs, sweep_only.N)


def test_alpha_only_window_gets_no_w_block_eigvalsh(monkeypatch):
    # in this instance window 7 enters the alpha_hi set, but the game sweep
    # certifies its w-block before the gamma loop reaches it
    sc = gen_scenario(0, ScenarioConfig(cost_kind="quadratic", n=3, m=1, T=20,
                                        N=6, a_high=0.5))
    n = sc.sys.n
    reference = unscreened_upper(sc.sys, sc.costs, sc.N)
    lam_x, cross = costs_mod._lqr_sweep(sc.sys, sc.costs, sc.N)
    swept = lam_x + cross
    near = set(np.flatnonzero(swept >= swept.max() * (1.0 - costs_mod.SCREEN_MARGIN)))
    dense, w_solved = [], []
    real_form, real_eigvalsh = costs_mod._value_form, np.linalg.eigvalsh

    def form(sys, sd, costs, t0):
        dense.append(t0)
        return real_form(sys, sd, costs, t0)

    def eigvalsh(a, *args, **kwargs):
        if a.shape[-1] > n:  # x-blocks and the sweeps' stacks are n x n
            w_solved.append(dense[-1])
        return real_eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(costs_mod, "_value_form", form)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    upper = costs_mod._exact_quadratic_upper(sc.sys, sc.costs, sc.N)
    monkeypatch.undo()
    assert upper == reference
    assert len(dense) == len(set(dense))  # one value form per window
    assert len(w_solved) == len(set(w_solved))
    alpha_only = set(dense) - set(w_solved)
    assert alpha_only == {7}
    assert alpha_only <= near
