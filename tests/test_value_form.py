"""Property tests of the exact quadratic envelope: the window value form built
by the backward Riccati sweep against the dense formula and against a
long-double closed-loop Gram reference, the LQR and game sweeps against the
value form, and the screened envelope against an unscreened per-window
eigenvalue reference."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from prhc import costs as costs_mod  # noqa: E402
from prhc.costs import (  # noqa: E402
    QuadraticCost,
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
def windows(draw, rhos=st.sampled_from([0.5, 0.95, 0.99, 1.0, 1.01])):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 2))
    N = draw(st.integers(1, 16))
    L = N + draw(st.integers(0, 3))
    t0 = draw(st.integers(0, L - 1))  # past L - N the window is a tail, h < N
    rho = draw(rhos)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    sys = system(rng, n, m, rho)
    costs = QuadraticCost(pd_stack(rng, L, n), pd_stack(rng, L, m))
    return sys, costs, N, t0, min(N, L - t0)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(windows())
def test_value_form_matches_dense_formula(window):
    sys, costs, N, t0, h = window
    P = quadratic_value_form(sys, costs, t0, h)
    ref = dense_value_form(stack_dynamics(sys, h), costs, t0)
    assert P.shape == ref.shape == (sys.n * (h + 1),) * 2
    np.testing.assert_array_equal(P, P.T)
    assert np.max(np.abs(P - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_value_form_matches_dense_formula_at_benchmark_size():
    # the quadratic_scale scenario size, on a seed whose A has spectral radius
    # above 1, so the window form grows along its 48 stages
    sc = gen_scenario(1, ScenarioConfig(cost_kind="quadratic", n=8, m=1, T=192,
                                        N=48, a_high=0.25))
    assert np.max(np.abs(np.linalg.eigvals(sc.sys.A))) >= 1.0
    for t0 in (0, 97, 144, 170, 191):  # full windows, then tails of 22 and 1 steps
        h = min(sc.N, sc.T - t0)
        P = quadratic_value_form(sc.sys, sc.costs, t0, h)
        ref = dense_value_form(stack_dynamics(sc.sys, h), sc.costs, t0)
        np.testing.assert_array_equal(P, P.T)
        assert np.max(np.abs(P - ref)) <= 1e-9 * np.max(np.abs(ref))


def solve_pivots(U, X):
    """U^-1 X for a positive-definite U of order 1 or 2, by explicit pivots
    (numpy's linalg has no long-double solve)."""
    if U.shape[0] == 1:
        return X / U[0, 0]
    det = U[0, 0] * U[1, 1] - U[0, 1] * U[1, 0]
    adj = np.array([[U[1, 1], -U[0, 1]], [-U[1, 0], U[0, 0]]], dtype=U.dtype)
    return adj @ X / det


def gram_value_form(sys, costs, t0, h):
    """The window value form as the closed-loop Gram sum
    sum_k X_k'Q_k X_k + U_k'R_k U_k, all in long double, where x_k = X_k z
    and u_k = U_k z on the optimal trajectory from z = [x; w].

    The optimal laws u_k = -K_k x_k - F_k z come from a backward Riccati
    sweep from Lam_h = 0, with E the coefficient of z in the cost-to-go's
    linear term: U = R + B'Lam B, Gam = Lam J_k + E for J_k the selector of
    w_k, K = U^-1 B'Lam A, F = U^-1 B'Gam, E = (A - B K)'Gam. A sum of PSD
    terms has no cancellation, and an error in the laws moves the value only
    to second order."""
    ld = np.longdouble
    A, B = sys.A.astype(ld), sys.B.astype(ld)
    n, C = sys.n, sys.n * (h + 1)
    Q = costs.Q_seq[t0:t0 + h].astype(ld)
    R = costs.R_seq[t0:t0 + h].astype(ld)
    J = np.zeros((h, n, C), dtype=ld)  # z -> w_k
    for k in range(h):
        J[k, :, n * (k + 1):n * (k + 2)] = np.eye(n)
    lam = np.zeros((n, n), dtype=ld)
    E = np.zeros((n, C), dtype=ld)
    laws = [None] * h
    for k in range(h - 1, -1, -1):
        U = R[k] + B.T @ lam @ B
        Gam = lam @ J[k] + E
        K = solve_pivots(U, B.T @ lam @ A)
        Acl = A - B @ K
        laws[k] = (K, solve_pivots(U, B.T @ Gam))
        E = Acl.T @ Gam
        lam = Q[k] + K.T @ R[k] @ K + Acl.T @ lam @ Acl
        lam = 0.5 * (lam + lam.T)
    X = np.zeros((n, C), dtype=ld)
    X[:, :n] = np.eye(n)
    P = np.zeros((C, C), dtype=ld)
    for k, (K, F) in enumerate(laws):
        Uz = -K @ X - F
        P += X.T @ Q[k] @ X + Uz.T @ R[k] @ Uz
        X = A @ X + B @ Uz + J[k]
    return P


def assert_matches_gram(sys, costs, t0, h):
    P = quadratic_value_form(sys, costs, t0, h)
    ref = gram_value_form(sys, costs, t0, h)
    np.testing.assert_array_equal(P, P.T)
    assert np.max(np.abs(P - ref)) <= 1e-13 * np.max(np.abs(ref))


def steep_window():
    """A full 16-step window of n = 4, m = 2 with spectral radius 1.2."""
    rng = np.random.default_rng(3)
    sys = system(rng, 4, 2, 1.2)
    return sys, QuadraticCost(pd_stack(rng, 16, 4), pd_stack(rng, 16, 2)), 16, 0, 16


@settings(derandomize=True, deadline=None, max_examples=100)
@given(windows(rhos=st.floats(1.0, 1.2)))
@example(steep_window())
def test_value_form_matches_long_double_gram_form(window):
    # spectral radius of A in [1, 1.2]: the forms grow along the window,
    # where a difference of large terms would lose digits
    sys, costs, _, t0, h = window
    assert_matches_gram(sys, costs, t0, h)


@pytest.mark.parametrize("t0", [0, 97])
def test_value_form_matches_long_double_gram_form_at_benchmark_size(t0):
    # quadratic_scale seed 4, whose A has spectral radius 1.157, on full windows
    sc = gen_scenario(4, ScenarioConfig(cost_kind="quadratic", n=8, m=1, T=192,
                                        N=48, a_high=0.25))
    assert_matches_gram(sc.sys, sc.costs, t0, sc.N)


def window_gains(sys, costs, N):
    """Per window start, lambda_max of the x- and w-blocks of the value form,
    from eigvalsh on every block, each plus the LQR sweep's cross term."""
    n = sys.n
    _, sweep_cross = costs_mod._lqr_sweep(sys, costs, N)
    gains = []
    for t0 in range(costs.length):
        h = min(N, costs.length - t0)
        P = quadratic_value_form(sys, costs, t0, h)
        cross = float(sweep_cross[t0])
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
    real = costs_mod.quadratic_value_form

    def counting(sys, costs, t0, h):
        starts.append(t0)
        return real(sys, costs, t0, h)

    monkeypatch.setattr(costs_mod, "quadratic_value_form", counting)

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


def assert_sweeps_agree(sys, costs, N, starts):
    """The LQR sweep's lambda_max(P_xx) and cross term against the value
    form to 1e-13 relative, and the game sweep's screen at levels below and
    above each window's lambda_max(P_ww), down to 1e-7 relative: it must
    never certify a level at or below it, nor any level up to SCREEN_MARGIN/2
    above it. Returns the windows' lambda_max(P_ww)."""
    n, L = sys.n, costs.length
    lam_x, cross = costs_mod._lqr_sweep(sys, costs, N)
    lam_w = np.empty(len(starts))
    for i, t0 in enumerate(starts):
        h = min(N, L - t0)
        P = quadratic_value_form(sys, costs, t0, h)
        ref_x = np.linalg.eigvalsh(P[:n, :n]).max()
        ref_cross = np.linalg.norm(P[:n, n:], 2)
        assert abs(lam_x[t0] - ref_x) <= 1e-13 * ref_x
        assert abs(cross[t0] - ref_cross) <= 1e-13 * max(ref_cross, ref_x)
        lam_w[i] = np.linalg.eigvalsh(P[n:n * h, n:n * h]).max(initial=0.0)
    half = 1 + costs_mod.SCREEN_MARGIN / 2
    for r in (0.9, 0.999999, 1 - 1e-7, 1, 1 + 1e-7, half, 1.000001, 1.1):
        c = r * lam_w
        certified = costs_mod._game_certifies(sys, costs, N, starts, c)
        assert not np.any(certified & (lam_w >= c))
        if r <= half:
            assert not np.any(certified)
    # one level for all windows, between two of their lambda_max(P_ww)
    c = np.full(len(starts), np.median(lam_w))
    certified = costs_mod._game_certifies(sys, costs, N, starts, c)
    assert not np.any(certified & (lam_w >= c))
    return lam_w


@settings(derandomize=True, deadline=None, max_examples=60)
@given(sweep_cases())
@example(growing_case())
def test_sweeps_agree_with_the_value_form(case):
    sys, costs, N = case
    assert_sweeps_agree(sys, costs, N, np.arange(costs.length))


def test_sweeps_agree_with_the_value_form_at_benchmark_size():
    # quadratic_scale seed 4, whose A has spectral radius 1.157: every 11th
    # start, full windows and tails of 38 down to 5 steps
    sc = gen_scenario(4, ScenarioConfig(cost_kind="quadratic", n=8, m=1, T=192,
                                        N=48, a_high=0.25))
    assert np.max(np.abs(np.linalg.eigvals(sc.sys.A))) > 1.15
    starts = np.arange(0, sc.T, 11)
    lam_w = assert_sweeps_agree(sc.sys, sc.costs, sc.N, starts)
    # and the screen is complete there: two margins above its lambda_max(P_ww),
    # every sampled window is certified
    c = (1 + 2 * costs_mod.SCREEN_MARGIN) * lam_w
    assert costs_mod._game_certifies(sc.sys, sc.costs, sc.N, starts, c).all()


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

    def forbidden(sys, costs, t0, h):
        pytest.fail(f"the dense value form of start {t0} was evaluated")

    monkeypatch.setattr(costs_mod, "quadratic_value_form", forbidden)
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


def test_every_dense_form_gets_its_w_block_eigvalsh(monkeypatch):
    # alpha_hi and every cross term come from the LQR sweep, so a window
    # gets a dense value form only for its w-block eigenvalues: one eigvalsh
    # of a single matrix per form, and no 2-norm
    sc = gen_scenario(0, ScenarioConfig(cost_kind="quadratic", n=3, m=1, T=20,
                                        N=6, a_high=0.5))
    reference = unscreened_upper(sc.sys, sc.costs, sc.N)
    dense, solved, norms = [], [], []
    real_form = costs_mod.quadratic_value_form
    real_eigvalsh, real_norm = np.linalg.eigvalsh, np.linalg.norm

    def form(sys, costs, t0, h):
        dense.append(t0)
        return real_form(sys, costs, t0, h)

    def eigvalsh(a, *args, **kwargs):
        if a.ndim == 2:  # the sweeps' calls take stacks of windows
            solved.append(dense[-1])
        return real_eigvalsh(a, *args, **kwargs)

    def norm(*args, **kwargs):
        norms.append(args)
        return real_norm(*args, **kwargs)

    monkeypatch.setattr(costs_mod, "quadratic_value_form", form)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    monkeypatch.setattr(np.linalg, "norm", norm)
    upper = estimate_gamma_alpha_upper(sc.sys, sc.costs, sc.N)
    monkeypatch.undo()
    assert upper == reference
    assert dense and len(dense) == len(set(dense))  # one value form per window
    assert solved == dense
    assert not norms
