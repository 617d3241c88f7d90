"""Cost models, sigma, and envelope-constant estimation."""

import math
import warnings

import numpy as np
import pytest

from prhc.costs import (
    CostModel,
    EnvelopeParams,
    NonConvexCost,
    QuadraticCost,
    SetDistanceCost,
    estimate_alpha_lower,
    estimate_gamma_alpha_upper,
    estimate_params,
    quadratic_value_form,
    sigma_eval,
    total_cost,
)
from prhc import costs as costs_mod, harness
from prhc.harness import ScenarioConfig, gen_scenario, run_comparison, scenario_params
from prhc.linsys import (
    DisturbanceSequence, LinearSystem, Trajectory, rollout, stack_dynamics,
)
from prhc.policy import build_schedule, run_policy
from prhc.solver import (
    HorizonProblem, adjoint_gradient, horizon_objective, solve_general, solve_quadratic,
)


def make_quad(n=2, m=1, T=3, q=1.0, r=1.0):
    Q = np.stack([q * np.eye(n)] * T)
    R = np.stack([r * np.eye(m)] * T)
    return QuadraticCost(Q, R)


def random_quad(rng, n, m, T, lo=1.0, hi=3.0):
    Q = np.stack([np.diag(rng.uniform(lo, hi, n)) for _ in range(T)])
    R = np.stack([np.diag(rng.uniform(lo, hi, m)) for _ in range(T)])
    return QuadraticCost(Q, R)


class ZeroCost(CostModel):
    """Identically-zero cost with a genuine sigma; degenerate on purpose."""

    convex = True
    length = None

    def eval(self, t, x, u):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1])

    def gradient(self, t, x, u):
        return np.zeros(np.shape(x)), np.zeros(np.shape(u))

    def sigma(self, x):
        x = np.asarray(x, dtype=float)
        return np.sum(x * x, axis=-1)


class ZeroSigmaCost(CostModel):
    convex = True
    length = None

    def eval(self, t, x, u):
        x = np.asarray(x, dtype=float)
        return np.sum(x * x, axis=-1)

    def sigma(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1])


class NegativeCost(CostModel):
    length = None

    def eval(self, t, x, u):
        return -1.0

    def sigma(self, x):
        return 0.0


class NegativeFromCost(CostModel):
    """Unit quadratic stage cost that turns negative from stage `first` on."""

    length = None

    def __init__(self, first):
        self.first = first

    def eval(self, t, x, u):
        c = np.sum(np.square(x), axis=-1) + np.sum(np.square(u), axis=-1)
        return np.where(np.asarray(t) >= self.first, -1.0, c)

    def sigma(self, x):
        return np.sum(np.square(x), axis=-1)


class TestTotalCost:
    def test_zero_trajectory(self):
        costs = make_quad(n=2, m=1, T=2)
        traj = Trajectory(
            states=np.zeros((3, 2)), inputs=np.zeros((2, 1)),
            disturbances=np.zeros((2, 2)),
        )
        assert total_cost(traj, costs) == 0.0

    def test_scalar_hand_value(self):
        costs = make_quad(n=1, m=1, T=1)
        traj = Trajectory(
            states=np.array([[1.0], [2.0]]), inputs=np.array([[3.0]]),
            disturbances=np.zeros((1, 1)),
        )
        assert total_cost(traj, costs) == pytest.approx(10.0, abs=1e-15)

    def test_nonconvex_minimized_at_offset(self):
        costs = NonConvexCost(b=0.2)
        traj = Trajectory(
            states=np.array([[0.2, 0.2], [0.0, 0.0]]),
            inputs=np.zeros((1, 1)),
            disturbances=np.zeros((1, 2)),
        )
        assert total_cost(traj, costs) == 0.0

    def test_length_mismatch(self):
        costs = make_quad(T=3)
        traj = Trajectory(
            states=np.zeros((2, 2)), inputs=np.zeros((1, 1)),
            disturbances=np.zeros((1, 2)),
        )
        with pytest.raises(ValueError, match="covers"):
            total_cost(traj, costs)

    def test_negative_eval_flagged_as_broken_model(self):
        traj = Trajectory(
            states=np.zeros((2, 2)), inputs=np.zeros((1, 1)),
            disturbances=np.zeros((1, 2)),
        )
        # a model may return one scalar for every stage
        with pytest.raises(ValueError, match="step 0 is negative .*broken"):
            total_cost(traj, NegativeCost())

    @pytest.mark.parametrize("first", [1, 3])
    def test_first_negative_stage_named(self, first):
        traj = Trajectory(
            states=np.ones((5, 2)), inputs=np.ones((4, 1)),
            disturbances=np.zeros((4, 2)),
        )
        with pytest.raises(ValueError, match=f"step {first} is negative"):
            total_cost(traj, NegativeFromCost(first))


def overflowing_calls():
    """(call, message) of overflowing states on each path to a stage cost:
    a policy run, a window objective, a stored trajectory, and a rollout,
    whose Trajectory refuses the overflowed state before any cost."""
    unit = make_quad(n=1, m=1, T=6)
    run = (lambda: run_policy(LinearSystem(A=[[1e100]], B=[[1.0]]), unit,
                              DisturbanceSequence(np.full((6, 1), 0.5)), [1.0],
                              build_schedule(3, 1, 6)),
           r"stage cost at step 2 is not finite \(inf\)")
    window = HorizonProblem(sys=LinearSystem(A=[[1e200]], B=[[1.0]]), x0=[1.0],
                            costs=make_quad(n=1, m=1, T=3), t0=0,
                            w_preview=DisturbanceSequence.zeros(3, 1), N=3)
    objective = (lambda: horizon_objective(window, np.zeros(3)),
                 r"stage cost at step 1 is not finite \(inf\)")
    traj = Trajectory(states=[[1e200], [0.0]], inputs=[[0.0]], disturbances=[[0.0]])
    total = (lambda: total_cost(traj, make_quad(n=1, m=1, T=1)),
             r"stage cost at step 0 is not finite \(inf\)")
    roll = (lambda: rollout(LinearSystem(A=[[1e200]], B=[[1.0]]), [1.0],
                            np.zeros((3, 1)), np.zeros((3, 1))),
            "states contains non-finite entries")
    return {"run_policy": run, "horizon_objective": objective,
            "total_cost": total, "rollout": roll}


class TestStageCostCheck:
    @pytest.mark.parametrize("mode", ["always", "error"])
    @pytest.mark.parametrize("path", ["run_policy", "horizon_objective",
                                      "total_cost", "rollout"])
    def test_overflow_is_named_in_every_warning_mode(self, path, mode):
        # the dynamics and the stage costs run with floating-point warnings
        # off, so an overflow ends in the same named ValueError, and nothing
        # else, whether or not warnings are errors
        call, message = overflowing_calls()[path]
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter(mode)
            with pytest.raises(ValueError, match=message):
                call()
        assert seen == []


class TestSigmaEval:
    def test_quadratic_norm_squared(self):
        assert sigma_eval(make_quad(), [3.0, 4.0]) == 25.0

    def test_set_distance_inside_ball(self):
        costs = SetDistanceCost([0.5], center=[0.5, 0.5], radius=0.25)
        assert sigma_eval(costs, [0.5, 0.5]) == 0.0

    def test_set_distance_hand_value(self):
        costs = SetDistanceCost([0.5], center=[0.5], radius=0.25)
        assert sigma_eval(costs, [1.0]) == pytest.approx(0.0625, abs=1e-15)


class TestAlphaLower:
    def test_quadratic_diagonal(self):
        Q = np.stack([np.diag([2.0, 3.0])] * 4)
        R = np.stack([np.eye(1)] * 4)
        assert estimate_alpha_lower(QuadraticCost(Q, R)) == pytest.approx(2.0, abs=1e-12)

    def test_quadratic_equals_per_stage_eigenvalues(self):
        rng = np.random.default_rng(12)
        M = rng.normal(size=(9, 4, 4))
        costs = QuadraticCost(M @ M.transpose(0, 2, 1) + 0.1 * np.eye(4),
                              np.ones((9, 1, 1)))
        ref = min(float(np.linalg.eigvalsh(Q)[0]) for Q in costs.Q_seq)
        assert estimate_alpha_lower(costs) == ref

    def test_nonconvex_rejected(self):
        # only the quadratic model has an exact alpha_lo
        with pytest.raises(ValueError, match="no exact alpha_lo for NonConvexCost"):
            estimate_alpha_lower(NonConvexCost(b=0.2))

    def test_set_distance_rejected(self):
        costs = SetDistanceCost([0.4, 0.9, 0.7], center=[0.5, 0.5], radius=0.25)
        with pytest.raises(ValueError, match="no exact alpha_lo for SetDistanceCost"):
            estimate_alpha_lower(costs)

    def test_zero_sigma_rejected(self):
        with pytest.raises(ValueError, match="no exact alpha_lo for ZeroSigmaCost"):
            estimate_alpha_lower(ZeroSigmaCost())


class TestUpperEstimate:
    def test_scalar_exact_pair(self):
        sys = LinearSystem(A=[[0.0]], B=[[1.0]])
        costs = make_quad(n=1, m=1, T=1)
        alpha_hi, gamma_sq = estimate_gamma_alpha_upper(sys, costs, N=1)
        assert alpha_hi == pytest.approx(1.0, abs=1e-12)
        assert gamma_sq == pytest.approx(0.0, abs=1e-12)

    def test_zero_cost_rejected(self):
        sys = LinearSystem(A=[[0.0, 0.0], [0.0, 0.0]], B=[[1.0], [0.0]])
        with pytest.raises(ValueError, match="no exact envelope for ZeroCost"):
            estimate_gamma_alpha_upper(sys, ZeroCost(), N=2)
        with pytest.raises(ValueError, match="no exact envelope for ZeroCost"):
            estimate_params(sys, ZeroCost(), N=2)

    def test_pair_bounds_fresh_samples(self):
        # post-hoc oracle: the certified pair must dominate the true window
        # value on fresh random (t0, x, w) draws; values come from the
        # stacked normal equations, not from the certificate's eigenvalue path
        rng = np.random.default_rng(7)
        n, m, N, L = 2, 1, 4, 6
        sys = LinearSystem(A=rng.uniform(0, 1, (n, n)), B=rng.uniform(0, 1, (n, m)))
        costs = random_quad(rng, n, m, L)
        alpha_hi, gamma_sq = estimate_gamma_alpha_upper(sys, costs, N=N)

        total_samples = 10_000
        starts = rng.integers(0, L, size=total_samples)
        checked = 0
        spot_checks = []
        for t0 in range(L):
            count = int(np.sum(starts == t0))
            if count == 0:
                continue
            h = min(N, L - t0)
            sd = stack_dynamics(sys, h)
            Qbar = np.zeros((n * h, n * h))
            Rbar = np.zeros((m * h, m * h))
            for k in range(h):
                Qbar[k * n:(k + 1) * n, k * n:(k + 1) * n] = costs.Q_seq[t0 + k]
                Rbar[k * m:(k + 1) * m, k * m:(k + 1) * m] = costs.R_seq[t0 + k]
            GtQ = sd.G.T @ Qbar
            normal = GtQ @ sd.G + Rbar
            X = rng.uniform(-2.0, 2.0, (count, n))
            W = rng.uniform(0.0, 1.0, (count, h * n))
            free = X @ sd.F.T + W @ sd.H.T                  # (count, n*h)
            U = -np.linalg.solve(normal, GtQ @ free.T).T    # (count, m*h)
            Z = free + U @ sd.G.T
            values = np.einsum("bi,ij,bj->b", Z, Qbar, Z) + np.einsum(
                "bi,ij,bj->b", U, Rbar, U
            )
            sig = np.sum(X * X, axis=1)
            energy = np.sum(W * W, axis=1)
            bound = alpha_hi * sig + gamma_sq * energy
            assert np.all(values <= bound * (1 + 1e-9) + 1e-9)
            checked += count
            spot_checks.append((t0, h, X[0], W[0], values[0]))
        assert checked == total_samples

        # cross-validate the batched evaluator against the solver route
        for t0, h, x, w_flat, v in spot_checks:
            p = HorizonProblem(
                sys=sys, x0=x, costs=costs, t0=t0,
                w_preview=DisturbanceSequence.from_array(w_flat.reshape(h, n)),
                N=h,
            )
            sol = solve_quadratic(p)
            assert sol.value == pytest.approx(v, rel=1e-9)


class TestQuadraticValueForm:
    def test_exact_envelope_equals_per_window_value_forms(self):
        # the exact envelope serves the shorter tail windows from the leading
        # blocks of the system's N-step stack; the constants must equal, bit
        # for bit, those of a value form over a freshly built stack per window
        # start, each block's lambda_max plus the LQR sweep's cross term. The
        # last block of each w-block is zero and the envelope leaves it out
        # of the eigenvalue problem.
        rng = np.random.default_rng(9)
        n, m, N, L = 3, 2, 5, 9
        sys = LinearSystem(A=rng.uniform(-1, 1, (n, n)), B=rng.uniform(-1, 1, (n, m)))
        costs = random_quad(rng, n, m, L)
        _, sweep_cross = costs_mod._lqr_sweep(sys, costs, N)
        alpha_hi = gamma_sq = 0.0
        for t0 in range(L):
            h = min(N, L - t0)
            P = quadratic_value_form(LinearSystem(A=sys.A, B=sys.B), costs, t0, h)
            assert not np.any(P[n * h:]) and not np.any(P[:, n * h:])
            cross = float(sweep_cross[t0])
            alpha_hi = max(alpha_hi, float(np.linalg.eigvalsh(P[:n, :n])[-1]) + cross)
            lam_w = float(np.linalg.eigvalsh(P[n:n * h, n:n * h]).max(initial=0.0))
            gamma_sq = max(gamma_sq, lam_w + cross)
        assert estimate_gamma_alpha_upper(sys, costs, N=N) == (alpha_hi, gamma_sq)

    def test_matches_solver_value(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            N = int(rng.integers(1, 5))
            sys = LinearSystem(
                A=rng.uniform(-1, 1, (n, n)), B=rng.uniform(-1, 1, (n, m))
            )
            costs = random_quad(rng, n, m, N)
            P = quadratic_value_form(sys, costs, 0, N)
            np.testing.assert_allclose(P, P.T, atol=1e-12)
            assert np.linalg.eigvalsh(P)[0] >= -1e-9
            x = rng.uniform(-2, 2, n)
            w = rng.uniform(-1, 1, (N, n))
            z = np.concatenate([x, w.ravel()])
            p = HorizonProblem(
                sys=sys, x0=x, costs=costs, t0=0,
                w_preview=DisturbanceSequence.from_array(w), N=N,
            )
            sol = solve_quadratic(p)
            assert float(z @ P @ z) == pytest.approx(sol.value, rel=1e-9, abs=1e-12)


class TestEnvelopeParams:
    def test_valid_construction(self):
        p = EnvelopeParams(alpha_lo=1.0, alpha_hi=2.0, gamma_bar_sq=3.0,
                           beta=0.5, zeta=2.0)
        assert p.beta == 0.5

    def test_beta_must_match_ratio(self):
        with pytest.raises(ValueError, match="does not equal"):
            EnvelopeParams(alpha_lo=1.0, alpha_hi=2.0, gamma_bar_sq=1.0,
                           beta=0.7, zeta=2.0)

    def test_beta_above_one_rejected(self):
        with pytest.raises(ValueError, match="exceed 1"):
            EnvelopeParams(alpha_lo=2.0, alpha_hi=1.0, gamma_bar_sq=1.0,
                           beta=2.0, zeta=2.0)

    def test_nan_beta_rejected(self):
        # NaN passed every comparison that refused a bad beta
        with pytest.raises(ValueError, match="beta must be positive"):
            EnvelopeParams(alpha_lo=1.0, alpha_hi=2.0, gamma_bar_sq=1.0,
                           beta=float("nan"), zeta=2.0)

    def test_zeta_below_inverse_beta_rejected(self):
        with pytest.raises(ValueError, match="below 1/beta"):
            EnvelopeParams(alpha_lo=1.0, alpha_hi=2.0, gamma_bar_sq=1.0,
                           beta=0.5, zeta=1.5)

    def test_zeta_must_exceed_one(self):
        with pytest.raises(ValueError, match="exceed 1"):
            EnvelopeParams(alpha_lo=1.0, alpha_hi=1.0, gamma_bar_sq=1.0,
                           beta=1.0, zeta=1.0)

    def test_from_alphas_defaults(self):
        p = EnvelopeParams.from_alphas(1.0, 1.0, gamma_bar_sq=2.0)
        assert p.beta == 1.0
        assert p.zeta > 1.0
        q = EnvelopeParams.from_alphas(1.0, 4.0, gamma_bar_sq=2.0)
        assert q.beta == 0.25
        assert q.zeta == pytest.approx(4.0)


class TestGradients:
    def check_fd(self, costs, t, x, u, rel=1e-5):
        gx, gu = costs.gradient(t, x, u)
        h = 1e-6
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = h
            fd = (costs.eval(t, x + e, u) - costs.eval(t, x - e, u)) / (2 * h)
            assert gx[i] == pytest.approx(fd, rel=rel, abs=1e-7)
        for i in range(u.size):
            e = np.zeros_like(u)
            e[i] = h
            fd = (costs.eval(t, x, u + e) - costs.eval(t, x, u - e)) / (2 * h)
            assert gu[i] == pytest.approx(fd, rel=rel, abs=1e-7)

    def test_quadratic(self):
        rng = np.random.default_rng(0)
        costs = random_quad(rng, 3, 2, 2)
        for t in range(2):
            self.check_fd(costs, t, rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 2))

    def test_nonconvex(self):
        rng = np.random.default_rng(1)
        costs = NonConvexCost(b=0.2)
        for _ in range(5):
            self.check_fd(costs, 0, rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 1))

    def test_set_distance_outside_and_inside(self):
        costs = SetDistanceCost([0.8, 0.3], center=[0.5, 0.5], radius=0.25)
        self.check_fd(costs, 0, np.array([1.5, -0.5]), np.array([0.7]))
        self.check_fd(costs, 1, np.array([2.0, 2.0]), np.array([-0.2]))
        gx, gu = costs.gradient(0, np.array([0.55, 0.45]), np.array([1.0]))
        np.testing.assert_array_equal(gx, [0.0, 0.0])
        np.testing.assert_allclose(gu, [2.0])


class TestModelInvariants:
    def test_quadratic_matches_direct_form(self):
        rng = np.random.default_rng(5)
        Q = np.stack([rng.uniform(-1, 1, (3, 3)) for _ in range(2)])
        Q = np.stack([q @ q.T + 0.5 * np.eye(3) for q in Q])
        R = np.stack([np.diag(rng.uniform(1, 2, 2)) for _ in range(2)])
        costs = QuadraticCost(Q, R)
        for t in range(2):
            for _ in range(20):
                x = rng.uniform(-3, 3, 3)
                u = rng.uniform(-3, 3, 2)
                direct = float(x @ Q[t] @ x + u @ R[t] @ u)
                assert costs.eval(t, x, u) == pytest.approx(direct, rel=1e-12)

    def test_eval_dominates_alpha_sigma(self):
        rng = np.random.default_rng(6)
        models = [
            random_quad(rng, 2, 1, 3),
            NonConvexCost(b=0.2),
            SetDistanceCost(rng.uniform(0.05, 1, 3), center=[0.5, 0.5], radius=0.25),
        ]
        for costs in models:
            # the cubic well has eval(t, x, 0) = sigma(x), so alpha_lo = 1;
            # the set-distance model has eval(t, x, 0) = a_t sigma(x)
            alpha = (1.0 if isinstance(costs, NonConvexCost)
                     else costs.a_seq.min() if isinstance(costs, SetDistanceCost)
                     else estimate_alpha_lower(costs))
            for t in range(3 if costs.length else 1):
                for _ in range(50):
                    x = rng.uniform(-2, 2, 2)
                    u = rng.uniform(-2, 2, 1)
                    c = float(costs.eval(t, x, u))
                    assert c >= 0.0
                    assert c >= alpha * float(costs.sigma(x)) - 1e-9

    def test_batched_eval_shapes(self):
        rng = np.random.default_rng(8)
        costs = make_quad(n=2, m=1, T=1)
        x = rng.uniform(-1, 1, (5, 7, 2))
        u = rng.uniform(-1, 1, (5, 7, 1))
        out = costs.eval(0, x, u)
        assert out.shape == (5, 7)
        sd = NonConvexCost().eval(0, x, u)
        assert sd.shape == (5, 7)

    @pytest.mark.parametrize("kind", ["quadratic", "nonconvex", "set_distance"])
    def test_shipped_models_are_convex(self, kind):
        # the flag gates the grid oracle's refinement, so it must be true,
        # and each stage cost must pass the midpoint test on drawn (x, u)
        sc = gen_scenario(0, ScenarioConfig(cost_kind=kind, n=3, m=2))
        costs, n = sc.costs, sc.sys.n
        assert costs.convex
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        z = st.lists(st.floats(-10.0, 10.0), min_size=n + sc.sys.m,
                     max_size=n + sc.sys.m).map(np.array)

        @hyp.settings(derandomize=True, deadline=None, max_examples=200)
        @hyp.given(st.integers(0, sc.T - 1), z, z)
        def midpoint_convex(t, z1, z2):
            def c(z):
                return float(costs.eval(t, z[:n], z[n:]))

            c1, c2 = c(z1), c(z2)
            scale = 1.0 + abs(c1) + abs(c2)
            assert c((z1 + z2) / 2) <= (c1 + c2) / 2 + 1e-12 * scale

        midpoint_convex()

    def test_nonconvex_needs_two_states(self):
        with pytest.raises(ValueError, match="at least 2"):
            NonConvexCost().eval(0, np.array([1.0]), np.array([0.0]))

    def test_quadratic_rejects_indefinite(self):
        Q = np.stack([np.diag([1.0, -0.5])])
        R = np.stack([np.eye(1)])
        with pytest.raises(ValueError, match="positive definite"):
            QuadraticCost(Q, R)

    @pytest.mark.parametrize("bad_q, bad_r, match", [
        ((), (1, 3), r"R_seq\[1\] is not positive definite \(lambda_min=-0\.5\)"),
        ((2, 4), (0,), r"Q_seq\[2\] is not positive definite \(lambda_min=-0\.5\)"),
    ])
    def test_quadratic_names_first_indefinite_stage(self, bad_q, bad_r, match):
        Q = np.stack([np.eye(2)] * 5)
        R = np.stack([np.eye(1)] * 5)
        for t in bad_q:
            Q[t] = np.diag([1.0, -0.5])
        for t in bad_r:
            R[t] = -0.5
        with pytest.raises(ValueError, match=match):
            QuadraticCost(Q, R)

    def test_set_distance_rejects_bad_coefficients(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SetDistanceCost([1.2], center=[0.0], radius=0.5)
        with pytest.raises(ValueError, match="radius"):
            SetDistanceCost([0.5], center=[0.0], radius=0.0)

    @pytest.mark.parametrize("model, kwargs, match", [
        (QuadraticCost, dict(Q_seq=[np.eye(2), [[1.0, 0.0], [0.0, np.nan]]],
                             R_seq=[[[1.0]]] * 2), r"Q_seq\[1\] contains non-finite"),
        (QuadraticCost, dict(Q_seq=[[[np.inf]]] * 2, R_seq=[[[1.0]]] * 2),
         r"Q_seq\[0\] contains non-finite"),
        (QuadraticCost, dict(Q_seq=[[[1.0]]] * 2, R_seq=[[[1.0]], [[np.nan]]]),
         r"R_seq\[1\] contains non-finite"),
        (QuadraticCost, dict(Q_seq=[[[1.0]]] * 2, R_seq=[[[np.inf]], [[1.0]]]),
         r"R_seq\[0\] contains non-finite"),
        (SetDistanceCost, dict(a_seq=[0.5, np.nan], center=[0.0], radius=0.5),
         r"\[0, 1\]"),
        (SetDistanceCost, dict(a_seq=[0.5], center=[np.nan], radius=0.5), "center"),
        (SetDistanceCost, dict(a_seq=[0.5], center=[0.0], radius=np.nan), "radius"),
        (SetDistanceCost, dict(a_seq=[0.5], center=[0.0], radius=np.inf), "radius"),
        (NonConvexCost, dict(b=np.nan), "b must be finite"),
        (NonConvexCost, dict(b=np.inf), "b must be finite"),
    ], ids=["Q-nan", "Q-inf", "R-nan", "R-inf", "a_seq-nan", "center-nan",
            "radius-nan", "radius-inf", "b-nan", "b-inf"])
    def test_non_finite_parameters_rejected(self, model, kwargs, match):
        with pytest.raises(ValueError, match=match):
            model(**kwargs)


class TestEstimateParams:
    def test_quadratic_bundle_certified(self):
        rng = np.random.default_rng(11)
        sys = LinearSystem(A=rng.uniform(0, 0.5, (2, 2)), B=[[1.0], [1.0]])
        costs = random_quad(rng, 2, 1, 8)
        params = estimate_params(sys, costs, N=4)
        assert params.certified
        assert 0 < params.beta <= 1.0
        assert params.zeta >= 1.0 / params.beta - 1e-12
        assert params.alpha_lo <= params.alpha_hi


# the non-quadratic scenarios of the table1 protocol: seeds 0-9, N in {6, 9}
NON_QUADRATIC = [(kind, N, seed) for kind in ("nonconvex", "set_distance")
                 for N in (6, 9) for seed in range(10)]


class TestNoEnvelope:
    """The shipped non-quadratic families have no finite envelope constants.

    At a state x* with sigma(x*) = 0 the envelope would need V_t(x*, 0) <= 0.
    Every window problem is strongly convex with modulus 2 (its u'u term), so
    V >= f(u) - ||grad f(u)||^2 / 4 at any u (Nesterov, Introductory Lectures
    on Convex Optimization, Thm 2.1.10); one window solve at x* bounds V from
    below by a positive number, so alpha_hi is infinite (beta = 0).
    """

    @staticmethod
    def zero_set_state(sc):
        if sc.cost_kind == "nonconvex":
            x = np.zeros(sc.sys.n)
            x[:2] = sc.costs.b
            return x
        return np.array(sc.costs.center)

    @pytest.mark.parametrize("kind,N,seed", NON_QUADRATIC)
    def test_window_value_positive_on_zero_set(self, kind, N, seed):
        sc = gen_scenario(seed, ScenarioConfig(cost_kind=kind, N=N))
        x_star = self.zero_set_state(sc)
        assert sc.costs.sigma(x_star) == 0.0
        p = HorizonProblem(sys=sc.sys, x0=x_star, costs=sc.costs, t0=0,
                           w_preview=DisturbanceSequence.zeros(N, sc.sys.n), N=N)
        sol = solve_general(p)
        g = adjoint_gradient(p, sol.u_opt)
        assert sol.value - float(g @ g) / 4.0 > 0.0
        assert scenario_params(sc) is None

    @pytest.mark.parametrize("kind", ["nonconvex", "set_distance"])
    @pytest.mark.parametrize("N", [6, 9])
    def test_rows_report_no_envelope(self, monkeypatch, kind, N):
        # one scenario per (family, N); the rows depend on the scenario only
        # through scenario_params, which the test above covers for all seeds
        certs = []
        real = harness.certify

        def recording(*args, **kwargs):
            certs.append(real(*args, **kwargs))
            return certs[-1]

        monkeypatch.setattr(harness, "certify", recording)
        rows = run_comparison(gen_scenario(0, ScenarioConfig(cost_kind=kind, N=N)))
        assert len(rows) == len(certs) == 2
        for row, cert in zip(rows, certs):
            assert row.bound == math.inf and not row.satisfied
            assert not row.certified
            assert row.beta == 0.0 and row.gamma_bar_sq == math.inf
            assert math.isnan(row.omega_op)
            name, ok, margin = cert.conditions[-1]
            assert (name, ok) == ("envelope exists", False) and math.isnan(margin)
