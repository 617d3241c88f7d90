"""Window solver: exact quadratic path, descent path, adjoint gradients."""

import numpy as np
import pytest

from prhc.costs import CostModel, NonConvexCost, QuadraticCost, SetDistanceCost, estimate_alpha_lower
from prhc.linsys import DisturbanceSequence, LinearSystem, rollout, stack_dynamics
from prhc.solver import (
    HorizonProblem,
    HorizonSolution,
    SolverConfig,
    adjoint_gradient,
    horizon_objective,
    solve,
    solve_general,
    solve_quadratic,
)


def make_problem(sys, costs, x0, w, t0=0):
    w = np.atleast_2d(np.asarray(w, dtype=float))
    return HorizonProblem(
        sys=sys, x0=np.asarray(x0, dtype=float), costs=costs, t0=t0,
        w_preview=DisturbanceSequence.from_array(w), N=w.shape[0],
    )


def scalar_quad(T, q=1.0, r=1.0):
    return QuadraticCost(np.stack([[[q]]] * T), np.stack([[[r]]] * T))


def random_quad(rng, n, m, T):
    Q = np.stack([np.diag(rng.uniform(1, 3, n)) for _ in range(T)])
    R = np.stack([np.diag(rng.uniform(1, 3, m)) for _ in range(T)])
    return QuadraticCost(Q, R)


def recompute_value(p, u_opt):
    """Independent value recomputation: plain rollout plus a stage-cost loop."""
    traj = rollout(p.sys, p.x0, u_opt, p.w_preview.w)
    return sum(
        float(p.costs.eval(p.t0 + k, traj.states[k], traj.inputs[k]))
        for k in range(p.N)
    )


class ZeroCost(CostModel):
    convex = True
    length = None

    def eval(self, t, x, u):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1])

    def sigma(self, x):
        x = np.asarray(x, dtype=float)
        return np.sum(x * x, axis=-1)


class DoubleWellCost(CostModel):
    """Wells of equal depth at u=1 and u=-2; exercises restart tie-breaking."""

    convex = False
    length = None

    def eval(self, t, x, u):
        u = np.asarray(u, dtype=float)
        g = (u[..., 0] - 1.0) * (u[..., 0] + 2.0)
        return g * g

    def sigma(self, x):
        x = np.asarray(x, dtype=float)
        return np.sum(x * x, axis=-1)


class OverflowCost(CostModel):
    convex = True
    length = None

    def eval(self, t, x, u):
        u = np.asarray(u, dtype=float)
        d = u[..., 0] - 1.0
        return 1e300 * d * d

    def sigma(self, x):
        x = np.asarray(x, dtype=float)
        return np.sum(x * x, axis=-1)


class GradlessCost(CostModel):
    """Smooth cost with no analytic gradient; forces the FD fallback."""

    convex = True
    length = None

    def eval(self, t, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return np.sum((x - 1.0) ** 2, axis=-1) + np.sum(u * u, axis=-1)

    def sigma(self, x):
        x = np.asarray(x, dtype=float)
        return np.sum((x - 1.0) ** 2, axis=-1)


class TestSolveQuadratic:
    def test_single_step_identity(self):
        sys = LinearSystem(A=[[0.0]], B=[[1.0]])
        p = make_problem(sys, scalar_quad(1), [1.0], [[0.0]])
        sol = solve_quadratic(p)
        np.testing.assert_allclose(sol.u_opt, [[0.0]], atol=1e-14)
        assert sol.value == pytest.approx(1.0, abs=1e-14)
        assert sol.converged and sol.iterations == 0

    def test_two_step_hand_solution(self):
        sys = LinearSystem(A=[[1.0]], B=[[1.0]])
        p = make_problem(sys, scalar_quad(2), [1.0], [[0.0], [0.0]])
        sol = solve_quadratic(p)
        np.testing.assert_allclose(sol.u_opt, [[-0.5], [0.0]], atol=1e-12)
        assert sol.value == pytest.approx(1.5, abs=1e-12)

    def test_makes_no_gradient_calls(self, monkeypatch):
        calls = []
        original = QuadraticCost.gradient

        def counting(self, t, x, u):
            calls.append(t)
            return original(self, t, x, u)

        monkeypatch.setattr(QuadraticCost, "gradient", counting)
        rng = np.random.default_rng(23)
        sys = LinearSystem(A=rng.uniform(-1, 1, (2, 2)), B=[[1.0], [0.5]])
        p = make_problem(sys, random_quad(rng, 2, 1, 5), [1.0, -1.0],
                         rng.uniform(-1, 1, (5, 2)))
        solve_quadratic(p)
        assert calls == []

    def test_rejects_non_quadratic(self):
        sys = LinearSystem(A=np.zeros((2, 2)), B=[[1.0], [0.0]])
        p = make_problem(sys, NonConvexCost(), [0.0, 0.0], [[0.0, 0.0]])
        with pytest.raises(ValueError, match="quadratic"):
            solve_quadratic(p)

    def test_matches_iterative_on_random_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(8):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            N = int(rng.integers(1, 6))
            sys = LinearSystem(A=rng.uniform(-0.9, 0.9, (n, n)),
                               B=rng.uniform(-1, 1, (n, m)))
            costs = random_quad(rng, n, m, N)
            p = make_problem(sys, costs, rng.uniform(-2, 2, n),
                             rng.uniform(-1, 1, (N, n)))
            exact = solve_quadratic(p)
            iterative = solve_general(p, SolverConfig())
            assert iterative.value == pytest.approx(
                exact.value, rel=1e-6, abs=1e-9
            )

    def test_value_consistency_and_optimality(self):
        rng = np.random.default_rng(22)
        sys = LinearSystem(A=rng.uniform(-1, 1, (2, 2)), B=rng.uniform(-1, 1, (2, 2)))
        costs = random_quad(rng, 2, 2, 4)
        p = make_problem(sys, costs, [1.0, -2.0], rng.uniform(-1, 1, (4, 2)))
        sol = solve_quadratic(p)
        assert sol.value == pytest.approx(recompute_value(p, sol.u_opt), rel=1e-9)
        flat = sol.u_opt.ravel()
        for _ in range(20):
            d = rng.normal(size=flat.size)
            d *= 1e-3 / np.linalg.norm(d)
            perturbed = horizon_objective(p, flat + d)
            assert perturbed >= sol.value - 1e-12 * max(1.0, sol.value)


class TestSolveGeneral:
    def test_nonconvex_against_grid_oracle(self):
        # 2-state, scalar input, N=2; the stage costs separate in (u_0, u_1),
        # so the exact grid minimum over [-1,1]^2 at resolution 1e-3 reduces
        # to two 1-d sweeps
        sys = LinearSystem(A=[[0.3, 0.1], [0.0, 0.4]], B=[[1.0], [0.5]])
        costs = NonConvexCost(b=0.2)
        x0 = np.array([0.5, -0.3])
        w = np.array([[0.05, -0.02], [0.0, 0.0]])
        p = make_problem(sys, costs, x0, w)

        u0_grid = np.arange(-1.0, 1.0 + 1e-12, 1e-3)
        x1 = (sys.A @ x0)[None, :] + sys.B[:, 0][None, :] * u0_grid[:, None] + w[0]
        stage0 = float(costs.eval(0, x0, np.zeros(1))) + u0_grid**2
        stage1_state = np.abs(x1[:, 0] - 0.2) ** 3 + (x1[:, 1] - 0.2) ** 2
        grid_min = float(np.min(stage0 + stage1_state))  # u1 = 0 on the grid

        sol = solve_general(p, SolverConfig(seed=0))
        assert sol.value == pytest.approx(grid_min, abs=1e-3)
        assert abs(sol.u_opt[0, 0]) <= 1.0  # minimizer inside the oracle box

    def test_zero_cost_returns_initial_guess(self):
        sys = LinearSystem(A=[[0.2]], B=[[1.0]])
        p = make_problem(sys, ZeroCost(), [1.0], [[0.0], [0.0], [0.0]])
        guess = np.array([0.7, -0.3, 0.1])
        sol = solve_general(p, SolverConfig(), u0=guess)
        np.testing.assert_array_equal(sol.u_opt.ravel(), guess)
        assert sol.value == 0.0
        assert sol.converged

    def test_descent_is_monotone(self):
        sys = LinearSystem(A=[[0.5, 0.2], [0.1, 0.3]], B=[[1.0], [1.0]])
        p = make_problem(
            sys, NonConvexCost(), [1.5, -1.0],
            [[0.1, 0.1], [0.0, -0.1], [0.05, 0.0]],
        )
        values = []
        solve_general(p, SolverConfig(seed=3, restarts=0), callback=values.append)
        values = np.asarray(values)
        assert values.size > 0
        assert np.all(np.diff(values) <= 1e-12)

    @pytest.mark.parametrize("kind", ["nonconvex", "set_distance"])
    def test_value_equals_objective_at_returned_inputs(self, kind):
        # the value is the winning descent's own cost, bit for bit the
        # window objective at the returned inputs
        rng = np.random.default_rng(21)
        sys = LinearSystem(A=rng.uniform(-0.5, 0.5, (2, 2)), B=[[1.0], [0.6]])
        w = rng.uniform(0, 0.3, (5, 2))
        if kind == "nonconvex":
            costs, cfg = NonConvexCost(b=0.2), SolverConfig(seed=4, restarts=5)
        else:
            costs = SetDistanceCost(rng.uniform(0.1, 1, 5), center=[0.5, 0.5],
                                    radius=0.25)
            cfg = SolverConfig()
        for _ in range(4):
            p = make_problem(sys, costs, rng.uniform(-1.5, 1.5, 2), w)
            sol = solve_general(p, cfg, u0=rng.normal(size=5))
            assert sol.value == horizon_objective(p, sol.u_opt)

    def test_restart_tie_break_prefers_low_energy(self):
        sys = LinearSystem(A=[[0.0]], B=[[1.0]])
        p = make_problem(sys, DoubleWellCost(), [0.0], [[0.0]])
        sol = solve_general(p, SolverConfig(seed=0, restarts=8))
        assert sol.value == pytest.approx(0.0, abs=1e-12)
        assert sol.u_opt[0, 0] == pytest.approx(1.0, abs=1e-4)

    def test_deterministic_given_seed(self):
        sys = LinearSystem(A=[[0.4, 0.0], [0.2, 0.3]], B=[[1.0], [0.0]])
        p = make_problem(sys, NonConvexCost(), [0.8, 0.4], [[0.1, 0.0], [0.0, 0.1]])
        a = solve_general(p, SolverConfig(seed=5))
        b = solve_general(p, SolverConfig(seed=5))
        np.testing.assert_array_equal(a.u_opt, b.u_opt)
        assert a.value == b.value

    def test_non_finite_cost_raises_with_iterate(self):
        sys = LinearSystem(A=[[0.0]], B=[[1.0]])
        p = make_problem(sys, OverflowCost(), [0.0], [[0.0]])
        with np.errstate(over="ignore"):
            with pytest.raises(RuntimeError, match="iteration"):
                solve_general(p, SolverConfig())

    def test_fd_fallback_without_gradient(self):
        sys = LinearSystem(A=[[0.0]], B=[[1.0]])
        costs = GradlessCost()
        assert not costs.has_gradient
        p = make_problem(sys, costs, [0.0], [[0.0], [0.0]])
        sol = solve_general(p, SolverConfig())
        # J = (x0-1)^2 + u0^2 + (u0-1)^2 + u1^2, minimized at u0=0.5, u1=0
        assert sol.u_opt[0, 0] == pytest.approx(0.5, abs=1e-5)
        assert sol.value == pytest.approx(1.5, rel=1e-8)

    def test_value_dominates_alpha_sigma_sum(self):
        rng = np.random.default_rng(30)
        sys = LinearSystem(A=rng.uniform(0, 0.5, (2, 2)), B=[[1.0], [1.0]])
        models = [
            random_quad(rng, 2, 1, 4),
            SetDistanceCost(rng.uniform(0.1, 1, 4), center=[0.5, 0.5], radius=0.25),
            NonConvexCost(b=0.2),
        ]
        for costs in models:
            alpha = estimate_alpha_lower(costs).value
            p = make_problem(sys, costs, rng.uniform(-1, 1, 2),
                             rng.uniform(0, 0.5, (4, 2)))
            sol = solve(p, SolverConfig())
            traj = rollout(sys, p.x0, sol.u_opt, p.w_preview.w)
            sigma_sum = sum(float(costs.sigma(traj.states[k])) for k in range(4))
            assert sol.value >= alpha * sigma_sum - 1e-9


class TestAdjointGradient:
    def test_zero_at_global_minimum(self):
        sys = LinearSystem(A=[[0.5]], B=[[1.0]])
        p = make_problem(sys, scalar_quad(3), [0.0], np.zeros((3, 1)))
        g = adjoint_gradient(p, np.zeros(3))
        np.testing.assert_allclose(g, 0.0, atol=1e-15)

    def test_matches_stacked_form_on_random_quadratics(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            N = int(rng.integers(1, 6))
            sys = LinearSystem(A=rng.uniform(-1, 1, (n, n)),
                               B=rng.uniform(-1, 1, (n, m)))
            costs = random_quad(rng, n, m, N)
            x0 = rng.uniform(-2, 2, n)
            w = rng.uniform(-1, 1, (N, n))
            p = make_problem(sys, costs, x0, w)
            u = rng.uniform(-2, 2, N * m)

            sd = stack_dynamics(sys, N)
            Qbar = np.zeros((n * N, n * N))
            Rbar = np.zeros((m * N, m * N))
            for k in range(N):
                Qbar[k * n:(k + 1) * n, k * n:(k + 1) * n] = costs.Q_seq[k]
                Rbar[k * m:(k + 1) * m, k * m:(k + 1) * m] = costs.R_seq[k]
            free = sd.F @ x0 + sd.H @ w.ravel()
            oracle = 2 * (sd.G.T @ Qbar @ sd.G + Rbar) @ u + 2 * sd.G.T @ Qbar @ free

            np.testing.assert_allclose(adjoint_gradient(p, u), oracle,
                                       rtol=1e-8, atol=1e-8)

    def test_matches_finite_differences_on_mixed_models(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 4))
            m = int(rng.integers(1, 3))
            N = int(rng.integers(1, 9))
            sys = LinearSystem(A=rng.uniform(-0.8, 0.8, (n, n)),
                               B=rng.uniform(-1, 1, (n, m)))
            kind = checked % 3
            if kind == 0:
                costs = random_quad(rng, n, m, N)
            elif kind == 1:
                costs = NonConvexCost(b=0.2)
            else:
                costs = SetDistanceCost(rng.uniform(0.1, 1, N),
                                        center=np.full(n, 0.5), radius=0.25)
            p = make_problem(sys, costs, rng.uniform(-2, 2, n),
                             rng.uniform(-0.5, 0.5, (N, n)))
            u = rng.uniform(-1.5, 1.5, N * m)
            g = adjoint_gradient(p, u)
            h = 1e-6
            fd = np.empty_like(g)
            for i in range(u.size):
                e = np.zeros_like(u)
                e[i] = h
                fd[i] = (horizon_objective(p, u + e) - horizon_objective(p, u - e)) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(fd))))
            assert np.max(np.abs(g - fd)) <= 1e-5 * scale
            checked += 1


class TestProblemValidation:
    def test_preview_length_must_match(self):
        sys = LinearSystem(A=[[0.0]], B=[[1.0]])
        with pytest.raises(ValueError, match="horizon"):
            HorizonProblem(sys=sys, x0=np.zeros(1), costs=ZeroCost(), t0=0,
                           w_preview=DisturbanceSequence.zeros(3, 1), N=2)

    def test_horizon_positive(self):
        sys = LinearSystem(A=[[0.0]], B=[[1.0]])
        with pytest.raises(ValueError, match="at least 1"):
            HorizonProblem(sys=sys, x0=np.zeros(1), costs=ZeroCost(), t0=0,
                           w_preview=DisturbanceSequence.zeros(0, 1), N=0)

    def test_window_must_fit_cost_sequence(self):
        sys = LinearSystem(A=[[0.0]], B=[[1.0]])
        costs = scalar_quad(2)
        with pytest.raises(ValueError, match="exceeds"):
            HorizonProblem(sys=sys, x0=np.zeros(1), costs=costs, t0=1,
                           w_preview=DisturbanceSequence.zeros(2, 1), N=2)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(max_iters=0)
        with pytest.raises(ValueError, match="grad_tol"):
            SolverConfig(grad_tol=0.0)


class TestDispatch:
    def test_solve_routes_quadratic_to_exact_path(self):
        sys = LinearSystem(A=[[1.0]], B=[[1.0]])
        p = make_problem(sys, scalar_quad(2), [1.0], [[0.0], [0.0]])
        sol = solve(p)
        assert sol.iterations == 0 and sol.converged
        assert sol.value == pytest.approx(1.5, abs=1e-12)

    def test_solution_value_recomputed_independently(self):
        rng = np.random.default_rng(50)
        sys = LinearSystem(A=rng.uniform(-0.5, 0.5, (2, 2)), B=[[1.0], [0.5]])
        p = make_problem(sys, NonConvexCost(), [0.3, 0.9],
                         rng.uniform(-0.3, 0.3, (3, 2)))
        sol = solve(p, SolverConfig(seed=2))
        assert sol.value == pytest.approx(recompute_value(p, sol.u_opt), rel=1e-9)
