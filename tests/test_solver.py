"""Window solver: exact quadratic path, descent path, adjoint gradients."""

import dataclasses
import re
import warnings

import numpy as np
import pytest

from prhc.costs import (
    CostModel,
    NonConvexCost,
    QuadraticCost,
    SetDistanceCost,
    estimate_alpha_lower,
    estimate_params,
    quadratic_value_form,
)
from prhc.harness import ScenarioConfig, brute_force_oracle, gen_scenario
from prhc.linsys import DisturbanceSequence, LinearSystem, rollout, stack_dynamics
from prhc.solver import (
    NORMAL_COND_MAX,
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


def value_form_window(sc, h):
    """The scenario's first h-step window from x1, and its value z'Pz from
    the Riccati value form."""
    w = sc.w_full.window(0, h)
    p = HorizonProblem(sys=sc.sys, x0=sc.x1, costs=sc.costs, t0=0, w_preview=w, N=h)
    z = np.concatenate([sc.x1, w.w.ravel()])
    return p, float(z @ quadratic_value_form(sc.sys, sc.costs, 0, h) @ z)


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

    def gradient(self, t, x, u):
        return np.zeros(np.shape(x)), np.zeros(np.shape(u))

    def sigma(self, x):
        x = np.asarray(x, dtype=float)
        return np.sum(x * x, axis=-1)


class DoubleWellCost(CostModel):
    """Wells of equal depth at u=1 and u=-2: a non-convex model."""

    convex = False
    length = None

    def eval(self, t, x, u):
        u = np.asarray(u, dtype=float)
        g = (u[..., 0] - 1.0) * (u[..., 0] + 2.0)
        return g * g

    def gradient(self, t, x, u):
        u = np.asarray(u, dtype=float)
        gu = np.zeros_like(u)
        gu[..., 0] = 2.0 * (u[..., 0] - 1.0) * (u[..., 0] + 2.0) * (2.0 * u[..., 0] + 1.0)
        return np.zeros(np.shape(x)), gu

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

    def gradient(self, t, x, u):
        u = np.asarray(u, dtype=float)
        gu = np.zeros_like(u)
        gu[..., 0] = 2e300 * (u[..., 0] - 1.0)
        return np.zeros(np.shape(x)), gu

    def sigma(self, x):
        x = np.asarray(x, dtype=float)
        return np.sum(x * x, axis=-1)


class NoGradientCost(CostModel):
    """A custom model that leaves out gradient."""

    convex = True
    length = None

    def eval(self, t, x, u):
        return np.sum(np.square(x), axis=-1) + np.sum(np.square(u), axis=-1)

    def sigma(self, x):
        return np.sum(np.square(x), axis=-1)


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

    def test_non_symmetric_weights_use_their_symmetric_part(self):
        # x'Qx sees only the symmetric part of Q; the closed form and the
        # descent gradient must minimize that same cost
        Q = np.array([[1.0, 2.0], [-1.5, 1.0]])
        costs = QuadraticCost(np.stack([Q] * 4), np.stack([[[1.0]]] * 4))
        sys = LinearSystem(A=[[0.9, 0.3], [-0.2, 0.8]], B=[[0.0], [1.0]])
        w = np.random.default_rng(8).uniform(0, 1, (4, 2))
        p = make_problem(sys, costs, [1.0, -1.0], w)
        exact = solve_quadratic(p)
        descent = solve_general(p)
        assert descent.converged
        assert exact.value <= descent.value
        assert exact.value == pytest.approx(descent.value, abs=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("m", [1, 2])
    def test_value_is_horizon_objective_bit_for_bit(self, n, m):
        # the value is batched over the window's stages; it must equal the
        # stage-by-stage walk exactly, on full and tail windows and with
        # non-symmetric weights
        rng = np.random.default_rng(10 * n + m)
        L, N = 12, 5
        Q = rng.normal(size=(L, n, n))
        skew = rng.normal(size=(L, n, n))
        Q = Q @ Q.transpose(0, 2, 1) + 0.1 * np.eye(n) + skew - skew.transpose(0, 2, 1)
        R = rng.normal(size=(L, m, m))
        costs = QuadraticCost(Q, R @ R.transpose(0, 2, 1) + 0.1 * np.eye(m))
        sys = LinearSystem(A=rng.uniform(-0.6, 0.6, (n, n)), B=rng.normal(size=(n, m)))
        for t0 in range(L):
            h = min(N, L - t0)
            p = make_problem(sys, costs, rng.uniform(-2, 2, n),
                             rng.uniform(0, 1, (h, n)), t0=t0)
            sol = solve_quadratic(p)
            assert sol.value == horizon_objective(p, sol.u_opt)

    def test_value_is_exact_or_refused_on_long_windows(self):
        # from x1 = 0 on seeds 0-9 (T=100) at h in {40, 60, 100}, where six
        # seeds have rho(A) > 1: every window is either refused by name or
        # valued to 1e-12 of z'Pz, never valued wrong
        refused = 0
        for seed in range(10):
            sc = gen_scenario(seed, ScenarioConfig(cost_kind="quadratic", T=100, N=40))
            for h in (40, 60, 100):
                p, ref = value_form_window(sc, h)
                try:
                    value = solve_quadratic(p).value
                except ValueError as exc:
                    assert "ill-conditioned" in str(exc)
                    refused += 1
                    continue
                assert value == pytest.approx(ref, rel=1e-12)
        assert 0 < refused < 30

    def test_refuses_seed_4_window_of_60(self):
        sc = gen_scenario(4, ScenarioConfig(cost_kind="quadratic", T=100, N=60))
        p, _ = value_form_window(sc, 60)
        with pytest.raises(ValueError, match=re.escape(
                f"beyond condition number {NORMAL_COND_MAX:.0e} solve_quadratic is not exact")):
            solve_quadratic(p)

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

        sol = solve_general(p, SolverConfig())
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

    def test_roundoff_floor_is_a_normal_stop(self):
        # with grad_tol out of reach the descent can end only where the line
        # search's expected decrease falls to the rounding of the value
        sys = LinearSystem(A=[[0.4, 0.0], [0.2, 0.3]], B=[[1.0], [0.0]])
        p = make_problem(sys, NonConvexCost(), [0.8, 0.4], [[0.1, 0.0], [0.0, 0.1]])
        sol = solve_general(p, SolverConfig(grad_tol=1e-300))
        assert sol.converged
        assert 0 < sol.iterations < SolverConfig().max_iters
        assert sol.value == pytest.approx(solve_general(p).value, rel=1e-12)

    def test_max_iters_stop_is_not_converged(self):
        sys = LinearSystem(A=[[0.4, 0.0], [0.2, 0.3]], B=[[1.0], [0.0]])
        p = make_problem(sys, NonConvexCost(), [0.8, 0.4], [[0.1, 0.0], [0.0, 0.1]])
        sol = solve_general(p, SolverConfig(max_iters=1))
        assert sol.iterations == 1 and not sol.converged

    @pytest.mark.parametrize("kind", ["nonconvex", "set_distance"])
    def test_value_equals_objective_at_returned_inputs(self, kind):
        # the value is the descent's own cost, bit for bit the window
        # objective at the returned inputs
        rng = np.random.default_rng(21)
        sys = LinearSystem(A=rng.uniform(-0.5, 0.5, (2, 2)), B=[[1.0], [0.6]])
        w = rng.uniform(0, 0.3, (5, 2))
        if kind == "nonconvex":
            costs = NonConvexCost(b=0.2)
        else:
            costs = SetDistanceCost(rng.uniform(0.1, 1, 5), center=[0.5, 0.5],
                                    radius=0.25)
        for _ in range(4):
            p = make_problem(sys, costs, rng.uniform(-1.5, 1.5, 2), w)
            sol = solve_general(p, SolverConfig(), u0=rng.normal(size=5))
            assert sol.value == horizon_objective(p, sol.u_opt)

    @pytest.mark.parametrize("u0, well", [(-2.1, -2.0), (1.1, 1.0)])
    def test_non_convex_model_gets_one_descent(self, u0, well):
        # a descent started near a well stays in it; no restart looks into
        # the other well of equal depth
        sys = LinearSystem(A=[[0.0]], B=[[1.0]])
        p = make_problem(sys, DoubleWellCost(), [0.0], [[0.0]])
        sol = solve_general(p, SolverConfig(), u0=[u0])
        assert sol.value == pytest.approx(0.0, abs=1e-12)
        assert sol.u_opt[0, 0] == pytest.approx(well, abs=1e-4)

    def test_deterministic(self):
        sys = LinearSystem(A=[[0.4, 0.0], [0.2, 0.3]], B=[[1.0], [0.0]])
        p = make_problem(sys, NonConvexCost(), [0.8, 0.4], [[0.1, 0.0], [0.0, 0.1]])
        a = solve_general(p, SolverConfig())
        b = solve_general(p, SolverConfig())
        np.testing.assert_array_equal(a.u_opt, b.u_opt)
        assert a.value == b.value

    def test_non_finite_cost_raises_with_iterate(self):
        sys = LinearSystem(A=[[0.0]], B=[[1.0]])
        p = make_problem(sys, OverflowCost(), [0.0], [[0.0]])
        with np.errstate(over="ignore"):
            with pytest.raises(RuntimeError, match="iteration"):
                solve_general(p, SolverConfig())

    def test_model_without_gradient_is_named(self):
        p = make_problem(LinearSystem(A=[[0.0]], B=[[1.0]]), NoGradientCost(),
                         [1.0], [[0.0], [0.0]])
        with pytest.raises(NotImplementedError, match="NoGradientCost defines no gradient"):
            p.costs.gradient(0, p.x0, np.zeros(1))
        with pytest.raises(RuntimeError, match=r"iteration 0: NoGradientCost defines no "
                                               r"gradient\(t, x, u\); the window descent "
                                               r"needs one"):
            solve_general(p)

    def test_one_eval_and_one_gradient_call_per_objective(self, monkeypatch):
        # each objective evaluation costs the window's stages in one eval
        # call and one gradient call, on the stage array t0..t0+N-1
        calls = []
        for name in ("eval", "gradient"):
            def counting(self, t, x, u, name=name, original=getattr(NonConvexCost, name)):
                calls.append((name, np.asarray(t).tolist()))
                return original(self, t, x, u)

            monkeypatch.setattr(NonConvexCost, name, counting)
        sys = LinearSystem(A=[[0.5, 0.2], [0.1, 0.3]], B=[[1.0], [1.0]])
        p = make_problem(sys, NonConvexCost(), [1.5, -1.0],
                         [[0.1, 0.1], [0.0, -0.1], [0.05, 0.0], [0.0, 0.0]], t0=3)
        solve_general(p, SolverConfig())
        assert len(calls) >= 4
        assert calls == [("eval", [3, 4, 5, 6]), ("gradient", [3, 4, 5, 6])] * (len(calls) // 2)

    def test_value_dominates_alpha_sigma_sum(self):
        rng = np.random.default_rng(30)
        sys = LinearSystem(A=rng.uniform(0, 0.5, (2, 2)), B=[[1.0], [1.0]])
        models = [
            random_quad(rng, 2, 1, 4),
            SetDistanceCost(rng.uniform(0.1, 1, 4), center=[0.5, 0.5], radius=0.25),
            NonConvexCost(b=0.2),
        ]
        for costs in models:
            # the cubic well has eval(t, x, 0) = sigma(x), so alpha_lo = 1;
            # the set-distance model has eval(t, x, 0) = a_t sigma(x)
            alpha = (1.0 if isinstance(costs, NonConvexCost)
                     else costs.a_seq.min() if isinstance(costs, SetDistanceCost)
                     else estimate_alpha_lower(costs))
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

    def test_initial_state_must_match_state_dimension(self):
        sys = LinearSystem(A=np.zeros((2, 2)), B=[[1.0], [0.0]])
        with pytest.raises(ValueError, match=re.escape(
                "initial state has 3 entries but the state dimension is n=2")):
            HorizonProblem(sys=sys, x0=np.zeros(3), costs=ZeroCost(), t0=0,
                           w_preview=DisturbanceSequence.zeros(2, 2), N=2)

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

    def test_quadratic_value_is_horizon_objective_bit_for_bit(self):
        # full and tail windows of a time-varying model; the Riccati law's
        # value agrees with the dense reference on these short stable windows
        rng = np.random.default_rng(51)
        L, N, n, m = 10, 4, 3, 2
        costs = random_quad(rng, n, m, L)
        sys = LinearSystem(A=rng.uniform(-0.6, 0.6, (n, n)), B=rng.normal(size=(n, m)))
        for t0 in range(L):
            p = make_problem(sys, costs, rng.uniform(-2, 2, n),
                             rng.uniform(0, 1, (min(N, L - t0), n)), t0=t0)
            sol = solve(p)
            assert sol.value == horizon_objective(p, sol.u_opt)
            assert sol.value == pytest.approx(solve_quadratic(p).value, rel=1e-12)

    def test_non_finite_quadratic_window_law_names_its_start(self, monkeypatch):
        # the one-start law sweep checks its law as a policy run's does,
        # rather than return value=nan with converged=True
        sys = LinearSystem(A=[[0.5]], B=[[1.0]])
        costs = scalar_quad(6)
        Q = costs.Q_seq.copy()
        Q[3] = np.nan
        monkeypatch.setattr(costs, "Q_seq", Q)
        p = make_problem(sys, costs, [1.0], np.full((3, 1), 0.1), t0=2)
        with pytest.raises(ValueError, match="window from start 2 is not finite"):
            solve(p)

    @pytest.mark.parametrize("mode", ["always", "error"])
    def test_overflowing_sweeps_name_their_window_in_every_warning_mode(self, mode):
        # A = 1e120 overflows the first Riccati stages; the sweeps run with
        # floating-point warnings off, so the finiteness checks at their ends
        # name the window whether or not warnings are errors
        sys = LinearSystem(A=[[1e120]], B=[[1.0]])
        costs = scalar_quad(8)
        p = make_problem(sys, costs, [0.0], np.full((8, 1), 0.1))
        calls = [(solve, (p,), "law of the window from start 0 is not finite"),
                 (estimate_params, (sys, costs, 8),
                  "value form of the window from start 0 is not finite")]
        for call, args, message in calls:
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter(mode)
                with pytest.raises(ValueError, match=message):
                    call(*args)
            assert seen == []

    @pytest.mark.parametrize("mode", ["always", "error"])
    def test_overflowing_descent_and_grid_scan_name_their_failure_in_every_warning_mode(
            self, mode):
        # A = 1e200 overflows the second state; the descent's objective and
        # the grid oracle's scan run with floating-point warnings off, so
        # their finiteness checks name the failure whether or not warnings
        # are errors
        sys = LinearSystem(A=1e200 * np.eye(2), B=[[1.0], [1.0]])
        p = make_problem(sys, NonConvexCost(), [1.0, 1.0], np.zeros((3, 2)))
        sc = gen_scenario(0, ScenarioConfig(cost_kind="quadratic", n=1, m=1, T=3, N=3))
        sc = dataclasses.replace(sc, sys=LinearSystem(A=[[1e200]], B=sc.sys.B),
                                 x1=np.array([1.0]))
        calls = [(solve_general, (p,), RuntimeError,
                  r"iteration 0: stage cost at step 1 is not finite \(inf\)"),
                 (brute_force_oracle, (sc, 0.5, 2.0), ValueError,
                  "no finite cost on the grid of 729 points")]
        for call, args, error, message in calls:
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter(mode)
                with pytest.raises(error, match=message):
                    call(*args)
            assert seen == []

    def test_quadratic_window_matches_value_form_on_unstable_system(self):
        # seed 4 at T=100 has rho(A) = 1.34; on its 60-step window the dense
        # normal equations were 7.7e-3 off z'Pz
        sc = gen_scenario(4, ScenarioConfig(cost_kind="quadratic", T=100, N=60))
        assert max(abs(np.linalg.eigvals(sc.sys.A))) == pytest.approx(1.34, abs=5e-3)
        p, ref = value_form_window(sc, 60)
        sol = solve(p)
        assert sol.converged and sol.iterations == 0
        assert sol.value == pytest.approx(ref, rel=1e-12)

    def test_solution_value_recomputed_independently(self):
        rng = np.random.default_rng(50)
        sys = LinearSystem(A=rng.uniform(-0.5, 0.5, (2, 2)), B=[[1.0], [0.5]])
        p = make_problem(sys, NonConvexCost(), [0.3, 0.9],
                         rng.uniform(-0.3, 0.3, (3, 2)))
        sol = solve(p, SolverConfig())
        assert sol.value == pytest.approx(recompute_value(p, sol.u_opt), rel=1e-9)
