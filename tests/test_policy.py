"""Schedule construction and closed-loop policy runs."""

import numpy as np
import pytest

import prhc.solver
from family import compliant_quadratic_scenario
from prhc.bounds import a_factor, omega_op
from prhc.costs import (
    NonConvexCost, QuadraticCost, SetDistanceCost, quadratic_value_form, total_cost,
)
from prhc.linsys import DisturbanceSequence, LinearSystem, _propagate, rollout
from prhc.policy import WindowStop, build_schedule, run_policy
from prhc.solver import HorizonProblem, solve_quadratic


def scalar_quad(T):
    return QuadraticCost(np.ones((T, 1, 1)), np.ones((T, 1, 1)))


def random_quad(rng, n, m, T):
    Q = np.stack([np.diag(rng.uniform(1, 3, n)) for _ in range(T)])
    R = np.stack([np.diag(rng.uniform(1, 3, m)) for _ in range(T)])
    return QuadraticCost(Q, R)


class TestBuildSchedule:
    def test_step_three(self):
        assert build_schedule(6, 3, 15).t_list == (1, 4, 7, 10, 13)

    def test_replan_every_step(self):
        assert build_schedule(6, 5, 8).t_list == (1, 2, 3, 4, 5, 6, 7, 8)

    def test_step_two(self):
        assert build_schedule(4, 2, 5).t_list == (1, 3, 5)

    def test_single_window_when_preview_covers_task(self):
        sched = build_schedule(5, 2, 5)
        assert sched.t_list == (1,)
        assert not sched.truncated_tail

    def test_consecutive_gaps_and_coverage(self):
        sched = build_schedule(6, 3, 15)
        gaps = np.diff(sched.t_list)
        assert np.all(gaps == sched.N - sched.M)
        assert sched.t_list[0] == 1 and sched.t_list[-1] <= 15
        applied = sum(sched.applied_at(i) for i in range(len(sched.t_list)))
        assert applied == 15

    def test_truncated_tail_flag(self):
        # any N < T schedule overruns T (last start >= T-N+M+1), so only the
        # single-window N = T case escapes truncation
        assert build_schedule(6, 3, 15).truncated_tail  # last window 13..18
        assert build_schedule(4, 2, 6).truncated_tail   # last window 5..8
        assert not build_schedule(6, 3, 6).truncated_tail

    def test_rejects_overlap_too_small(self):
        with pytest.raises(ValueError, match="M >= 1"):
            build_schedule(4, 0, 10)

    def test_rejects_overlap_at_preview(self):
        with pytest.raises(ValueError, match="M < N"):
            build_schedule(4, 4, 10)

    def test_full_preview_allows_overlap_at_preview(self):
        # one window covers the task, so there is no next window to overlap
        assert build_schedule(1, 1, 1).t_list == (1,)
        assert build_schedule(3, 3, 3).t_list == (1,)
        with pytest.raises(ValueError, match="M < N"):
            build_schedule(3, 4, 3)

    def test_rejects_preview_past_horizon(self):
        with pytest.raises(ValueError, match="N <= T"):
            build_schedule(8, 4, 5)


class TestRunPolicy:
    def test_zero_disturbances_zero_start(self):
        sys = LinearSystem(A=[[0.5, 0.1], [0.0, 0.4]], B=[[1.0], [1.0]])
        costs = random_quad(np.random.default_rng(0), 2, 1, 10)
        sched = build_schedule(4, 2, 10)
        res = run_policy(sys, costs, DisturbanceSequence.zeros(10, 2),
                         np.zeros(2), sched)
        assert res.J == 0.0
        np.testing.assert_array_equal(res.traj.inputs, np.zeros((10, 1)))

    def test_full_preview_equals_batch_optimum(self):
        rng = np.random.default_rng(1)
        sys = LinearSystem(A=rng.uniform(-0.8, 0.8, (2, 2)), B=[[1.0], [0.3]])
        costs = random_quad(rng, 2, 1, 6)
        w = DisturbanceSequence.from_array(rng.uniform(0, 1, (6, 2)))
        x1 = rng.uniform(-1, 1, 2)
        for M in (1, 3, 5):
            res = run_policy(sys, costs, w, x1, build_schedule(6, M, 6))
            assert len(res.schedule.t_list) == 1
            batch = solve_quadratic(HorizonProblem(
                sys=sys, x0=x1, costs=costs, t0=0, w_preview=w, N=6))
            assert res.J == pytest.approx(batch.value, rel=1e-9)

    def test_hand_worked_scalar_run(self):
        # x_{t+1} = x_t + u_t + w_t, unit costs, T=4, N=2, M=1, x1=0,
        # w = (0.1, 0, 0.1, 0). Per-window calculus gives inputs
        # (-0.05, -0.025, -0.0625, 0) and J = 0.0140625; the policy may
        # trail the full-preview optimum but never beat it.
        sys = LinearSystem(A=[[1.0]], B=[[1.0]])
        costs = scalar_quad(4)
        w = DisturbanceSequence.from_array([[0.1], [0.0], [0.1], [0.0]])
        res = run_policy(sys, costs, w, [0.0], build_schedule(2, 1, 4))
        np.testing.assert_allclose(
            res.traj.inputs.ravel(), [-0.05, -0.025, -0.0625, 0.0], atol=1e-12
        )
        assert res.J == pytest.approx(0.0140625, rel=1e-12)
        batch = solve_quadratic(HorizonProblem(
            sys=sys, x0=np.zeros(1), costs=costs, t0=0, w_preview=w, N=4))
        assert res.J >= batch.value - 1e-12

    def test_solver_called_once_per_interval(self, monkeypatch):
        calls = []
        original = prhc.solver.solve

        def counting(p, cfg=None, u0=None):
            calls.append(p.t0)
            return original(p, cfg, u0=u0)

        monkeypatch.setattr(prhc.solver, "solve", counting)
        # per-window solves are the path of non-quadratic models; a quadratic
        # run solves its windows in one sweep and still returns one solution
        # per interval
        sys = LinearSystem(A=[[0.9, 0.0], [0.1, 0.8]], B=[[1.0], [0.5]])
        w = DisturbanceSequence.from_array(np.full((9, 2), 0.3))
        sched = build_schedule(4, 2, 9)
        run_policy(sys, NonConvexCost(b=0.2), w, np.zeros(2), sched)
        assert calls == [t - 1 for t in sched.t_list]
        calls.clear()
        res = run_policy(sys, random_quad(np.random.default_rng(3), 2, 1, 9), w,
                         np.zeros(2), sched)
        assert calls == []
        assert len(res.interval_solutions) == len(sched.t_list)

    def test_quadratic_run_makes_no_gradient_calls(self, monkeypatch):
        calls = []
        original = QuadraticCost.gradient

        def counting(self, t, x, u):
            calls.append(t)
            return original(self, t, x, u)

        monkeypatch.setattr(QuadraticCost, "gradient", counting)
        rng = np.random.default_rng(7)
        sys = LinearSystem(A=rng.uniform(-0.5, 0.5, (2, 2)), B=[[1.0], [0.7]])
        costs = random_quad(rng, 2, 1, 12)
        w = DisturbanceSequence.from_array(rng.uniform(0, 1, (12, 2)))
        run_policy(sys, costs, w, np.zeros(2), build_schedule(6, 3, 12))
        assert calls == []

    def test_warm_start_seeds_next_interval_with_shifted_tail(self, monkeypatch):
        received = []
        returned = []
        original = prhc.solver.solve

        def capturing(p, cfg=None, u0=None):
            received.append(None if u0 is None else np.array(u0))
            returned.append(original(p, cfg, u0=u0))
            return returned[-1]

        monkeypatch.setattr(prhc.solver, "solve", capturing)
        rng = np.random.default_rng(5)
        sys = LinearSystem(A=[[0.6, 0.0], [0.2, 0.5]], B=[[1.0], [0.4]])
        costs = NonConvexCost(b=0.2)  # warm starts are the per-window path
        w = DisturbanceSequence.from_array(rng.uniform(0, 1, (10, 2)))
        sched = build_schedule(6, 3, 10)
        res = run_policy(sys, costs, w, np.zeros(2), sched)
        assert res.interval_solutions == tuple(
            WindowStop(converged=s.converged, iterations=s.iterations) for s in returned)
        assert received[0] is None
        for i in range(1, len(sched.t_list)):
            tail = returned[i - 1].u_opt[sched.applied_at(i - 1):]
            expected = np.zeros((sched.horizon_at(i), sys.m))
            keep = min(len(tail), len(expected))
            expected[:keep] = tail[:keep]
            np.testing.assert_array_equal(received[i], expected)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        sys = LinearSystem(A=rng.uniform(-0.5, 0.5, (2, 2)), B=[[1.0], [1.0]])
        costs = NonConvexCost(b=0.2)
        w = DisturbanceSequence.from_array(rng.uniform(0, 1, (8, 2)))
        sched = build_schedule(4, 2, 8)
        a = run_policy(sys, costs, w, np.zeros(2), sched)
        b = run_policy(sys, costs, w, np.zeros(2), sched)
        np.testing.assert_array_equal(a.traj.inputs, b.traj.inputs)
        np.testing.assert_array_equal(a.traj.states, b.traj.states)
        assert a.J == b.J

    def test_short_disturbance_sequence_rejected(self):
        sys = LinearSystem(A=[[0.5]], B=[[1.0]])
        with pytest.raises(ValueError, match="task horizon"):
            run_policy(sys, scalar_quad(6), DisturbanceSequence.zeros(4, 1),
                       [0.0], build_schedule(3, 1, 6))

    @pytest.mark.parametrize("costs", [
        QuadraticCost(np.stack([np.eye(2)] * 6), np.ones((6, 1, 1))),
        SetDistanceCost(a_seq=np.ones(6), center=np.zeros(2), radius=0.25),
    ], ids=["quadratic", "set_distance"])
    @pytest.mark.parametrize("w,x1,message", [
        (np.zeros((6, 3)), np.zeros(2),
         "disturbances have 3 components but the state dimension is n=2"),
        (np.zeros((6, 2)), np.zeros(3),
         "initial state has 3 entries but the state dimension is n=2"),
    ], ids=["w", "x1"])
    def test_dimension_mismatch_rejected_before_solving(self, costs, w, x1, message):
        # the exact and the descent branch raise the same error
        sys = LinearSystem(A=0.5 * np.eye(2), B=np.ones((2, 1)))
        with pytest.raises(ValueError, match=message):
            run_policy(sys, costs, DisturbanceSequence.from_array(w), x1,
                       build_schedule(3, 1, 6))

    def test_cost_length_mismatch_rejected(self):
        sys = LinearSystem(A=[[0.5]], B=[[1.0]])
        with pytest.raises(ValueError, match="cost sequence"):
            run_policy(sys, scalar_quad(5), DisturbanceSequence.zeros(6, 1),
                       [0.0], build_schedule(3, 1, 6))

    def test_solver_failure_reports_interval(self, monkeypatch):
        def failing(p, cfg=None, u0=None):
            if p.t0 >= 2:
                raise RuntimeError("iteration 1: non-finite cost")
            return prhc.solver.solve_general(p, cfg, u0=u0)

        monkeypatch.setattr(prhc.solver, "solve", failing)
        sys = LinearSystem(A=[[0.5, 0.0], [0.0, 0.5]], B=[[1.0], [1.0]])
        w = DisturbanceSequence.from_array(np.full((6, 2), 0.1))
        with pytest.raises(RuntimeError, match="interval 2"):
            run_policy(sys, NonConvexCost(b=0.2), w, np.zeros(2),
                       build_schedule(3, 1, 6))

    def test_non_finite_window_law_reports_interval(self, monkeypatch):
        # a NaN stage weight reaches the laws of the windows that cover it
        # and no earlier ones, so the first such window is interval 2, whose
        # 0-based start is 2
        sys = LinearSystem(A=[[0.5]], B=[[1.0]])
        costs = scalar_quad(6)
        Q = costs.Q_seq.copy()
        Q[3] = np.nan
        monkeypatch.setattr(costs, "Q_seq", Q)
        w = DisturbanceSequence.from_array(np.full((6, 1), 0.1))
        with pytest.raises(ValueError, match="window from start 2 is not finite"):
            run_policy(sys, costs, w, [0.0], build_schedule(3, 1, 6))

    def test_normal_matrix_without_cholesky_factor_names_its_window_start(
            self, monkeypatch):
        rng = np.random.default_rng(12)
        sys = LinearSystem(A=[[0.6, 0.1], [0.0, 0.5]], B=[[1.0], [0.4]])
        costs = random_quad(rng, 2, 1, 10)
        R = costs.R_seq.copy()
        R[4] = -1e6 * np.eye(1)
        monkeypatch.setattr(costs, "R_seq", R)
        w = DisturbanceSequence.from_array(rng.uniform(0, 1, (10, 2)))
        with pytest.raises(ValueError, match="window from start 2 is singular"):
            run_policy(sys, costs, w, np.zeros(2), build_schedule(4, 2, 10))

    @pytest.mark.parametrize("kind,m,N,M,T", [
        ("quadratic", 1, 4, 2, 9),    # last window truncated at T
        ("quadratic", 2, 5, 2, 11),
        ("nonconvex", 2, 4, 1, 7),
    ])
    def test_states_replay_through_rollout(self, kind, m, N, M, T):
        rng = np.random.default_rng(11)
        sys = LinearSystem(A=rng.uniform(-0.6, 0.6, (2, 2)),
                           B=rng.uniform(-1, 1, (2, m)))
        costs = random_quad(rng, 2, m, T) if kind == "quadratic" else NonConvexCost(b=0.2)
        w = DisturbanceSequence.from_array(rng.uniform(0, 1, (T, 2)))
        x1 = rng.uniform(-1, 1, 2)
        sched = build_schedule(N, M, T)
        res = run_policy(sys, costs, w, x1, sched)
        replay = rollout(sys, x1, res.traj.inputs, res.traj.disturbances)
        np.testing.assert_array_equal(replay.states, res.traj.states)

    def test_stage_costs_filled_and_sum_to_J(self):
        rng = np.random.default_rng(8)
        sys = LinearSystem(A=rng.uniform(0, 0.6, (2, 2)), B=[[1.0], [1.0]])
        costs = random_quad(rng, 2, 1, 9)
        w = DisturbanceSequence.from_array(rng.uniform(0, 1, (9, 2)))
        res = run_policy(sys, costs, w, np.zeros(2), build_schedule(4, 2, 9))
        stage = costs.eval(np.arange(9), res.traj.states[:9], res.traj.inputs)
        assert stage.shape == (9,)
        assert res.J == pytest.approx(float(stage.sum()), rel=1e-12)
        assert res.J > 0


def dense_run_cost(sys, costs, w, x1, sched):
    """J of a run that solves each window on its own with solve_quadratic,
    the reference for the batched quadratic path."""
    x = np.asarray(x1, dtype=float)
    inputs = []
    for i, t_i in enumerate(sched.t_list):
        h = sched.horizon_at(i)
        sol = solve_quadratic(HorizonProblem(sys=sys, x0=x, costs=costs, t0=t_i - 1,
                                             w_preview=w.window(t_i - 1, t_i - 1 + h),
                                             N=h))
        u = sol.u_opt[:sched.applied_at(i)]
        x = rollout(sys, x, u, w.w[t_i - 1:t_i - 1 + len(u)]).states[-1]
        inputs.append(u)
    traj = rollout(sys, x1, np.concatenate(inputs), w.w[:sched.T])
    return total_cost(traj, costs)


def quadratic_runs(st):
    """Strategy, built from hypothesis' strategies module st, of small
    quadratic runs (sys, costs, w, x1, sched)."""

    @st.composite
    def runs(draw):
        n = draw(st.integers(1, 4))
        m = draw(st.integers(1, 2))
        N = draw(st.integers(2, 8))
        M = draw(st.integers(1, N - 1))
        T = N + draw(st.integers(0, 10))  # N < T truncates the last window
        rho = draw(st.floats(0.3, 1.2))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        A = rng.normal(size=(n, n))
        A *= rho / np.max(np.abs(np.linalg.eigvals(A)))
        sys = LinearSystem(A=A, B=rng.normal(size=(n, m)))
        Qf = rng.normal(size=(T, n, n))
        Rf = rng.normal(size=(T, m, m))
        costs = QuadraticCost(Qf @ Qf.transpose(0, 2, 1) + 0.1 * np.eye(n),
                              Rf @ Rf.transpose(0, 2, 1) + 0.1 * np.eye(m))
        w = DisturbanceSequence.from_array(rng.uniform(0, 1, (T, n)))
        return sys, costs, w, rng.uniform(-1, 1, n), build_schedule(N, M, T)

    return runs()


def per_window_propagation(sys, costs, w, x1, sched):
    """States and inputs of a run that propagates each window's law on its
    own, window after window: the bitwise reference for the one propagation
    of a quadratic run."""
    starts = np.array(sched.t_list) - 1
    K, f = prhc.solver._window_laws(sys, costs, w.w, starts, sched.N)
    x = np.asarray(x1, dtype=float)
    states, inputs = [x[None]], []
    for i, t_i in enumerate(sched.t_list):
        applied = sched.applied_at(i)
        u = -f[:applied, i]
        xs = _propagate(sys, x, u, w.w[t_i - 1:t_i - 1 + applied], K[:applied, i])
        states.append(xs[1:])
        inputs.append(u)
        x = xs[-1]
    return np.concatenate(states), np.concatenate(inputs)


def test_batched_quadratic_run_equals_per_window_solves():
    # a property test, skipped without hypothesis like the property modules
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=80)
    @hypothesis.given(quadratic_runs(st))
    def check(case):
        # each window's applied inputs equal those of a fresh dense solve from
        # the realized window start state, J that of a run of dense window
        # solves, and the states and inputs those of per-window propagations
        sys, costs, w, x1, sched = case
        res = run_policy(sys, costs, w, x1, sched)
        assert len(res.interval_solutions) == len(sched.t_list)
        for i, t_i in enumerate(sched.t_list):
            h = sched.horizon_at(i)
            applied = sched.applied_at(i)
            ref = solve_quadratic(HorizonProblem(
                sys=sys, x0=res.traj.states[t_i - 1], costs=costs, t0=t_i - 1,
                w_preview=w.window(t_i - 1, t_i - 1 + h), N=h)).u_opt[:applied]
            u = res.traj.inputs[t_i - 1:t_i - 1 + applied]
            assert np.all(np.abs(u - ref) <= 1e-8 * np.maximum(1.0, np.abs(ref)))
            assert res.interval_solutions[i] == WindowStop(converged=True, iterations=0)
        assert res.J == pytest.approx(dense_run_cost(sys, costs, w, x1, sched), rel=1e-9)
        states, inputs = per_window_propagation(sys, costs, w, x1, sched)
        np.testing.assert_array_equal(res.traj.states, states)
        np.testing.assert_array_equal(res.traj.inputs, inputs)

    check()


class TestStandardRhc:
    def test_replans_every_step(self):
        N, T = 3, 7
        sys = LinearSystem(A=[[0.8]], B=[[1.0]])
        costs = scalar_quad(T)
        w = DisturbanceSequence.from_array(np.full((T, 1), 0.25))
        res = run_policy(sys, costs, w, [0.0], build_schedule(N, N - 1, T))
        assert res.schedule.M == 2
        assert res.schedule.t_list == tuple(range(1, T + 1))

    def test_full_preview_case_matches_policy(self):
        rng = np.random.default_rng(9)
        sys = LinearSystem(A=rng.uniform(-0.7, 0.7, (2, 2)), B=[[1.0], [0.5]])
        costs = random_quad(rng, 2, 1, 5)
        w = DisturbanceSequence.from_array(rng.uniform(0, 1, (5, 2)))
        x1 = rng.uniform(-1, 1, 2)
        res = run_policy(sys, costs, w, x1, build_schedule(5, 4, 5))
        batch = solve_quadratic(HorizonProblem(
            sys=sys, x0=x1, costs=costs, t0=0, w_preview=w, N=5))
        assert res.J == pytest.approx(batch.value, rel=1e-9)


def policy_form(sys, costs, sched):
    """P with J = z'Pz for z = (x1, w_1..w_T), for a quadratic model.

    Every window input is linear in (x, w), so a run's states and inputs are
    linear in z; the n + T*n unit runs give their maps column by column.
    """
    n, T = sys.n, sched.T
    d = n * (T + 1)
    xs = np.empty((d, T, n))
    us = np.empty((d, T, sys.m))
    for i, z in enumerate(np.eye(d)):
        w = DisturbanceSequence.from_array(z[n:].reshape(T, n))
        traj = run_policy(sys, costs, w, z[:n], sched).traj
        xs[i], us[i] = traj.states[:T], traj.inputs
    P = (np.einsum("itj,tjk,ltk->il", xs, costs.Q_seq, xs)
         + np.einsum("itj,tjk,ltk->il", us, costs.R_seq, us))
    return 0.5 * (P + P.T)


class TestOracleGap:
    """The oracle, the value form of one window over the whole task, never
    costs more than a policy run from the same (x1, w): P_pol - P_oracle is
    positive semidefinite, and zero for a single full-task window. This
    checks the value form against policy runs, apart from the dense formula.

    The overlap run's form also checks the certificate exactly: J <=
    c1*sigma(x1) + c2*|w|^2 holds for every (x1, w) exactly when
    diag(c1*I_n, c2*I_nT) - P is positive semidefinite, with
    c1 = alpha_hi/(1 - a) and c2 = omega_op*gamma_bar_sq."""

    @pytest.mark.parametrize("seed", range(6))
    def test_oracle_never_beats_a_policy_by_less_than_zero(self, seed):
        sc = compliant_quadratic_scenario(seed)
        N, M, T = sc.sched.N, sc.sched.M, sc.sched.T
        P_or = quadratic_value_form(sc.sys, sc.costs, 0, T)
        for sched in (sc.sched, build_schedule(N, N - 1, T)):
            P = policy_form(sc.sys, sc.costs, sched)
            z = np.concatenate([sc.x1, sc.w.w.ravel()])
            J = run_policy(sc.sys, sc.costs, sc.w, sc.x1, sched).J
            assert z @ P @ z == pytest.approx(J, rel=1e-9)
            tol = 1e-9 * np.max(np.abs(P))
            assert np.linalg.eigvalsh(P - P_or)[0] >= -tol
            if sched is sc.sched:
                P_overlap, tol_overlap = P, tol
        beta = sc.params.beta
        c1 = sc.params.alpha_hi / (1.0 - a_factor(beta, M))
        c2 = omega_op(beta, M) * sc.params.gamma_bar_sq
        n = sc.sys.n
        bound = np.diag(np.concatenate([np.full(n, c1), np.full(n * T, c2)]))
        assert np.linalg.eigvalsh(bound - P_overlap)[0] >= -tol_overlap
        P = policy_form(sc.sys, sc.costs, build_schedule(T, T - 1, T))
        assert np.max(np.abs(P - P_or)) <= 1e-9 * np.max(np.abs(P_or))
