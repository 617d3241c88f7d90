"""Scenario generation, comparison experiments, grid oracle, and reports."""

import dataclasses
import gc
import json
import math
import re

import numpy as np
import pytest

from prhc import harness
from prhc.bounds import recursion_audit
from prhc.costs import (
    CostModel,
    EnvelopeParams,
    NonConvexCost,
    QuadraticCost,
    quadratic_value_form,
)
from prhc.harness import (
    CSV_HEADER,
    ExperimentReport,
    ReportRow,
    Scenario,
    ScenarioConfig,
    aggregate_report,
    brute_force_oracle,
    emit_report,
    gen_scenario,
    load_report,
    run_comparison,
    run_table1,
    scenario_params,
)
from prhc.linsys import DisturbanceSequence, LinearSystem
from prhc.policy import build_schedule, run_policy
from prhc.solver import HorizonProblem, SolverConfig, solve_quadratic
from test_solver import DoubleWellCost


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
        return np.zeros(x.shape[:-1])


def scalar_scenario(costs, w_rows, x1, T, cost_kind="quadratic"):
    w = np.asarray(w_rows, dtype=float).reshape(T, 1)
    return Scenario(
        seed=0, config=ScenarioConfig(n=1, m=1, T=T, N=T),
        sys=LinearSystem(A=[[1.0]], B=[[1.0]]), cost_kind=cost_kind,
        costs=costs, w_full=DisturbanceSequence.from_array(w),
        x1=np.asarray(x1, dtype=float).reshape(1), T=T, N=T,
    )


def unit_quad(T):
    return QuadraticCost(np.ones((T, 1, 1)), np.ones((T, 1, 1)))


class InfCost(ZeroCost):
    def eval(self, t, x, u):
        return np.full(np.shape(x)[:-1], math.inf)


class PoisonedCost(CostModel):
    """Unit quadratic stage cost, replaced by `value` where stage `stage` has
    u_0 < -1.5 (every stage when `stage` is None)."""

    convex = True
    length = None

    def __init__(self, value, stage=None):
        self.value = value
        self.stage = stage

    def eval(self, t, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        c = np.sum(x * x, axis=-1) + np.sum(u * u, axis=-1)
        hit = u[..., 0] < -1.5
        if self.stage is not None:
            hit = hit & (np.asarray(t) == self.stage)
        return np.where(hit, self.value, c)

    def gradient(self, t, x, u):
        # of the unit quadratic; the poisoned values are constant
        return 2.0 * np.asarray(x, dtype=float), 2.0 * np.asarray(u, dtype=float)

    def sigma(self, x):
        x = np.asarray(x, dtype=float)
        return np.sum(x * x, axis=-1)


def vector_scenario(costs, n, m, T, seed=0):
    """Random (A, B, w) of the given sizes under a caller-chosen cost model."""
    rng = np.random.default_rng(seed)
    return Scenario(
        seed=seed, config=ScenarioConfig(n=n, m=m, T=T, N=T),
        sys=LinearSystem(A=rng.uniform(0, 1, (n, n)), B=rng.uniform(-1, 1, (n, m))),
        cost_kind="quadratic", costs=costs,
        w_full=DisturbanceSequence.from_array(rng.uniform(0, 1, (T, n))),
        x1=rng.uniform(0, 1, n), T=T, N=T,
    )


class TestScenarioConfig:
    def test_defaults(self):
        cfg = ScenarioConfig()
        assert cfg.cost_kind == "quadratic" and cfg.n == 2 and cfg.T == 15

    def test_rejections(self):
        with pytest.raises(ValueError, match="cost_kind"):
            ScenarioConfig(cost_kind="mystery")
        with pytest.raises(ValueError, match="at least 1"):
            ScenarioConfig(n=0)
        with pytest.raises(ValueError, match="N <= T"):
            ScenarioConfig(N=16, T=15)
        with pytest.raises(ValueError, match="n >= 2"):
            ScenarioConfig(cost_kind="nonconvex", n=1)


class TestGenScenario:
    def test_same_seed_identical(self):
        for kind in ("quadratic", "nonconvex", "set_distance"):
            cfg = ScenarioConfig(cost_kind=kind)
            a, b = gen_scenario(7, cfg), gen_scenario(7, cfg)
            np.testing.assert_array_equal(a.sys.A, b.sys.A)
            np.testing.assert_array_equal(a.w_full.w, b.w_full.w)
            if kind == "quadratic":
                np.testing.assert_array_equal(a.costs.Q_seq, b.costs.Q_seq)
            if kind == "set_distance":
                np.testing.assert_array_equal(a.costs.a_seq, b.costs.a_seq)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError,
                           match="^seed must be a non-negative integer, got -1$"):
            gen_scenario(-1)

    def test_seed_changes_draws(self):
        assert not np.array_equal(gen_scenario(0).sys.A, gen_scenario(1).sys.A)

    def test_ranges(self):
        sc = gen_scenario(4)
        assert np.all(sc.sys.A >= 0) and np.all(sc.sys.A <= 1)
        assert np.all(sc.w_full.w >= 0) and np.all(sc.w_full.w <= 1)
        np.testing.assert_array_equal(sc.sys.B, np.ones((2, 1)))
        np.testing.assert_array_equal(sc.x1, np.zeros(2))

    def test_quadratic_diagonals_in_band(self):
        for seed in range(5):
            sc = gen_scenario(seed, ScenarioConfig(cost_kind="quadratic"))
            for seq in (sc.costs.Q_seq, sc.costs.R_seq):
                diags = np.array([np.diag(mat) for mat in seq])
                assert np.all(diags >= 1.0) and np.all(diags <= 3.0)
                off = seq - np.stack([np.diag(np.diag(mat)) for mat in seq])
                assert np.all(off == 0)

    def test_set_distance_family(self):
        for seed in range(8):
            sc = gen_scenario(seed, ScenarioConfig(cost_kind="set_distance"))
            assert sc.costs.a_seq.min() >= 0.05
            assert sc.costs.a_seq.max() <= 1.0
            np.testing.assert_array_equal(sc.costs.center, [0.5, 0.5])
            assert sc.costs.radius == 0.25

    def test_nonconvex_offset(self):
        sc = gen_scenario(0, ScenarioConfig(cost_kind="nonconvex"))
        assert sc.costs.b == 0.2

    def test_policy_list(self):
        sc = gen_scenario(0, ScenarioConfig(N=9, T=15))
        assert sc.policies == (("overlap", 4), ("standard", 8))
        tiny = gen_scenario(0, ScenarioConfig(N=2, T=15))
        assert tiny.policies == (("overlap", 1), ("standard", 1))

    def test_alternate_dimension_config(self):
        sc = gen_scenario(0, ScenarioConfig(n=3))
        assert sc.sys.n == 3
        np.testing.assert_array_equal(sc.sys.B, np.ones((3, 1)))


class TestScenarioParams:
    def test_quadratic_exact_certified(self):
        params = scenario_params(gen_scenario(0))
        assert params.certified
        assert 0 < params.beta <= 1

    def test_non_quadratic_has_no_envelope(self):
        for kind in ("nonconvex", "set_distance"):
            assert scenario_params(gen_scenario(2, ScenarioConfig(cost_kind=kind))) is None


class TestRunComparison:
    def test_row_shape_and_sorting_keys(self):
        sc = gen_scenario(0, ScenarioConfig(T=10, N=6))
        rows = run_comparison(sc)
        assert [r.policy for r in rows] == ["overlap", "standard"]
        assert [r.M for r in rows] == [3, 5]
        for r in rows:
            assert r.seed == 0 and r.T == 10 and r.N == 6
            assert r.J > 0 and r.energy > 0 and r.gain > 0
            assert r.certified
            assert r.truncated_tail  # structural whenever N < T

    def test_zero_disturbance_guard(self):
        sc = gen_scenario(0, ScenarioConfig(T=8, N=4))
        sc = dataclasses.replace(sc, w_full=DisturbanceSequence.zeros(8, 2))
        rows = run_comparison(sc)
        assert all(math.isnan(r.gain) for r in rows)
        assert all(r.J == pytest.approx(0.0, abs=1e-18) for r in rows)

    def test_errors_carry_seed(self):
        sc = gen_scenario(5, ScenarioConfig(T=10, N=6))
        broken = dataclasses.replace(sc, costs=unit_quad(4))  # shorter than T
        with pytest.raises(RuntimeError, match="seed=5"):
            run_comparison(broken, params=scenario_params(sc))

    def test_gain_matches_ratio(self):
        rows = run_comparison(gen_scenario(3, ScenarioConfig(T=10, N=6)))
        for r in rows:
            assert r.gain == pytest.approx(r.J / r.energy, rel=1e-12)

    def test_quadratic_run_builds_no_stack(self, stack_builds):
        # the exact envelope's value forms come from Riccati sweeps, quadratic
        # policy runs from their law tables, and the audit's window values
        # from one law sweep over its full windows: none stacks
        sc = gen_scenario(0, ScenarioConfig(cost_kind="quadratic", T=30, N=6))
        run_comparison(sc)
        res = run_policy(sc.sys, sc.costs, sc.w_full, sc.x1,
                         build_schedule(sc.N, dict(sc.policies)["overlap"], sc.T))
        # this scenario's beta misses M > 1/beta^2; beta = 1 passes it
        unit = EnvelopeParams.from_alphas(1.0, 1.0, gamma_bar_sq=1.0)
        assert recursion_audit(res, unit, sc.sys, sc.costs, sc.w_full)
        assert stack_builds == []


class TestRunTable1:
    def test_layout_and_order(self):
        rep = run_table1(iters=2, N_list=(4, 6), cost_kinds=("quadratic",),
                         config=ScenarioConfig(T=8))
        assert len(rep.rows) == 2 * 2 * 2
        keys = [(r.seed, r.cost_kind, r.policy, r.N) for r in rep.rows]
        assert keys == sorted(keys)
        assert rep.config["iters"] == 2 and rep.config["N_list"] == [4, 6]
        assert rep.config["scenario"] == {"cost_kind": "quadratic", "n": 2, "m": 1,
                                          "T": 8, "N": 6, "a_high": 1.0}

    @pytest.mark.parametrize("N_list", [(), (4, 4), (4, 6, 4)])
    def test_empty_or_repeated_previews_rejected(self, N_list):
        with pytest.raises(ValueError, match="N_list must be nonempty without repeats"):
            run_table1(iters=1, N_list=N_list, config=ScenarioConfig(T=8))

    def test_bad_thread_env(self, monkeypatch):
        monkeypatch.setenv("PRHC_THREADS", "many")
        with pytest.raises(ValueError, match="PRHC_THREADS"):
            harness.worker_count()

    def test_no_descent_stops_at_max_iters(self):
        # every window of the non-quadratic scenarios of
        # run_table1(iters=2, N_list=(6, 9)) stops at grad_tol or at the
        # roundoff floor, well before the cap
        cap = SolverConfig().max_iters
        stops = []
        for kind in ("nonconvex", "set_distance"):
            for N in (6, 9):
                for seed in range(2):
                    sc = gen_scenario(seed, ScenarioConfig(cost_kind=kind, N=N))
                    for name, M in sc.policies:
                        res = run_policy(sc.sys, sc.costs, sc.w_full, sc.x1,
                                         build_schedule(N, M, sc.T))
                        stops += [(kind, N, seed, name, i, stop)
                                  for i, stop in enumerate(res.interval_solutions)]
        capped = [s for s in stops if s[-1].iterations >= cap]
        assert capped == []
        assert all(s[-1].converged for s in stops)

    def test_quadratic_rows_cost_no_less_than_the_clairvoyant_value(self):
        # J* = z'Pz over [1, T], z = [x1; w_1..w_T], is the least cost of
        # any input sequence with the whole disturbance known, so every
        # policy row costs at least J*: on every quadratic row of
        # run_table1(iters=10, N_list=(6, 9)) and on the T = 100, N = 40
        # rows of seeds 1 and 4
        def clairvoyant(sc):
            z = np.concatenate([sc.x1, sc.w_full.w[:sc.T].ravel()])
            return float(z @ quadratic_value_form(sc.sys, sc.costs, 0, sc.T) @ z)

        rows = run_table1(iters=10, N_list=(6, 9), cost_kinds=("quadratic",)).rows
        assert len(rows) == 40
        cases = [(row, gen_scenario(row.seed, ScenarioConfig(
            cost_kind="quadratic", n=row.n, m=row.m, T=row.T, N=row.N))) for row in rows]
        for seed in (1, 4):
            sc = gen_scenario(seed, ScenarioConfig(cost_kind="quadratic", T=100, N=40))
            cases += [(row, sc) for row in run_comparison(sc)]
        below = [(row.seed, row.T, row.N, row.policy, row.J, J_star)
                 for row, sc in cases
                 if not row.J >= (J_star := clairvoyant(sc)) * (1 - 1e-9)]
        assert below == []

    def test_aggregate_cells(self):
        rep = run_table1(iters=2, N_list=(4, 6), cost_kinds=("quadratic",),
                         config=ScenarioConfig(T=8))
        cells = aggregate_report(rep)
        assert len(cells) == 4  # 2 policies x 2 previews
        for c in cells:
            assert c.count == 2
            assert c.gain == pytest.approx(c.mean_J / c.mean_energy, rel=1e-12)
            assert np.isfinite(c.gain) and c.gain > 0


class TestAggregate:
    def test_ratio_of_averages(self):
        base = dict(cost_kind="quadratic", policy="overlap", n=1, m=1, T=4,
                    N=2, M=1, beta=1.0, gamma_bar_sq=1.0, certified=True,
                    omega_op=4.5, bound=10.0, satisfied=True, truncated_tail=True)
        rows = [ReportRow(seed=0, J=1.0, energy=1.0, gain=1.0, **base),
                ReportRow(seed=1, J=3.0, energy=2.0, gain=1.5, **base)]
        cells = aggregate_report(ExperimentReport(rows=rows))
        assert len(cells) == 1
        assert cells[0].gain == pytest.approx((1.0 + 3.0) / (1.0 + 2.0), rel=1e-15)

    def test_zero_energy_cell_is_nan(self):
        row = ReportRow(seed=0, cost_kind="quadratic", policy="overlap", n=1,
                        m=1, T=4, N=2, M=1, J=0.0, energy=0.0, gain=float("nan"),
                        beta=1.0, gamma_bar_sq=1.0, certified=True, omega_op=4.5,
                        bound=0.0, satisfied=True, truncated_tail=True)
        cells = aggregate_report(ExperimentReport(rows=[row]))
        assert math.isnan(cells[0].gain)


class TestBruteForceOracle:
    def test_hand_minimum(self):
        sc = scalar_scenario(unit_quad(2), [[0.0], [0.0]], [1.0], T=2)
        J, u = brute_force_oracle(sc, 1e-3, 2.0)
        assert J == pytest.approx(1.5, abs=1e-12)
        np.testing.assert_allclose(u.ravel(), [-0.5, 0.0], atol=1e-12)

    def test_zero_cost(self):
        sc = scalar_scenario(ZeroCost(), [[0.3], [0.1]], [1.0], T=2)
        J, _ = brute_force_oracle(sc, 0.5, 2.0)
        assert J == 0.0

    def test_matches_batch_solution(self):
        # refinement path: the full grid at this resolution is over budget
        costs = unit_quad(3)
        w = [[0.1], [0.1], [0.1]]
        sc = scalar_scenario(costs, w, [0.0], T=3)
        grid_res = 1e-3
        J, _ = brute_force_oracle(sc, grid_res, 2.0)
        prob = HorizonProblem(sys=sc.sys, x0=sc.x1, costs=costs, t0=0,
                              w_preview=sc.w_full, N=3)
        closed = solve_quadratic(prob).value
        assert closed == pytest.approx(0.014, rel=1e-12)
        assert abs(J - closed) <= grid_res**2
        assert J >= closed - 1e-12  # a grid point never beats the true minimum

    @pytest.mark.parametrize("make", [
        lambda: scalar_scenario(unit_quad(2), [[0.4], [0.7]], [0.8], T=2),
        lambda: gen_scenario(0, ScenarioConfig(cost_kind="nonconvex", n=2,
                                               m=1, T=2, N=2)),
    ], ids=["quadratic", "nonconvex"])
    def test_refinement_agrees_with_exhaustive(self, monkeypatch, make):
        sc = make()
        J_full, u_full = brute_force_oracle(sc, 1e-3, 2.0)
        monkeypatch.setattr(harness, "GRID_BUDGET", 10**5)
        J_zoom, u_zoom = brute_force_oracle(sc, 1e-3, 2.0)
        assert J_zoom == pytest.approx(J_full, abs=1e-6)
        np.testing.assert_allclose(u_zoom, u_full, atol=5e-3)

    def test_nonconvex_over_budget_rejected(self):
        sc = scalar_scenario(DoubleWellCost(), [[0.0]] * 4, [0.0], T=4)
        with pytest.raises(ValueError, match="budget exceeded.*non-convex"):
            brute_force_oracle(sc, 1e-4, 2.0)

    def test_validation(self):
        sc = scalar_scenario(unit_quad(2), [[0.0], [0.0]], [1.0], T=2)
        with pytest.raises(ValueError, match="grid_res"):
            brute_force_oracle(sc, 0.0, 2.0)
        with pytest.raises(ValueError, match="u_box"):
            brute_force_oracle(sc, 0.1, -1.0)
        # an infinite grid_res would scan the one point u = -u_box, an
        # infinite u_box overflows the point count, and NaN has no count
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"grid_res must be positive and "
                                                 f"finite, got {bad}"):
                brute_force_oracle(sc, bad, 2.0)
            with pytest.raises(ValueError, match=f"u_box must be positive and "
                                                 f"finite, got {bad}"):
                brute_force_oracle(sc, 0.1, bad)

    @pytest.mark.parametrize("stage", [0, 1])
    def test_nan_cost_is_an_error(self, stage):
        # the finite minimum sits at u = (-0.5, 0), far from the NaN region
        sc = scalar_scenario(PoisonedCost(math.nan, stage), [[0.0], [0.0]],
                             [1.0], T=2)
        with pytest.raises(ValueError, match=f"NaN at stage {stage} "):
            brute_force_oracle(sc, 0.05, 2.0)

    def test_nan_cost_in_refinement_is_an_error(self, monkeypatch):
        monkeypatch.setattr(harness, "GRID_BUDGET", 2000)  # 33^2 fits, 4001^2 not
        sc = scalar_scenario(PoisonedCost(math.nan), [[0.0], [0.0]], [1.0], T=2)
        with pytest.raises(ValueError, match="NaN at stage 0 "):
            brute_force_oracle(sc, 1e-3, 2.0)

    def test_all_inf_cost_is_an_error(self):
        sc = scalar_scenario(PoisonedCost(math.inf), [[0.0], [0.0]], [1.0], T=2)
        J, _ = brute_force_oracle(sc, 0.05, 2.0)  # inf only where u_0 < -1.5
        assert J == pytest.approx(1.5, abs=1e-12)
        sc = scalar_scenario(InfCost(), [[0.0], [0.0]], [1.0], T=2)
        with pytest.raises(ValueError, match="no finite cost on the grid"):
            brute_force_oracle(sc, 0.05, 2.0)

    @pytest.mark.parametrize("costs, n, m, T, grid_res", [
        (QuadraticCost(np.ones((3, 1, 1)), np.ones((3, 1, 1))), 1, 1, 3, 0.25),
        # 81 inputs per stage: split whenever the block is smaller
        (QuadraticCost(np.stack([np.eye(2)] * 2), np.stack([np.eye(2)] * 2)),
         2, 2, 2, 0.5),
        (NonConvexCost(), 2, 1, 3, 0.25),
        # 401^2 points: the last stage spans three default blocks of 2^16
        # pairs, each written into the same reused buffers
        (QuadraticCost(np.ones((2, 1, 1)), np.ones((2, 1, 1))), 1, 1, 2, 0.01),
        # over budget: one scan per refinement level at the default block size
        (QuadraticCost(np.ones((3, 1, 1)), np.ones((3, 1, 1))), 1, 1, 3, 1e-3),
    ])
    def test_block_size_invariance(self, monkeypatch, costs, n, m, T, grid_res):
        sc = vector_scenario(costs, n, m, T)
        default = harness.EVAL_CHUNK
        monkeypatch.setattr(harness, "EVAL_CHUNK", 1 << 20)  # one block per stage
        J_ref, u_ref = brute_force_oracle(sc, grid_res, 2.0)
        # tiny blocks only on the coarse grids, where they stay quick
        for chunk in (default, 1, 7, 64) if grid_res > 0.1 else (default,):
            monkeypatch.setattr(harness, "EVAL_CHUNK", chunk)
            J, u = brute_force_oracle(sc, grid_res, 2.0)
            assert J == J_ref
            assert u.tobytes() == u_ref.tobytes()

    def test_scan_leaves_no_garbage(self):
        # the scan is a closure that refers to itself; a cycle would keep its
        # buffers alive until the cyclic GC, which numpy allocations rarely run
        sc = vector_scenario(QuadraticCost(np.ones((2, 1, 1)), np.ones((2, 1, 1))),
                             1, 1, 2)
        gc.collect()
        gc.disable()
        try:
            harness._grid_scan(sc, [np.linspace(-2.0, 2.0, 41)] * 2)
            assert gc.collect() == 0
            brute_force_oracle(sc, 0.05, 2.0)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("chunk", [None, 1, 7])
    @pytest.mark.parametrize("m", [1, 2])
    def test_ties_keep_first_grid_point(self, monkeypatch, chunk, m):
        if chunk is not None:
            monkeypatch.setattr(harness, "EVAL_CHUNK", chunk)
        sc = vector_scenario(ZeroCost(), 1, m, 2)
        J, u = brute_force_oracle(sc, 0.5, 2.0)
        assert J == 0.0
        assert u.shape == (2, m)
        np.testing.assert_array_equal(u, -2.0)


class TestReports:
    def row(self, **over):
        base = dict(seed=0, cost_kind="quadratic", policy="overlap", n=2, m=1,
                    T=15, N=6, M=3, J=1.5, energy=2.0, gain=0.75, beta=0.5,
                    gamma_bar_sq=1.25, certified=True, omega_op=8.75,
                    bound=21.875, satisfied=True, truncated_tail=True)
        base.update(over)
        return ReportRow(**base)

    def test_header_is_the_field_order(self):
        # the schema is ReportRow's fields, so reordering them moves columns
        assert CSV_HEADER == (
            "seed,cost_kind,policy,n,m,T,N,M,J,energy,gain,beta,gamma_bar_sq,"
            "certified,omega_op,bound,satisfied,truncated_tail")

    def test_column_kinds_resolve_with_and_without_postponed_annotations(self):
        # harness postpones its annotations and this module does not
        @dataclasses.dataclass
        class Plain:
            flag: bool
            count: int
            label: str
            value: float

        assert harness._columns(Plain) == {"flag": bool, "count": int,
                                           "label": str, "value": float}
        kinds = harness._columns(ReportRow)
        assert {name: kinds[name] for name in ("seed", "policy", "J", "certified")} \
            == {"seed": int, "policy": str, "J": float, "certified": bool}

    def test_empty_report_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_report(ExperimentReport(), "csv", path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_single_row_schema(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_report(ExperimentReport(rows=[self.row()]), "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == ("0,quadratic,overlap,2,1,15,6,3,1.5,2.0,0.75,0.5,"
                            "1.25,true,8.75,21.875,true,true")

    def test_special_values_rendered(self, tmp_path):
        path = tmp_path / "special.csv"
        row = self.row(energy=0.0, gain=float("nan"), omega_op=float("nan"),
                       bound=float("inf"), satisfied=False)
        emit_report(ExperimentReport(rows=[row]), "csv", path)
        cells = path.read_text().splitlines()[1].split(",")
        header = CSV_HEADER.split(",")
        assert cells[header.index("gain")] == "nan"
        assert cells[header.index("bound")] == "inf"
        assert cells[header.index("satisfied")] == "false"

    def test_round_trips(self, tmp_path):
        rows = [self.row(), self.row(seed=1, policy="standard", M=5,
                                     bound=float("inf"), omega_op=float("nan"),
                                     satisfied=False)]
        rep = ExperimentReport(config={"command": "run", "seed": 0, "sample_budget": 1},
                               rows=rows)
        for fmt in ("csv", "json"):
            path = tmp_path / f"report.{fmt}"
            emit_report(rep, fmt, path)
            back = load_report(path)
            assert back.rows == rep.sorted_rows()
        assert load_report(tmp_path / "report.json").config == rep.config

    def test_older_scenario_block_loads(self, tmp_path):
        # reports written before the family settings became constants echo
        # fifteen scenario fields; the config block is kept as written
        scenario = {"cost_kind": "quadratic", "n": 2, "m": 1, "T": 15, "N": 6,
                    "a_low": 0.0, "a_high": 1.0, "w_low": 0.0, "w_high": 1.0,
                    "q_low": 1.0, "q_high": 3.0, "well_offset": 0.2,
                    "weight_floor": 0.05, "center_coord": 0.5, "radius": 0.25}
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"config": {"scenario": scenario,
                                               "sample_budget": 100},
                                    "rows": [dataclasses.asdict(self.row())]}))
        back = load_report(path)
        assert back.config["scenario"] == scenario
        assert back.rows == [self.row()]

    def test_emit_deterministic_bytes(self, tmp_path):
        rep = run_table1(iters=1, N_list=(4,), cost_kinds=("quadratic",),
                         config=ScenarioConfig(T=8))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(rep, "csv", p1)
        rep2 = run_table1(iters=1, N_list=(4,), cost_kinds=("quadratic",),
                          config=ScenarioConfig(T=8))
        emit_report(rep2, "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit_report(ExperimentReport(), "yaml", tmp_path / "x")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,report\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            load_report(path)

    def json_report(self, tmp_path, edit):
        path = tmp_path / "report.json"
        emit_report(ExperimentReport(rows=[self.row()]), "json", path)
        doc = json.loads(path.read_text())
        edit(doc["rows"][0])
        path.write_text(json.dumps(doc))
        return path

    def test_json_missing_key_rejected(self, tmp_path):
        path = self.json_report(tmp_path, lambda r: r.pop("bound"))
        with pytest.raises(ValueError, match=r"missing keys \['bound'\]"):
            load_report(path)

    def test_json_extra_key_rejected(self, tmp_path):
        path = self.json_report(tmp_path, lambda r: r.update(note="x"))
        with pytest.raises(ValueError, match=r"unknown keys \['note'\]"):
            load_report(path)

    @pytest.mark.parametrize("key,value", [("satisfied", "false"), ("M", 3.0),
                                           ("seed", True), ("J", "1.5"),
                                           ("policy", 1), ("certified", 1),
                                           ("J", False), ("bound", None)])
    def test_json_wrong_type_rejected(self, tmp_path, key, value):
        path = self.json_report(tmp_path, lambda r: r.update({key: value}))
        with pytest.raises(ValueError, match=f"key {key} has the wrong type"):
            load_report(path)

    def test_json_integer_float_column_loads_as_float(self, tmp_path):
        back = load_report(self.json_report(tmp_path, lambda r: r.update(J=3)))
        assert back.rows[0].J == 3.0 and isinstance(back.rows[0].J, float)

    def test_csv_bad_bool_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        emit_report(ExperimentReport(rows=[self.row()]), "csv", path)
        path.write_text(path.read_text().replace(",true,8.75,", ",yes,8.75,"))
        with pytest.raises(ValueError, match="column certified expects true/false"):
            load_report(path)

    @pytest.mark.parametrize("column,text,expects", [("seed", "x", "int"),
                                                     ("J", "1.5e", "float")])
    def test_csv_bad_cell_names_row_column_and_kind(self, tmp_path, column,
                                                     text, expects):
        path = tmp_path / "bad.csv"
        emit_report(ExperimentReport(rows=[self.row(), self.row(seed=1)]),
                    "csv", path)
        header, good, bad = path.read_text().splitlines()
        cells = bad.split(",")
        cells[header.split(",").index(column)] = text
        path.write_text("\n".join([header, good, ",".join(cells)]) + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"CSV row 1: column {column} expects {expects}, got {text!r}")):
            load_report(path)

    @pytest.mark.parametrize("config", [[], None, "x", 3])
    def test_json_config_not_an_object_rejected(self, tmp_path, config):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"config": config, "rows": []}))
        with pytest.raises(ValueError, match="JSON config is not an object"):
            load_report(path)

    @pytest.mark.parametrize("budget", [None, 0, -3, True, 100.0, "100"])
    def test_json_any_sample_budget_loads(self, tmp_path, budget):
        # older reports echo a sample budget, which no number depends on
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"config": {"sample_budget": budget}, "rows": []}))
        assert load_report(path).config == {"sample_budget": budget}

    def test_json_rows_not_an_array_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"config": {}, "rows": 5}))
        with pytest.raises(ValueError, match="JSON rows is not an array"):
            load_report(path)
