"""The benchmark's workloads.

A workload turns a seed into a list of tasks during set-up (each task is one
scenario from `gen_scenario`), runs one task at a time in the timed loop,
checks each task's output, and after the last task summarizes the pass:
the bytes whose digest must repeat exactly, the summed cost, and any
pass-level problem. Every call into `prhc` goes through a module attribute
so that the tracer's wrappers see it.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

from prhc import bounds, harness, policy
from prhc.harness import COST_KINDS, ExperimentReport, ScenarioConfig

BOUND_REL_TOL = 1e-9      # certified rows: J <= bound * (1 + tol), as in A8
AUDIT_SLACK_FLOOR = -1e-6  # minimum recursion-audit slack, as `prhc audit`
ORACLE_TOL = 5e-3         # |J_policy - J_grid|, as in A5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    note: str
    full: dict      # sizes of the measured workload
    smoke: dict     # tiny sizes for the smoke test
    build: object   # (seed, sizes) -> list of scenarios
    run: object     # (scenario, sizes) -> output
    check: object   # (scenario, output, sizes) -> list of problems
    summarize: object  # (scenarios, outputs, sizes) -> (payload, cost, problems)


def _report_csv(outputs: list) -> tuple:
    report = ExperimentReport(rows=[row for rows in outputs if rows for row in rows])
    buf = io.StringIO()
    harness.emit_report(report, "csv", buf)
    return report, buf.getvalue()


# -- table1 ---------------------------------------------------------------

def _table1_build(seed: int, sz: dict) -> list:
    return [harness.gen_scenario(s, ScenarioConfig(cost_kind=kind, T=sz["T"], N=N))
            for s in range(seed, seed + sz["seeds"])
            for kind in COST_KINDS for N in sz["N_list"]]


def _table1_run(sc, sz: dict) -> list:
    return harness.run_comparison(sc, sample_budget=sz["sample_budget"])


def _table1_check(sc, rows: list, sz: dict) -> list:
    problems = []
    for r in rows:
        if not (math.isfinite(r.gain) and r.gain > 0):
            problems.append(f"{r.policy}: gain {r.gain!r} is not finite and positive")
        if r.certified and not r.J <= r.bound * (1 + BOUND_REL_TOL) + 1e-15:
            problems.append(f"{r.policy}: certified J {r.J!r} exceeds bound {r.bound!r}")
    return problems


def _table1_summarize(scenarios: list, outputs: list, sz: dict) -> tuple:
    report, csv = _report_csv(outputs)
    cells = harness.aggregate_report(report)
    want = 2 * len(COST_KINDS) * len(sz["N_list"])
    problems = []
    if len(cells) != want or not all(math.isfinite(c.gain) and c.gain > 0 for c in cells):
        problems.append(f"aggregate: {len(cells)} cells (want {want}) "
                        f"or a non-finite or non-positive cell gain")
    return csv.encode(), sum(r.J for r in report.rows), problems


# -- quadratic_scale ------------------------------------------------------

def _quadratic_build(seed: int, sz: dict) -> list:
    cfg = ScenarioConfig(cost_kind="quadratic", n=sz["n"], m=1, T=sz["T"],
                         N=sz["N"], a_high=sz["a_high"])
    return [harness.gen_scenario(s, cfg) for s in range(seed, seed + sz["seeds"])]


def _quadratic_run(sc, sz: dict) -> tuple:
    params = harness.scenario_params(sc)
    rows = harness.run_comparison(sc, params=params)
    # replay of the overlap policy and its audit, as `prhc run` then `prhc audit`
    M = dict(sc.policies)["overlap"]
    replay = policy.run_policy(sc.sys, sc.costs, sc.w_full, sc.x1,
                               policy.build_schedule(sc.N, M, sc.T))
    slacks = bounds.recursion_audit(replay, params, sc.sys, sc.costs, sc.w_full)
    return rows, slacks


def _quadratic_check(sc, output: tuple, sz: dict) -> list:
    rows, slacks = output
    problems = [f"{r.policy}: J {r.J!r} is not finite"
                for r in rows if not math.isfinite(r.J)]
    overlap = [r for r in rows if r.policy == "overlap"]
    if not overlap or not (overlap[0].certified and overlap[0].satisfied):
        problems.append("overlap row is not certified and satisfied")
    if not slacks or min(slacks) < AUDIT_SLACK_FLOOR:
        problems.append(f"audit: min slack {min(slacks, default=math.nan)!r} "
                        f"below {AUDIT_SLACK_FLOOR}")
    return problems


def _quadratic_summarize(scenarios: list, outputs: list, sz: dict) -> tuple:
    report, csv = _report_csv([out[0] for out in outputs if out])
    return csv.encode(), sum(r.J for r in report.rows), []


# -- oracle ---------------------------------------------------------------

# (cost kind, n, T): two exhaustive 4001^2 sweeps, two 33^4-per-level refinements
ORACLE_INSTANCES = (("quadratic", 1, 2), ("nonconvex", 2, 2),
                    ("quadratic", 1, 4), ("set_distance", 1, 4))


def _oracle_build(seed: int, sz: dict) -> list:
    return [harness.gen_scenario(s, ScenarioConfig(cost_kind=kind, n=n, m=1, T=T, N=T))
            for s in range(seed, seed + sz["seeds"])
            for kind, n, T in ORACLE_INSTANCES]


def _oracle_run(sc, sz: dict) -> tuple:
    J_grid, u_grid = harness.brute_force_oracle(sc, sz["grid_res"], sz["u_box"])
    full = policy.run_policy(sc.sys, sc.costs, sc.w_full, sc.x1,
                             policy.build_schedule(sc.T, max(1, sc.T - 1), sc.T))
    return J_grid, u_grid, full.J


def _oracle_check(sc, output: tuple, sz: dict) -> list:
    J_grid, _u, J_policy = output
    gap = abs(J_policy - J_grid)
    return [] if gap <= ORACLE_TOL else [f"|J_policy - J_grid| = {gap:.3e} > {ORACLE_TOL}"]


def _oracle_summarize(scenarios: list, outputs: list, sz: dict) -> tuple:
    lines = [f"{sc.seed},{sc.cost_kind},{sc.sys.n},{sc.T},{out[0]!r},{out[1].tobytes().hex()}"
             for sc, out in zip(scenarios, outputs) if out]
    return "\n".join(lines).encode(), sum(out[0] for out in outputs if out), []


WORKLOADS = {
    "table1": Workload(
        name="table1",
        why="the paper's comparison protocol at reduced size; about 99% of its "
            "time is general-path descents in policy runs and sampled envelopes",
        note="every cost kind for N in {6, 9} over consecutive seeds from the "
             "benchmark seed, sample_budget=100, run serially; run_table1 is "
             "bypassed because it fixes seeds to 0..iters-1 and its thread pool "
             "adds scheduler noise. Per-seed cost is heavy-tailed (500-iteration "
             "descents), so compare the same seed on both commits.",
        full={"seeds": 1, "T": 15, "N_list": (6, 9), "sample_budget": 100},
        smoke={"seeds": 1, "T": 8, "N_list": (4,), "sample_budget": 8},
        build=_table1_build, run=_table1_run, check=_table1_check,
        summarize=_table1_summarize,
    ),
    "quadratic_scale": Workload(
        name="quadratic_scale",
        why="the exact quadratic path at a size where it dominates: exact "
            "envelope, both policies and the recursion audit, no general descents",
        note="a_high=0.25 is about 2/n: with the default A range [0, 1], n=8 gives "
             "rho(A)~3.9, J~1e305 and beta~1e-67, so the run would time overflow "
             "arithmetic rather than control; with 0.25, rho(A)~0.97-1.04 and "
             "beta~0.25",
        full={"seeds": 1, "n": 8, "T": 192, "N": 48, "a_high": 0.25},
        smoke={"seeds": 1, "n": 2, "T": 64, "N": 40, "a_high": 0.5},
        build=_quadratic_build, run=_quadratic_run, check=_quadratic_check,
        summarize=_quadratic_summarize,
    ),
    "oracle": Workload(
        name="oracle",
        why="brute-force grid checks of full-preview runs, the only large-batch "
            "user of the broadcasting cost eval and the dynamics recursion",
        note="per seed: exhaustive 16M-point sweeps (quadratic n=1 T=2, nonconvex "
             "n=2 T=2) and 33^4-per-level refinements (quadratic and set_distance, "
             "n=1 T=4), grid_res=1e-3, u_box=2, each compared with run_policy at N=T",
        full={"seeds": 1, "grid_res": 1e-3, "u_box": 2.0},
        smoke={"seeds": 1, "grid_res": 1e-2, "u_box": 2.0},
        build=_oracle_build, run=_oracle_run, check=_oracle_check,
        summarize=_oracle_summarize,
    ),
}
