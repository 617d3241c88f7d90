"""Acceptance gate: one criterion per test, one printed verdict line each.

Criteria cover the certified gain bound on randomized families, the interval
recursion audit with a falsifiability check, solver cross-validation against
closed forms and finite differences, brute-force oracle agreement, pinned
formula values, the O(1/N) residual envelope, the full comparison protocol
through the CLI, and byte-level determinism of emitted reports.
"""

import functools
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from family import compliant_quadratic_scenario
from prhc.bounds import a_factor, certify, kappa, omega_op, recursion_audit
from prhc.costs import (
    EnvelopeParams,
    NonConvexCost,
    QuadraticCost,
    SetDistanceCost,
)
from prhc.harness import (
    Scenario,
    ScenarioConfig,
    aggregate_report,
    brute_force_oracle,
    load_report,
)
from prhc.linsys import DisturbanceSequence, LinearSystem
from prhc.policy import build_schedule, run_policy
from prhc.solver import (
    HorizonProblem,
    SolverConfig,
    adjoint_gradient,
    horizon_objective,
    solve_general,
    solve_quadratic,
)


def verdict(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


@functools.lru_cache(maxsize=1)
def family_runs():
    """200 randomized quadratic scenarios with certified constants, solved
    once and shared by the bound and audit criteria."""
    runs = []
    for seed in range(200):
        sc = compliant_quadratic_scenario(seed, spike=True)
        res = run_policy(sc.sys, sc.costs, sc.w, sc.x1, sc.sched)
        runs.append((sc, res))
    return runs


def test_a1_certified_bound_holds(capsys):
    t0 = time.time()
    worst = np.inf
    failures = 0
    for sc, res in family_runs():
        cert = certify(res, sc.params, sc.sched, sigma_x1=0.0)
        ok = sc.params.certified and cert.conditions_ok and cert.satisfied
        rel_slack = (cert.bound - cert.J) / max(1.0, cert.bound)
        worst = min(worst, rel_slack)
        failures += not (ok and rel_slack >= -1e-9)
    dt = time.time() - t0
    verdict(capsys, "A1", failures == 0 and dt < 60.0,
            f"certified gain bound on {len(family_runs())} scenarios, "
            f"min relative slack {worst:.3e}, {dt:.1f}s")


def test_a2_recursion_audit_and_falsifiability(capsys):
    t0 = time.time()
    worst = np.inf
    audit_failures = 0
    falsified = 0
    nonzero = 0
    for sc, res in family_runs():
        slacks = recursion_audit(res, sc.params, sc.sys, sc.costs, sc.w)
        if not slacks or min(slacks) < -1e-6:
            audit_failures += 1
        if slacks:
            worst = min(worst, min(slacks))
        if sc.w.energy() > 0:
            nonzero += 1
            half = EnvelopeParams(
                alpha_lo=sc.params.alpha_lo, alpha_hi=sc.params.alpha_hi,
                gamma_bar_sq=sc.params.gamma_bar_sq / 2.0,
                beta=sc.params.beta, zeta=sc.params.zeta, certified=False,
            )
            halved = recursion_audit(res, half, sc.sys, sc.costs, sc.w)
            falsified += bool(halved) and min(halved) < 0
    rate = falsified / max(nonzero, 1)
    dt = time.time() - t0
    verdict(capsys, "A2", audit_failures == 0 and rate >= 0.9 and dt < 120.0,
            f"audit min slack {worst:.3e} over {len(family_runs())} scenarios, "
            f"halved-gamma falsified {falsified}/{nonzero} ({rate:.0%}), {dt:.1f}s")


def test_a3_closed_form_vs_iterative(capsys):
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(9_100 + i)
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        N = int(rng.integers(1, 9))
        sys_ = LinearSystem(A=rng.uniform(-1, 1, (n, n)) / n,
                            B=rng.uniform(-1, 1, (n, m)))
        Q = np.stack([np.diag(rng.uniform(0.5, 3.0, n)) for _ in range(N)])
        R = np.stack([np.diag(rng.uniform(0.5, 3.0, m)) for _ in range(N)])
        prob = HorizonProblem(
            sys=sys_, x0=rng.uniform(-1, 1, n), costs=QuadraticCost(Q, R),
            t0=0, w_preview=DisturbanceSequence.from_array(
                rng.uniform(-0.5, 0.5, (N, n))), N=N,
        )
        closed = solve_quadratic(prob).value
        iterative = solve_general(prob, SolverConfig()).value
        worst = max(worst, abs(iterative - closed) / max(1.0, closed))
    verdict(capsys, "A3", worst <= 1e-6,
            f"closed-form vs iterative on 100 quadratics, max rel gap {worst:.3e}")


def _mixed_problem(i):
    rng = np.random.default_rng(9_300 + i)
    kind = i % 3
    if kind == 0:
        n = int(rng.integers(1, 4))
        N = int(rng.integers(1, 7))
        costs = QuadraticCost(
            np.stack([np.diag(rng.uniform(0.5, 3.0, n)) for _ in range(N)]),
            np.stack([np.diag(rng.uniform(0.5, 3.0, 1)) for _ in range(N)]),
        )
    elif kind == 1:
        n = int(rng.integers(2, 4))
        N = int(rng.integers(1, 7))
        costs = NonConvexCost()
    else:
        n = int(rng.integers(1, 4))
        N = int(rng.integers(1, 7))
        costs = SetDistanceCost(a_seq=rng.uniform(0.1, 1.0, N),
                                center=np.full(n, 0.5), radius=0.25)
    sys_ = LinearSystem(A=rng.uniform(-1, 1, (n, n)) / n,
                        B=rng.uniform(-1, 1, (n, 1)))
    prob = HorizonProblem(
        sys=sys_, x0=rng.uniform(-1, 1, n), costs=costs, t0=0,
        w_preview=DisturbanceSequence.from_array(rng.uniform(0, 1, (N, n))),
        N=N,
    )
    return prob, rng.uniform(-1, 1, (N, 1))


def test_a4_adjoint_vs_finite_differences(capsys):
    worst = 0.0
    for i in range(100):
        prob, u = _mixed_problem(i)
        g_adj = adjoint_gradient(prob, u)
        flat = u.ravel()
        g_fd = np.empty_like(flat)
        for k in range(flat.size):
            bump = np.zeros_like(flat)
            bump[k] = 1e-6
            hi = horizon_objective(prob, (flat + bump).reshape(u.shape))
            lo = horizon_objective(prob, (flat - bump).reshape(u.shape))
            g_fd[k] = (hi - lo) / 2e-6
        err = np.linalg.norm(g_adj.ravel() - g_fd) / max(1.0, np.linalg.norm(g_fd))
        worst = max(worst, err)
    verdict(capsys, "A4", worst <= 1e-5,
            f"adjoint vs central differences on 100 mixed instances, "
            f"max rel error {worst:.3e}")


def _tiny_scalar_instance(seed):
    rng = np.random.default_rng(9_500 + seed)
    T = (2, 3, 4)[seed % 3]
    sys_ = LinearSystem(A=[[float(rng.uniform(0, 1))]], B=[[1.0]])
    costs = QuadraticCost(rng.uniform(1, 3, (T, 1, 1)), rng.uniform(1, 3, (T, 1, 1)))
    w = DisturbanceSequence.from_array(rng.uniform(0, 1, (T, 1)))
    x1 = np.array([float(rng.uniform(0, 1))])
    return Scenario(seed=seed, config=ScenarioConfig(n=1, m=1, T=T, N=T),
                    sys=sys_, cost_kind="quadratic", costs=costs,
                    w_full=w, x1=x1, T=T, N=T)


def test_a5_brute_force_oracle_equivalence(capsys):
    worst_full = 0.0
    worst_beat = -np.inf
    checked_overlap = 0
    for seed in range(20):
        sc = _tiny_scalar_instance(seed)
        J_grid, _ = brute_force_oracle(sc, 1e-3, 2.0)
        full = run_policy(sc.sys, sc.costs, sc.w_full, sc.x1,
                          build_schedule(sc.T, max(1, sc.T - 1), sc.T))
        worst_full = max(worst_full, abs(full.J - J_grid))
        if sc.T >= 3:
            N = sc.T - 1
            overlap = run_policy(sc.sys, sc.costs, sc.w_full, sc.x1,
                                 build_schedule(N, max(1, N // 2), sc.T))
            worst_beat = max(worst_beat, J_grid - overlap.J)
            checked_overlap += 1
    ok = worst_full <= 5e-3 and worst_beat <= 5e-3
    verdict(capsys, "A5", ok,
            f"20 tiny instances: max |J(N=T) - J_grid| {worst_full:.2e}; "
            f"overlap beat the grid by at most {max(worst_beat, 0.0):.2e} "
            f"on {checked_overlap} short-preview runs")


def test_a6_pinned_formula_values(capsys):
    checks = (
        ("kappa(1,2)", kappa(1.0, 2), 1.25),
        ("omega_op(1,2)", omega_op(1.0, 2), 4.5),
        ("a_factor(1,2)", a_factor(1.0, 2), 0.5),
        ("a_factor(0.5,8)", a_factor(0.5, 8), 0.75),
        ("omega_op(0.5,8)", omega_op(0.5, 8), 8.75),
    )
    worst = max(abs(got - want) for _, got, want in checks)
    verdict(capsys, "A6", worst <= 1e-12,
            "unit formula values "
            + ", ".join(f"{name}={got!r}" for name, got, _ in checks)
            + f", max abs error {worst:.1e}")


def test_a7_residual_envelope_decay(capsys):
    t0 = time.time()
    beta = 0.5
    Ns = [2**k for k in range(5, 15)]
    seq = [(omega_op(beta, N // 2) - (2.0 - beta) / beta) * N for N in Ns]
    dt = time.time() - t0
    bounded = all(s <= seq[0] + 1e-12 for s in seq)
    monotone = all(a >= b for a, b in zip(seq, seq[1:]))
    verdict(capsys, "A7", bounded and monotone and dt < 1.0,
            f"(omega-limit)*N over N=2^5..2^14 decays {seq[0]:.3f} -> "
            f"{seq[-1]:.3f}, bounded by the first value, {dt:.3f}s")


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "prhc", *[str(a) for a in args]],
                          capture_output=True, text=True, timeout=600)


def test_a8_comparison_protocol(capsys, tmp_path):
    out = tmp_path / "table1.csv"
    t0 = time.time()
    proc = _cli("table1", "--iters", 10, "--N-list", "6,9", "--out", out)
    dt = time.time() - t0
    assert proc.returncode == 0, proc.stderr
    report = load_report(out)
    cells = aggregate_report(report)
    rows_ok = all(np.isfinite(r.gain) and r.gain > 0 for r in report.rows)
    cells_ok = (len(cells) == 12
                and all(np.isfinite(c.gain) and c.gain > 0 for c in cells))
    certified_rows = [r for r in report.rows if r.certified]
    hard_ok = all(r.J <= r.bound * (1 + 1e-9) + 1e-15 for r in certified_rows)
    stderr_cells = [ln for ln in proc.stderr.splitlines()
                    if re.match(r"\s+\w+ +\w+ +N=", ln)]
    verdict(capsys, "A8",
            rows_ok and cells_ok and hard_ok and len(stderr_cells) == 12
            and dt < 600.0,
            f"{len(report.rows)} rows, {len(cells)} aggregate cells, all "
            f"gains finite and positive, bound respected on "
            f"{len(certified_rows)} certified rows, {dt:.0f}s")


def test_a9_cli_determinism(capsys, tmp_path):
    pairs = []
    for name, args in (
        ("run", ("run", "--seed", 4, "--T", 10, "--N", 6)),
        ("table1", ("table1", "--iters", 1, "--N-list", "4", "--T", 8,
                    "--sample-budget", 8)),
    ):
        first = tmp_path / f"{name}_1.csv"
        second = tmp_path / f"{name}_2.csv"
        for target in (first, second):
            proc = _cli(*args, "--out", target)
            assert proc.returncode == 0, proc.stderr
        pairs.append((name, first.read_bytes() == second.read_bytes()))
    verdict(capsys, "A9", all(ok for _, ok in pairs),
            "byte-identical CSV on repeat: "
            + ", ".join(f"{name}={'yes' if ok else 'NO'}" for name, ok in pairs))
