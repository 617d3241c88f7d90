"""Finite inputs at extreme scales: every public step of the pipeline either
returns finite numbers or raises a named ValueError or RuntimeError, prints no
warning, and fails alike whether or not warnings are errors."""

import math
import os
import tempfile
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from prhc.bounds import certify, recursion_audit  # noqa: E402
from prhc.costs import QuadraticCost, SetDistanceCost, estimate_params  # noqa: E402
from prhc.harness import (  # noqa: E402
    ExperimentReport,
    Scenario,
    ScenarioConfig,
    brute_force_oracle,
    default_policies,
    emit_report,
    load_report,
    run_comparison,
)
from prhc.linsys import DisturbanceSequence, LinearSystem  # noqa: E402
from prhc.policy import build_schedule, run_policy  # noqa: E402
from prhc.solver import HorizonProblem, solve  # noqa: E402

N_STATE, T, N, M = 2, 6, 4, 2   # windows from 0, 2, 4; the first two are full
T_ORACLE = 2                    # 3 grid points per input: at most 81 points


def scale(draw, lo, hi):
    return 10.0 ** draw(st.floats(lo, hi))


@st.composite
def extreme_cases(draw):
    """(quadratic, m, A, stage weights, x1): A entries of magnitude 1e-150 to
    1e150, and quadratic Q and R diagonals from 1e-150 to 1e150; the
    set-distance weights a_t, which must lie in [0, 1], from 1e-150 to 1."""
    quadratic = draw(st.booleans())
    m = draw(st.sampled_from([1, 2]))
    A = np.array([[draw(st.sampled_from([-1.0, 1.0])) * scale(draw, -150, 150)
                   for _ in range(N_STATE)] for _ in range(N_STATE)])
    if quadratic:
        weights = ([[scale(draw, -150, 150) for _ in range(N_STATE)] for _ in range(T)],
                   [[scale(draw, -150, 150) for _ in range(m)] for _ in range(T)])
    else:
        weights = [scale(draw, -150, 0) for _ in range(T)]
    x1 = np.full(N_STATE, float(draw(st.sampled_from([0, 1]))))
    return quadratic, m, A, weights, x1


def make_costs(quadratic, weights, length):
    if quadratic:
        q, r = weights
        return QuadraticCost(np.stack([np.diag(d) for d in q[:length]]),
                             np.stack([np.diag(d) for d in r[:length]]))
    return SetDistanceCost(weights[:length], np.full(N_STATE, 0.5), 0.25)


def make_scenario(sys, costs, x1, length):
    kind = "quadratic" if isinstance(costs, QuadraticCost) else "set_distance"
    return Scenario(seed=0, config=ScenarioConfig(cost_kind=kind, n=N_STATE, m=sys.m,
                                                  T=length, N=min(N, length)),
                    sys=sys, cost_kind=kind, costs=costs,
                    w_full=DisturbanceSequence(np.full((length, N_STATE), 0.5)),
                    x1=x1, T=length, N=min(N, length),
                    policies=default_policies(min(N, length)))


def finite(*arrays):
    return all(np.isfinite(np.asarray(a, dtype=float)).all() for a in arrays)


def pipeline(case):
    """Each step's outcome, in order: "ok" once its result checks finite,
    or the type and message of the error it raised."""
    quadratic, m, A, weights, x1 = case
    sys = LinearSystem(A=A, B=np.ones((N_STATE, m)))
    costs = make_costs(quadratic, weights, T)
    sc = make_scenario(sys, costs, x1, T)
    w = sc.w_full
    outcomes = []

    def step(name, call, check):
        try:
            out = call()
        except (ValueError, RuntimeError) as exc:
            outcomes.append((name, type(exc).__name__, str(exc)))
            return None
        assert check(out), (name, out)
        outcomes.append((name, "ok"))
        return out

    step("solve", lambda: solve(HorizonProblem(sys=sys, x0=x1, costs=costs, t0=0,
                                               w_preview=w.window(0, N), N=N)),
         lambda sol: finite(sol.u_opt, sol.value))
    run = step("run_policy", lambda: run_policy(sys, costs, w, x1, build_schedule(N, M, T)),
               lambda res: finite(res.traj.states, res.traj.inputs, res.J))
    params = step("estimate_params", lambda: estimate_params(sys, costs, N),
                  lambda p: finite(p.alpha_lo, p.alpha_hi, p.gamma_bar_sq, p.beta))
    if run is not None:
        # an infinite bound is the certificate's report of a failed condition
        step("certify", lambda: certify(run, params),
             lambda c: finite(c.J, c.energy, c.gain)
             and (finite(c.bound, c.omega) or (c.bound == math.inf and not c.satisfied)))
        step("recursion_audit", lambda: recursion_audit(run, params, sys, costs, w),
             lambda slacks: finite(slacks))
    oracle_sc = make_scenario(sys, make_costs(quadratic, weights, T_ORACLE), x1, T_ORACLE)
    step("brute_force_oracle", lambda: brute_force_oracle(oracle_sc, 1.0, 1.0),
         lambda found: finite(*found))
    rows = step("run_comparison", lambda: run_comparison(sc, params), lambda rows: True)
    if rows is not None:
        report = ExperimentReport(config={"T": T}, rows=rows)
        with tempfile.TemporaryDirectory() as tmp:
            for fmt in ("csv", "json"):
                path = os.path.join(tmp, f"report.{fmt}")
                emit_report(report, fmt, path)
                assert load_report(path).rows == report.sorted_rows(), fmt
    return outcomes


@settings(derandomize=True, deadline=None, max_examples=60)
@given(extreme_cases())
def test_extreme_scales_fail_by_name_in_every_warning_mode(case):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        quiet = pipeline(case)
    assert seen == [], [str(w.message) for w in seen]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pipeline(case) == quiet
