"""Receding-horizon policies over previewed disturbances.

The overlap policy replans every N-M steps, keeping an M-step overlap between
consecutive planning windows; the standard baseline is the M=N-1 special case
(replan every step). Interval start times are 1-based to match the reporting
convention; array indices inside are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import solver as _solver
from .costs import CostModel, total_cost
from .linsys import DisturbanceSequence, LinearSystem, Trajectory, _propagate, rollout
from .solver import HorizonProblem, HorizonSolution, SolverConfig

__all__ = [
    "RhcSchedule",
    "RunResult",
    "build_schedule",
    "run_policy",
    "run_standard_rhc",
]

PREDICTION_TOL = 1e-9


@dataclass(frozen=True)
class RhcSchedule:
    """Replanning schedule: window starts t_i = (i-1)(N-M)+1, truncated at T."""

    N: int
    M: int
    T: int
    t_list: tuple
    n_m: int

    @property
    def truncated_tail(self) -> bool:
        """True when the last window extends past T and was shortened."""
        return self.t_list[-1] + self.N - 1 > self.T

    def horizon_at(self, i: int) -> int:
        """Inner horizon of interval i (0-based index into t_list)."""
        return min(self.N, self.T - self.t_list[i] + 1)

    def applied_at(self, i: int) -> int:
        """Number of inputs taken from interval i's solution."""
        if i + 1 < len(self.t_list):
            return self.t_list[i + 1] - self.t_list[i]
        return self.T - self.t_list[i] + 1


@dataclass
class RunResult:
    """Closed-loop record of one policy run."""

    traj: Trajectory
    J: float
    interval_values: tuple
    interval_solutions: tuple
    schedule: RhcSchedule


def build_schedule(N: int, M: int, T: int) -> RhcSchedule:
    """Window starts (1-based) for preview N, overlap M, task horizon T.

    N = T collapses to a single window covering the whole task; otherwise the
    arithmetic progression with step N-M runs until it passes T, and the last
    window is truncated at T.
    """
    if M < 1:
        raise ValueError(f"overlap must satisfy M >= 1, got M={M}")
    if M >= N:
        raise ValueError(f"overlap must satisfy M < N, got M={M}, N={N}")
    if N > T:
        raise ValueError(f"preview must satisfy N <= T, got N={N}, T={T}")
    if N == T:
        t_list = (1,)
    else:
        step = N - M
        t_list = tuple(range(1, T + 1, step))
    return RhcSchedule(N=N, M=M, T=T, t_list=t_list, n_m=N - M)


def run_policy(
    sys: LinearSystem,
    costs: CostModel,
    w_full: DisturbanceSequence,
    x1,
    sched: RhcSchedule,
    cfg: SolverConfig | None = None,
) -> RunResult:
    """Roll the policy over [1, T]: at each window start observe the state,
    solve the previewed window problem, apply the leading inputs. Each
    window after the first warm-starts from the unapplied tail of the
    previous window's solution, zero-padded to its horizon.

    Previews are exact, so the realized state at the next window start must
    equal the solver's prediction; that is checked at runtime.
    """
    T = sched.T
    if len(w_full) < T:
        raise ValueError(
            f"disturbance sequence covers {len(w_full)} steps "
            f"but the task horizon is T={T}"
        )
    if costs.length is not None and costs.length != T:
        raise ValueError(
            f"cost sequence covers {costs.length} stages "
            f"but the task horizon is T={T}"
        )
    x = np.asarray(x1, dtype=float).reshape(sys.n)
    states = np.empty((T + 1, sys.n))
    inputs = np.empty((T, sys.m))
    interval_values = []
    interval_solutions = []
    prev_sol: HorizonSolution | None = None
    prev_applied = 0

    for i, t_i in enumerate(sched.t_list):
        N_i = sched.horizon_at(i)
        window = w_full.window(t_i - 1, t_i - 1 + N_i)
        problem = HorizonProblem(
            sys=sys, x0=x, costs=costs, t0=t_i - 1, w_preview=window, N=N_i
        )
        u0 = None
        if prev_sol is not None:
            tail = prev_sol.u_opt[prev_applied:]
            u0 = np.zeros((N_i, sys.m))
            keep = min(len(tail), N_i)
            u0[:keep] = tail[:keep]
        try:
            sol = _solver.solve(problem, cfg, u0=u0)
        except RuntimeError as exc:
            raise RuntimeError(
                f"solver failed on interval {i + 1} starting at t={t_i}: {exc}"
            ) from exc
        interval_values.append(sol.value)
        interval_solutions.append(sol)

        applied = sched.applied_at(i)
        done = t_i - 1 + applied  # steps taken once this interval's inputs are in
        u_applied = sol.u_opt[:applied]
        predicted = rollout(sys, x, u_applied, window.w[:applied]).states
        inputs[t_i - 1:done] = u_applied
        states[t_i - 1:done + 1] = _propagate(sys, x, u_applied, w_full.w[t_i - 1:done])
        x = states[done]
        drift = float(np.max(np.abs(predicted[applied] - x)))
        if drift > PREDICTION_TOL * max(1.0, float(np.max(np.abs(x)))):
            raise RuntimeError(
                f"predicted state diverged from the realized state at "
                f"t={t_i + applied} (interval {i + 1}): drift {drift:.3e}"
            )
        prev_sol = sol
        prev_applied = applied

    traj = Trajectory(
        states=states, inputs=inputs, disturbances=w_full.w[:T].copy()
    )
    J = total_cost(traj, costs)
    return RunResult(
        traj=traj,
        J=J,
        interval_values=tuple(interval_values),
        interval_solutions=tuple(interval_solutions),
        schedule=sched,
    )


def run_standard_rhc(
    sys: LinearSystem,
    costs: CostModel,
    w_full: DisturbanceSequence,
    x1,
    N: int,
    T: int,
) -> RunResult:
    """Replan-every-step baseline: the overlap policy with M = N-1."""
    return run_policy(sys, costs, w_full, x1, build_schedule(N, N - 1, T))
