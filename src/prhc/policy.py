"""Receding-horizon policies over previewed disturbances.

The overlap policy replans every N-M steps, keeping an M-step overlap between
consecutive planning windows; the standard baseline is the M=N-1 special case
(replan every step). The paper writes the replanning times as
t_i = (i-1)(N-M)+1; here window starts are 0-based, s_i = (i-1)(N-M), like
every other step index in the package, so the window from start s covers
steps s..s+N-1 and an error names a window by its start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import solver as _solver
from .costs import CostModel, QuadraticCost, total_cost
from .linsys import DisturbanceSequence, LinearSystem, Trajectory, _propagate
from .solver import HorizonProblem

__all__ = [
    "RhcSchedule",
    "RunResult",
    "WindowStop",
    "build_schedule",
    "run_policy",
]


@dataclass(frozen=True)
class RhcSchedule:
    """Replanning schedule: 0-based window starts (0, N-M, 2(N-M), ...), the
    paper's t_i less one, truncated at T."""

    N: int
    M: int
    T: int
    starts: tuple

    @property
    def truncated_tail(self) -> bool:
        """True when the last window extends past T and was shortened."""
        return self.starts[-1] + self.N > self.T

    def horizon_at(self, i: int) -> int:
        """Inner horizon of interval i (0-based index into starts)."""
        return min(self.N, self.T - self.starts[i])

    def applied_at(self, i: int) -> int:
        """Number of inputs taken from interval i's solution."""
        if i + 1 < len(self.starts):
            return self.starts[i + 1] - self.starts[i]
        return self.T - self.starts[i]


@dataclass(frozen=True)
class WindowStop:
    """How one window's solve ended: exact quadratic windows record
    converged=True and 0 iterations, descents copy their solve's values."""

    converged: bool
    iterations: int


@dataclass
class RunResult:
    """Closed-loop record of one policy run.

    interval_solutions holds one WindowStop per window, not the window's
    plan; the applied inputs are in traj. The field keeps its name because
    the benchmark's tracer counts it and its contract test pins it, so a
    rename waits for the next change to the benchmark. A quadratic run
    keeps its law table in laws, the (K, f) of solver._window_laws over the
    schedule's window starts, which recursion_audit reads; other runs keep
    None. sys and costs are the objects the run was given, kept by reference
    so the audit can refuse any other model.
    """

    traj: Trajectory
    J: float
    interval_solutions: tuple
    schedule: RhcSchedule
    sys: LinearSystem
    costs: CostModel
    laws: tuple | None = None


def build_schedule(N: int, M: int, T: int) -> RhcSchedule:
    """Window starts (0-based) for preview N, overlap M, task horizon T.

    N = T collapses to a single window covering the whole task, which has no
    next window to overlap, so M = N is allowed there; otherwise M < N, the
    arithmetic progression with step N-M runs until it passes T, and the
    last window is truncated at T.
    """
    if M < 1:
        raise ValueError(f"overlap must satisfy M >= 1, got M={M}")
    if M >= N and not M == N == T:
        raise ValueError(f"overlap must satisfy M < N, got M={M}, N={N}")
    if N > T:
        raise ValueError(f"preview must satisfy N <= T, got N={N}, T={T}")
    starts = (0,) if N == T else tuple(range(0, T, N - M))
    return RhcSchedule(N=N, M=M, T=T, starts=starts)


def run_policy(
    sys: LinearSystem,
    costs: CostModel,
    w_full: DisturbanceSequence,
    x1,
    sched: RhcSchedule,
) -> RunResult:
    """Roll the policy over steps 0..T-1: at each window start observe the state,
    solve the previewed window problem, apply the leading inputs.

    Each window applies its leading inputs by one _propagate from its
    observed state: a quadratic model's window under its law, all laws from
    one backward Riccati sweep over the window starts; any other under the
    plan of a default-SolverConfig solve, warm-started from the unapplied
    tail of the previous plan, zero-padded to its horizon.
    """
    T = sched.T
    if w_full.n != sys.n:
        raise ValueError(
            f"disturbances have {w_full.n} components "
            f"but the state dimension is n={sys.n}"
        )
    x = np.asarray(x1, dtype=float)
    if x.size != sys.n:
        raise ValueError(
            f"initial state has {x.size} entries "
            f"but the state dimension is n={sys.n}"
        )
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
    laws = None
    if isinstance(costs, QuadraticCost):
        laws = _solver._window_laws(sys, costs, w_full.w, np.array(sched.starts), sched.N)
        # shared: a record per window read 0.25 MB more peak RSS on quadratic_scale
        stop = WindowStop(converged=True, iterations=0)
    states = np.empty((T + 1, sys.n))
    states[0] = x.reshape(sys.n)
    inputs = np.empty((T, sys.m))
    stops = []
    sol = None
    for i, s in enumerate(sched.starts):
        a = sched.applied_at(i)
        done = s + a  # steps taken once this window's inputs are in
        if laws is None:
            sol = _solve_window(sys, costs, w_full, states[s], sched, i, sol)
            stop = WindowStop(converged=sol.converged, iterations=sol.iterations)
            u, K = sol.u_opt[:a], None
        else:
            u, K = -laws[1][:a, i], laws[0][:a, i]
        stops.append(stop)
        states[s:done + 1] = _propagate(sys, states[s], u, w_full.w[s:done], K)
        inputs[s:done] = u

    traj = Trajectory(
        states=states, inputs=inputs, disturbances=w_full.w[:T].copy()
    )
    J = total_cost(traj, costs)
    return RunResult(
        traj=traj,
        J=J,
        interval_solutions=tuple(stops),
        schedule=sched,
        sys=sys,
        costs=costs,
        laws=laws,
    )


def _solve_window(sys, costs, w_full, x, sched, i, previous):
    """Interval i's solution from state x, warm-started from the unapplied
    tail of the previous solution."""
    s = sched.starts[i]
    N_i = sched.horizon_at(i)
    problem = HorizonProblem(
        sys=sys, x0=x, costs=costs, t0=s, w_preview=w_full.window(s, s + N_i), N=N_i
    )
    u0 = None
    if i > 0:
        tail = previous.u_opt[sched.applied_at(i - 1):]
        u0 = np.zeros((N_i, sys.m))
        keep = min(len(tail), N_i)
        u0[:keep] = tail[:keep]
    try:
        return _solver.solve(problem, u0=u0)
    except RuntimeError as exc:
        raise RuntimeError(
            f"solver failed on the window from start {s}: {exc}"
        ) from exc
