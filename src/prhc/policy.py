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
    """Replanning schedule: window starts t_i = (i-1)(N-M)+1, truncated at T."""

    N: int
    M: int
    T: int
    t_list: tuple

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
    None.
    """

    traj: Trajectory
    J: float
    interval_solutions: tuple
    schedule: RhcSchedule
    laws: tuple | None = None


def build_schedule(N: int, M: int, T: int) -> RhcSchedule:
    """Window starts (1-based) for preview N, overlap M, task horizon T.

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
    if N == T:
        t_list = (1,)
    else:
        step = N - M
        t_list = tuple(range(1, T + 1, step))
    return RhcSchedule(N=N, M=M, T=T, t_list=t_list)


def run_policy(
    sys: LinearSystem,
    costs: CostModel,
    w_full: DisturbanceSequence,
    x1,
    sched: RhcSchedule,
) -> RunResult:
    """Roll the policy over [1, T]: at each window start observe the state,
    solve the previewed window problem, apply the leading inputs.

    A quadratic model's windows are solved together: one backward Riccati
    sweep over the window starts gives each window's affine law, and one
    forward propagation applies each step's law from its window. Other
    models solve each window with the default SolverConfig; each window
    after the first warm-starts from the unapplied tail of the previous
    window's solution, zero-padded to its horizon.
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
    x = x.reshape(sys.n)
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
    if isinstance(costs, QuadraticCost):
        W = len(sched.t_list)
        starts = np.array(sched.t_list) - 1
        K, f = _solver._window_laws(sys, costs, w_full.w, starts, sched.N)
        # step t applies the law of its window at offset t - start
        win = np.repeat(np.arange(W), [sched.applied_at(i) for i in range(W)])
        off = np.arange(T) - starts[win]
        inputs = -f[off, win]
        states = _propagate(sys, x, inputs, w_full.w[:T], K[off, win])
        stops = (WindowStop(converged=True, iterations=0),) * W
        laws = (K, f)
    else:
        laws = None
        states = np.empty((T + 1, sys.n))
        inputs = np.empty((T, sys.m))
        stops = []
        sol = None
        for i, t_i in enumerate(sched.t_list):
            applied = sched.applied_at(i)
            done = t_i - 1 + applied  # steps taken once this interval's inputs are in
            sol = _solve_window(sys, costs, w_full, x, sched, i, sol)
            stops.append(WindowStop(converged=sol.converged, iterations=sol.iterations))
            u_applied = sol.u_opt[:applied]
            states[t_i - 1:done + 1] = _propagate(sys, x, u_applied, w_full.w[t_i - 1:done])
            inputs[t_i - 1:done] = u_applied
            x = states[done]

    traj = Trajectory(
        states=states, inputs=inputs, disturbances=w_full.w[:T].copy()
    )
    J = total_cost(traj, costs)
    return RunResult(
        traj=traj,
        J=J,
        interval_solutions=tuple(stops),
        schedule=sched,
        laws=laws,
    )


def _solve_window(sys, costs, w_full, x, sched, i, previous):
    """Interval i's solution from state x, warm-started from the unapplied
    tail of the previous solution."""
    t_i = sched.t_list[i]
    N_i = sched.horizon_at(i)
    window = w_full.window(t_i - 1, t_i - 1 + N_i)
    problem = HorizonProblem(
        sys=sys, x0=x, costs=costs, t0=t_i - 1, w_preview=window, N=N_i
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
            f"solver failed on interval {i + 1} starting at t={t_i}: {exc}"
        ) from exc
