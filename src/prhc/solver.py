"""Finite-horizon window optimization: exact batch solve for quadratic costs,
first-order descent with backtracking for everything else."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostModel, QuadraticCost, _condensed_qp
from .linsys import DisturbanceSequence, LinearSystem, _propagate, stack_dynamics

__all__ = [
    "HorizonProblem",
    "SolverConfig",
    "HorizonSolution",
    "solve_quadratic",
    "solve_general",
    "solve",
    "adjoint_gradient",
    "horizon_objective",
]

FD_STEP = 1e-6
STEP_INIT = 1.0        # first trial step of each line search
STEP_SHRINK = 0.5      # backtracking factor
ARMIJO_C = 1e-4        # sufficient-decrease constant
STALL_STEP = 1e-20
MEMORY = 10            # L-BFGS curvature pairs kept
RESTART_SCALE = 1.0    # restart spread, in units of 1 + max|u0|
TIE_REL = 1e-9


@dataclass(frozen=True)
class HorizonProblem:
    """One window instance: minimize the window cost from state x0 at sequence
    offset t0, against the previewed disturbances."""

    sys: LinearSystem
    x0: np.ndarray
    costs: CostModel
    t0: int
    w_preview: DisturbanceSequence
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"horizon must be at least 1, got {self.N}")
        if len(self.w_preview) != self.N:
            raise ValueError(
                f"preview holds {len(self.w_preview)} steps but the horizon is {self.N}"
            )
        if self.w_preview.n != self.sys.n:
            raise ValueError(
                f"preview disturbance dimension {self.w_preview.n} "
                f"does not match the state dimension {self.sys.n}"
            )
        x0 = np.asarray(self.x0, dtype=float).reshape(self.sys.n)
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)
        self.costs.check_horizon(self.t0, self.N)


@dataclass(frozen=True)
class SolverConfig:
    """Descent controls: iteration cap and gradient tolerance, plus restart
    count and seed for non-convex problems."""

    max_iters: int = 500
    grad_tol: float = 1e-8
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if not (self.grad_tol > 0):
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol}")
        if self.restarts < 0:
            raise ValueError(f"restarts must be nonnegative, got {self.restarts}")


@dataclass
class HorizonSolution:
    u_opt: np.ndarray  # (N, m)
    value: float
    converged: bool
    iterations: int


def _stage_gradient(costs, t, x, u):
    if costs.has_gradient:
        return costs.gradient(t, x, u)
    gx = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = FD_STEP
        gx[i] = (costs.eval(t, x + e, u) - costs.eval(t, x - e, u)) / (2 * FD_STEP)
    gu = np.empty_like(u)
    for i in range(u.size):
        e = np.zeros_like(u)
        e[i] = FD_STEP
        gu[i] = (costs.eval(t, x, u + e) - costs.eval(t, x, u - e)) / (2 * FD_STEP)
    return gx, gu


def horizon_objective(p: HorizonProblem, u) -> float:
    """Window cost of stacked controls u (shape (N, m) or flat)."""
    u = np.asarray(u, dtype=float).reshape(p.N, p.sys.m)
    xs = _propagate(p.sys, p.x0, u[:-1], p.w_preview.w[:-1])
    total = 0.0
    for k in range(p.N):
        total += float(p.costs.eval(p.t0 + k, xs[k], u[k]))
    return total


def _objective_gradient(p: HorizonProblem, u_flat: np.ndarray):
    """Value and flat gradient via the backward (adjoint) recursion:
    lam_N = 0; grad_u[k] = dc_k/du + B' lam_{k+1}; lam_k = dc_k/dx + A' lam_{k+1}."""
    n, m, N = p.sys.n, p.sys.m, p.N
    u = u_flat.reshape(N, m)
    xs = _propagate(p.sys, p.x0, u[:-1], p.w_preview.w[:-1])
    value = 0.0
    gx_all = np.empty((N, n))
    gu_all = np.empty((N, m))
    for k in range(N):
        c = float(p.costs.eval(p.t0 + k, xs[k], u[k]))
        if not np.isfinite(c):
            raise RuntimeError(f"non-finite stage cost at window offset {k}")
        value += c
        gx, gu = _stage_gradient(p.costs, p.t0 + k, xs[k], u[k])
        gx_all[k] = gx
        gu_all[k] = gu
    lam = np.zeros(n)
    grad = np.empty(N * m)
    for k in range(N - 1, -1, -1):
        grad[k * m:(k + 1) * m] = gu_all[k] + p.sys.B.T @ lam
        lam = gx_all[k] + p.sys.A.T @ lam
    if not np.all(np.isfinite(grad)):
        raise RuntimeError("non-finite gradient encountered")
    return value, grad


def adjoint_gradient(p: HorizonProblem, u) -> np.ndarray:
    """Gradient of the window cost with respect to the stacked controls."""
    u = np.asarray(u, dtype=float).reshape(p.N * p.sys.m)
    return _objective_gradient(p, u)[1]


def _two_loop(g, s_list, y_list):
    q = g.copy()
    alphas = []
    for s, y in zip(reversed(s_list), reversed(y_list)):
        rho = 1.0 / float(y @ s)
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    if s_list:
        s, y = s_list[-1], y_list[-1]
        q *= float(s @ y) / float(y @ y)
    for (s, y), a in zip(zip(s_list, y_list), reversed(alphas)):
        rho = 1.0 / float(y @ s)
        b = rho * float(y @ q)
        q += (a - b) * s
    return -q


def _max_abs(g) -> float:
    return float(np.max(np.abs(g))) if g.size else 0.0


def _descend(p, u0, cfg, callback=None):
    def evaluate(u_vec, it):
        try:
            f, g = _objective_gradient(p, u_vec)
        except RuntimeError as exc:
            raise RuntimeError(f"iteration {it}: {exc}") from None
        if not np.isfinite(f):
            raise RuntimeError(f"iteration {it}: non-finite cost")
        return f, g

    u = u0.copy()
    f, g = evaluate(u, 0)
    s_list, y_list = [], []
    iterations = 0
    for it in range(1, cfg.max_iters + 1):
        if _max_abs(g) <= cfg.grad_tol:
            break
        d = _two_loop(g, s_list, y_list)
        gd = float(g @ d)
        if not np.isfinite(gd) or gd >= 0.0:
            d = -g
            gd = -float(g @ g)
        step = STEP_INIT
        accepted = False
        while step >= STALL_STEP:
            u_new = u + step * d
            f_new, g_new = evaluate(u_new, it)
            if f_new <= f + ARMIJO_C * step * gd:
                accepted = True
                break
            step *= STEP_SHRINK
        if not accepted:
            break  # no decrease representable; f is numerically stationary
        s = u_new - u
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            s_list.append(s)
            y_list.append(y)
            if len(s_list) > MEMORY:
                s_list.pop(0)
                y_list.pop(0)
        u, f, g = u_new, f_new, g_new
        iterations = it
        if callback is not None:
            callback(f)
    return u, f, iterations, _max_abs(g) <= cfg.grad_tol


def solve_general(p: HorizonProblem, cfg: SolverConfig | None = None, u0=None,
                  callback=None) -> HorizonSolution:
    """First-order solve of the window problem.

    Descent over the stacked control vector with backtracking line search;
    the gradient comes from the adjoint recursion. Non-convex models run
    cfg.restarts extra descents from Gaussian perturbations of the start and
    keep the best value, breaking ties by lower control energy. For
    non-convex costs the result is an upper bound on the true window value.

    callback, when given, receives the accepted cost after each iteration of
    every descent run; within one run the sequence is non-increasing.
    """
    if cfg is None:
        cfg = SolverConfig()
    dim = p.N * p.sys.m
    if u0 is None:
        u0 = np.zeros(dim)
    else:
        u0 = np.asarray(u0, dtype=float).reshape(dim).copy()
    starts = [u0]
    if not p.costs.convex and cfg.restarts > 0:
        rng = np.random.default_rng(cfg.seed)
        scale = RESTART_SCALE * (1.0 + float(np.max(np.abs(u0))))
        for _ in range(cfg.restarts):
            starts.append(u0 + rng.normal(scale=scale, size=dim))
    runs = [_descend(p, s, cfg, callback=callback) for s in starts]
    best_val = min(r[1] for r in runs)
    tol = TIE_REL * max(1.0, abs(best_val))
    candidates = [r for r in runs if r[1] <= best_val + tol]
    u, value, iterations, converged = min(
        candidates, key=lambda r: float(np.linalg.norm(r[0]))
    )
    return HorizonSolution(
        u_opt=u.reshape(p.N, p.sys.m),
        value=value,
        converged=converged,
        iterations=iterations,
    )


def solve_quadratic(p: HorizonProblem) -> HorizonSolution:
    """Exact window minimizer from the stacked normal equations
    (G'QG + R) u = -G'Q (F x0 + H w)."""
    if not isinstance(p.costs, QuadraticCost):
        raise ValueError("solve_quadratic requires a quadratic cost model")
    m, N = p.sys.m, p.N
    sd = stack_dynamics(p.sys, N)
    _, GtQ, normal = _condensed_qp(sd, p.costs, p.t0)
    free = sd.F @ p.x0 + sd.H @ p.w_preview.w.ravel()
    try:
        u_flat = np.linalg.solve(normal, -GtQ @ free)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"normal matrix is singular: {exc}") from exc
    u_opt = u_flat.reshape(N, m)
    return HorizonSolution(
        u_opt=u_opt,
        value=horizon_objective(p, u_opt),
        converged=True,
        iterations=0,
    )


def solve(p: HorizonProblem, cfg: SolverConfig | None = None, u0=None) -> HorizonSolution:
    """Dispatch: exact batch path for quadratic models, descent otherwise."""
    if isinstance(p.costs, QuadraticCost):
        return solve_quadratic(p)
    return solve_general(p, cfg, u0=u0)
