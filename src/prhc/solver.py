"""Finite-horizon window optimization: exact Riccati laws for quadratic costs,
first-order descent with backtracking for everything else."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostModel, QuadraticCost, _riccati_step, _stage_costs, _walk
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

STEP_INIT = 1.0        # first trial step of each line search
STEP_SHRINK = 0.5      # backtracking factor
ARMIJO_C = 1e-4        # sufficient-decrease constant
STALL_STEP = 1e-20     # smallest trial step; still bounds the search where f = 0
MEMORY = 10            # L-BFGS curvature pairs kept
# solve_quadratic's validity range. Against the Riccati value form z'Pz on the
# h in {40, 60, 100} windows of seeds 0-9 (T=100), every normal matrix with a
# 2-norm condition number up to 2.6e9 gave the value to 4.2e-16 relative; the
# next, 4.2e10, was 6.4e-13 off, and the error grows to 7.7e-3 at 7.6e15.
NORMAL_COND_MAX = 1e10


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
        x0 = np.asarray(self.x0, dtype=float)
        if x0.size != self.sys.n:
            raise ValueError(
                f"initial state has {x0.size} entries "
                f"but the state dimension is n={self.sys.n}"
            )
        x0 = x0.reshape(self.sys.n)
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)
        self.costs.check_horizon(self.t0, self.N)


@dataclass(frozen=True)
class SolverConfig:
    """Descent controls: iteration cap and gradient tolerance."""

    max_iters: int = 500
    grad_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if not (self.grad_tol > 0):
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol}")


@dataclass
class HorizonSolution:
    """A window solve: its inputs, their window cost and how the solve ended.

    converged means the descent stopped normally: the final gradient has
    max|g| <= grad_tol, or the line search's expected decrease step*|g'd|
    fell to 4 eps |value|, the rounding of the value, where no step can
    show a decrease. A stop at max_iters reads False. The exact
    quadratic paths set it, and raise ValueError rather than return a
    window law that is not finite. It does not tell a minimizer from
    another stationary point: on a custom non-convex model such as the
    double well (u - 1)^2 (u + 2)^2, the descent from u0 = -3 stops at the
    local maximum u = -1/2 with value 5.0625, against a window minimum of
    0, and reports converged. value is the cost of u_opt all the same, so
    it stays an upper bound on the window minimum.
    """

    u_opt: np.ndarray  # (N, m)
    value: float
    converged: bool
    iterations: int


def horizon_objective(p: HorizonProblem, u) -> float:
    """Window cost of stacked controls u (shape (N, m) or flat)."""
    u = np.asarray(u, dtype=float).reshape(p.N, p.sys.m)
    xs = _propagate(p.sys, p.x0, u[:-1], p.w_preview.w[:-1])
    return _stage_costs(p.costs, np.arange(p.t0, p.t0 + p.N), xs, u)


def _objective_gradient(p: HorizonProblem, u_flat: np.ndarray):
    """Value and flat gradient via the backward (adjoint) recursion:
    lam_N = 0; grad_u[k] = dc_k/du + B' lam_{k+1}; lam_k = dc_k/dx + A' lam_{k+1}.
    The window's stage costs and stage gradients come from one eval and one
    gradient call, with floating-point warnings off; _stage_costs checks the
    stage costs and their total, and a non-finite gradient raises
    RuntimeError."""
    n, m, N = p.sys.n, p.sys.m, p.N
    u = u_flat.reshape(N, m)
    t = np.arange(p.t0, p.t0 + N)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        xs = _propagate(p.sys, p.x0, u[:-1], p.w_preview.w[:-1])
        value = _stage_costs(p.costs, t, xs, u)
        gx_all, gu_all = p.costs.gradient(t, xs, u)
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


def _descend(p, u0, cfg):
    def evaluate(u_vec, it):
        try:
            f, g = _objective_gradient(p, u_vec)
        except (RuntimeError, ValueError) as exc:
            raise RuntimeError(f"iteration {it}: {exc}") from None
        return f, g

    u = u0.copy()
    f, g = evaluate(u, 0)
    s_list, y_list = [], []
    iterations = 0
    at_floor = False
    for it in range(1, cfg.max_iters + 1):
        if _max_abs(g) <= cfg.grad_tol:
            break
        d = _two_loop(g, s_list, y_list)
        gd = float(g @ d)
        if not np.isfinite(gd) or gd >= 0.0:
            d = -g
            gd = -float(g @ g)
        step = STEP_INIT
        floor = 4.0 * np.finfo(float).eps * abs(f)  # roundoff in f
        accepted = False
        # the floor is on the expected decrease step*|g'd|, not on the Armijo
        # demand, which is ARMIJO_C times smaller and would stop far too early
        while step >= STALL_STEP and -step * gd > floor:
            u_new = u + step * d
            f_new, g_new = evaluate(u_new, it)
            if f_new <= f + ARMIJO_C * step * gd:
                accepted = True
                break
            step *= STEP_SHRINK
        if not accepted:
            # below the floor no decrease of f can show through its
            # rounding: f is numerically stationary, a normal stop. A step
            # below STALL_STEP with the expected decrease still above the
            # floor (as where f = 0) is not
            at_floor = -step * gd <= floor
            break
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
    return u, f, iterations, at_floor or _max_abs(g) <= cfg.grad_tol


def solve_general(p: HorizonProblem, cfg: SolverConfig | None = None,
                  u0=None) -> HorizonSolution:
    """First-order solve of the window problem.

    One L-BFGS descent from u0 (zeros by default) over the stacked control
    vector, with backtracking line search; the gradient comes from the
    adjoint recursion. Every bundled model is convex, so the descent's
    stationary point is the window minimizer. For a custom non-convex model
    the returned value is an upper bound on the window minimum.
    """
    if cfg is None:
        cfg = SolverConfig()
    dim = p.N * p.sys.m
    u0 = np.zeros(dim) if u0 is None else np.asarray(u0, dtype=float).reshape(dim)
    # quiet: an overflowing direction or step reaches the objective, which names it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u, value, iterations, converged = _descend(p, u0, cfg)
    return HorizonSolution(
        u_opt=u.reshape(p.N, p.sys.m),
        value=value,
        converged=converged,
        iterations=iterations,
    )


def solve_quadratic(p: HorizonProblem) -> HorizonSolution:
    """Exact window minimizer from the stacked normal equations
    (G'QG + R) u = -G'Q (F x0 + H w), assembled block by block: neither
    block-diagonal stage weight matrix is formed densely.

    The dense reference of the exact solve, valid while the normal matrix's
    condition number is at most NORMAL_COND_MAX; a window beyond that, as
    long windows of unstable systems soon are, raises ValueError rather
    than return a value rounding has spoiled. solve takes Riccati laws,
    which have no such limit.
    """
    if not isinstance(p.costs, QuadraticCost):
        raise ValueError("solve_quadratic requires a quadratic cost model")
    n, m, N, t0 = p.sys.n, p.sys.m, p.N, p.t0
    sd = stack_dynamics(p.sys, N)
    G_rows = sd.G.reshape(N, n, m * N).transpose(0, 2, 1)   # block k: G_k'
    GtQ = (G_rows @ p.costs.Q_seq[t0:t0 + N]).transpose(1, 0, 2).reshape(m * N, n * N)
    normal = GtQ @ sd.G
    k = np.arange(N)
    normal.reshape(N, m, N, m)[k, :, k, :] += p.costs.R_seq[t0:t0 + N]
    try:
        sv = np.linalg.svd(normal, compute_uv=False)
    except np.linalg.LinAlgError:  # NaN entries, from powers of A that overflowed
        sv = np.full(1, np.nan)
    if not sv[-1] * NORMAL_COND_MAX >= sv[0]:
        raise ValueError(
            f"normal matrix of the window from start {t0} is ill-conditioned "
            f"(singular values {sv[0]:.3g} to {sv[-1]:.3g}): beyond condition "
            f"number {NORMAL_COND_MAX:.0e} solve_quadratic is not exact")
    free = sd.F @ p.x0 + sd.H @ p.w_preview.w.ravel()
    u_opt = np.linalg.solve(normal, -GtQ @ free).reshape(N, m)
    return HorizonSolution(
        u_opt=u_opt,
        value=horizon_objective(p, u_opt),
        converged=True,
        iterations=0,
    )


def _window_laws(sys: LinearSystem, costs: QuadraticCost, w, starts, N: int):
    """Affine laws u_k = -K_k x_k - f_k of the windows from starts (0-based,
    ascending) of a quadratic model, from one backward Riccati sweep over
    all of them at once; K is (N, W, m, n) and f is (N, W, m), offset first.

    Window t0 has stage weights Q_seq, R_seq from t0 on and the horizon h
    of costs._walk. Each stage of the walk is a _riccati_step on the
    windows live at that offset, and the feedforward follows the linear
    term s of the cost-to-go, with s_h = 0: g = Lam_{k+1} w_{t0+k} + s_{k+1},
    f_k = U_k^-1 B'g and s_k = A_cl,k'(g - Lam_{k+1} B f_k) + K_k'R_k f_k.
    Offsets past a window's horizon keep K = f = 0. A U_k without a Cholesky
    factor, or a window whose K or f is not finite, raises ValueError naming
    its window start, with floating-point warnings off in the sweep so that
    an overflow reaches that check in every warning mode.
    """
    A, B = sys.A, sys.B
    n, m, W = sys.n, sys.m, len(starts)
    K = np.zeros((N, W, m, n))
    f = np.zeros((N, W, m))
    s = np.zeros((W, n, 1))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k, a, t, Lam in _walk(costs, starts, N, n):
            R = costs.R_seq[t]
            U, K_k, Acl, new = _riccati_step(A, B, costs.Q_seq[t], R, Lam, starts[:a])
            g = Lam @ w[t][..., None] + s[:a]
            f_k = np.linalg.solve(U, B.T @ g)
            s[:a] = (Acl.transpose(0, 2, 1) @ (g - Lam @ (B @ f_k))
                     + K_k.transpose(0, 2, 1) @ (R @ f_k))
            Lam[:] = new
            K[k, :a] = K_k
            f[k, :a] = f_k[..., 0]
    bad = np.flatnonzero(~(np.isfinite(K).all(axis=(0, 2, 3))
                           & np.isfinite(f).all(axis=(0, 2))))
    if bad.size:
        raise ValueError(f"law of the window from start {starts[bad[0]]} is not finite")
    return K, f


def _law_rollout(sys: LinearSystem, costs: QuadraticCost, x0, t0: int, w, K, f):
    """Inputs and window cost of the law u_k = -K_k x_k - f_k, K (h, m, n)
    and f (h, m), rolled out by _propagate from x0 at offset t0 against the
    window's disturbances w; the cost is horizon_objective of the inputs,
    bit for bit."""
    u = -f
    xs = _propagate(sys, x0, u, w, K)
    t = np.arange(t0, t0 + len(u))
    return u, _stage_costs(costs, t, xs[:-1], u)


def solve(p: HorizonProblem, cfg: SolverConfig | None = None, u0=None) -> HorizonSolution:
    """Dispatch: a quadratic window takes its law from a one-start
    _window_laws sweep, rolled out from x0; other models descend."""
    if not isinstance(p.costs, QuadraticCost):
        return solve_general(p, cfg, u0=u0)
    w = np.zeros((p.t0 + p.N, p.sys.n))  # _window_laws reads w by stage index
    w[p.t0:] = p.w_preview.w
    K, f = _window_laws(p.sys, p.costs, w, np.array([p.t0]), p.N)
    u, value = _law_rollout(p.sys, p.costs, p.x0, p.t0, p.w_preview.w, K[:, 0], f[:, 0])
    return HorizonSolution(u_opt=u, value=value, converged=True, iterations=0)
