"""Stage-cost models, the state-weight function sigma, and cost-envelope constants.

Time indices are 0-based positions into a model's cost sequence. All eval/sigma
implementations broadcast over leading batch dimensions: x has shape (..., n),
u has shape (..., m), and the result drops the trailing axis. The leading shapes
of x and u broadcast against each other, so eval(t, x[:, None, :], u[None, :, :])
costs every (state, input) pair; the brute-force grid oracle relies on this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linsys import LinearSystem, StackedDynamics, Trajectory, stack_dynamics

__all__ = [
    "CostModel",
    "QuadraticCost",
    "NonConvexCost",
    "SetDistanceCost",
    "EnvelopeParams",
    "AlphaEstimate",
    "UpperEstimate",
    "total_cost",
    "sigma_eval",
    "estimate_alpha_lower",
    "estimate_gamma_alpha_upper",
    "estimate_params",
    "quadratic_value_form",
]

SIGMA_FLOOR = 1e-9          # below this, sigma is treated as zero in sampled ratios
CERT_GRID_RATIO = 1.05      # spacing of the certificate snapping grid
SAMPLE_X_BOX = 2.0          # sampled envelope: states uniform on [-2, 2]^n
SAMPLE_BUDGET = 100         # window solves behind one sampled envelope estimate
# disturbance components are uniform on [W_LOW, W_HIGH], both in generated
# scenarios and in the sampled envelope's window draws
W_LOW = 0.0
W_HIGH = 1.0
# relative slack of the exact envelope's Cholesky screen. Cholesky's backward
# error on a k x k block is about (k + 1) * eps * ||c*I - P_ww|| (Higham,
# Accuracy and Stability of Numerical Algorithms, ch. 10), under 1e-13 * c for
# the blocks here, so a screened window's eigvalsh value stays below the maximum
SCREEN_MARGIN = 1e-10


class CostModel:
    """Interface for time-varying stage costs c_t(x, u) with a state weight sigma.

    Subclasses set `convex` when every stage cost is convex in (x, u), and
    `length` to the number of stages the model covers (None = any horizon).
    """

    convex = False
    length: int | None = None

    def eval(self, t, x, u):
        raise NotImplementedError

    def sigma(self, x):
        raise NotImplementedError

    def gradient(self, t, x, u):
        """(dc/dx, dc/du) at a single point; optional for custom models."""
        raise NotImplementedError

    @property
    def has_gradient(self) -> bool:
        return type(self).gradient is not CostModel.gradient

    def check_horizon(self, t0: int, N: int) -> None:
        if t0 < 0:
            raise ValueError(f"window start {t0} is negative")
        if self.length is not None and t0 + N > self.length:
            raise ValueError(
                f"window [{t0}, {t0 + N}) exceeds the cost sequence length {self.length}"
            )


class QuadraticCost(CostModel):
    """c_t(x, u) = x'Q_t x + u'R_t u with positive-definite Q_t, R_t.

    Only the symmetric parts of Q_t and R_t enter the cost, so those are what
    the model stores; the gradient and the exact window solve read them as is.
    """

    convex = True

    def __init__(self, Q_seq, R_seq):
        Q = np.asarray(Q_seq, dtype=float)
        R = np.asarray(R_seq, dtype=float)
        if Q.ndim != 3 or Q.shape[1] != Q.shape[2]:
            raise ValueError(f"Q_seq must stack square matrices, got shape {Q.shape}")
        if R.ndim != 3 or R.shape[1] != R.shape[2]:
            raise ValueError(f"R_seq must stack square matrices, got shape {R.shape}")
        if Q.shape[0] != R.shape[0]:
            raise ValueError(
                f"Q_seq has {Q.shape[0]} stages but R_seq has {R.shape[0]}"
            )
        Q = 0.5 * (Q + Q.transpose(0, 2, 1))
        R = 0.5 * (R + R.transpose(0, 2, 1))
        for name, seq in (("Q", Q), ("R", R)):
            lam = np.linalg.eigvalsh(seq)[:, 0]
            bad = np.flatnonzero(lam <= 0)
            if bad.size:
                t = int(bad[0])
                raise ValueError(
                    f"{name}_seq[{t}] is not positive definite (lambda_min={lam[t]:.3g})"
                )
        Q.setflags(write=False)
        R.setflags(write=False)
        self.Q_seq = Q
        self.R_seq = R
        self.length = Q.shape[0]

    @property
    def n(self):
        return self.Q_seq.shape[1]

    @property
    def m(self):
        return self.R_seq.shape[1]

    def eval(self, t, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        qx = np.einsum("...i,ij,...j->...", x, self.Q_seq[t], x)
        ru = np.einsum("...i,ij,...j->...", u, self.R_seq[t], u)
        return qx + ru

    def sigma(self, x):
        x = np.asarray(x, dtype=float)
        return np.sum(x * x, axis=-1)

    def gradient(self, t, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return 2.0 * (self.Q_seq[t] @ x), 2.0 * (self.R_seq[t] @ u)


class NonConvexCost(CostModel):
    """c(x, u) = |x_1 - b|^3 + (x_2 - b)^2 + u'u; needs at least two states."""

    convex = False
    length = None

    def __init__(self, b: float = 0.2):
        self.b = float(b)

    def eval(self, t, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if x.shape[-1] < 2:
            raise ValueError("state dimension must be at least 2 for this cost")
        d0 = x[..., 0] - self.b
        d1 = x[..., 1] - self.b
        return np.abs(d0) ** 3 + d1 * d1 + np.sum(u * u, axis=-1)

    def sigma(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] < 2:
            raise ValueError("state dimension must be at least 2 for this cost")
        d0 = x[..., 0] - self.b
        d1 = x[..., 1] - self.b
        return np.abs(d0) ** 3 + d1 * d1

    def gradient(self, t, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        gx = np.zeros_like(x)
        d0 = x[0] - self.b
        gx[0] = 3.0 * d0 * abs(d0)
        gx[1] = 2.0 * (x[1] - self.b)
        return gx, 2.0 * u


class SetDistanceCost(CostModel):
    """c_t(x, u) = a_t * dist(x, ball)^2 + u'u, squared Euclidean ball distance."""

    convex = True

    def __init__(self, a_seq, center, radius):
        a = np.asarray(a_seq, dtype=float)
        if a.ndim != 1 or a.size < 1:
            raise ValueError("a_seq must be a nonempty 1-d sequence")
        if np.any(a < 0) or np.any(a > 1):
            raise ValueError("a_seq entries must lie in [0, 1]")
        center = np.asarray(center, dtype=float).ravel()
        radius = float(radius)
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        a.setflags(write=False)
        center.setflags(write=False)
        self.a_seq = a
        self.center = center
        self.radius = radius
        self.length = a.size

    def sigma(self, x):
        x = np.asarray(x, dtype=float)
        d = np.linalg.norm(x - self.center, axis=-1)
        h = np.maximum(d - self.radius, 0.0)
        return h * h

    def eval(self, t, x, u):
        u = np.asarray(u, dtype=float)
        return self.a_seq[t] * self.sigma(x) + np.sum(u * u, axis=-1)

    def gradient(self, t, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        diff = x - self.center
        d = float(np.linalg.norm(diff))
        gx = np.zeros_like(x)
        if d > self.radius:
            gx = self.a_seq[t] * 2.0 * (d - self.radius) * diff / d
        return gx, 2.0 * u


@dataclass(frozen=True)
class EnvelopeParams:
    """Cost-envelope constants: alpha_lo <= stage costs / sigma, and the
    (alpha_hi, gamma_bar_sq) pair upper-bounding window values V_t.

    beta = alpha_lo / alpha_hi; zeta >= 1/beta enters the preview-length bound.
    `certified` records whether the constants came from an exact computation
    or from sampling.
    """

    alpha_lo: float
    alpha_hi: float
    gamma_bar_sq: float
    beta: float
    zeta: float
    certified: bool = True

    def __post_init__(self):
        if not (self.alpha_lo > 0):
            raise ValueError(f"alpha_lo must be positive, got {self.alpha_lo}")
        if not (self.alpha_hi > 0):
            raise ValueError(f"alpha_hi must be positive, got {self.alpha_hi}")
        if not (self.gamma_bar_sq > 0):
            raise ValueError(f"gamma_bar_sq must be positive, got {self.gamma_bar_sq}")
        ratio = self.alpha_lo / self.alpha_hi
        if abs(self.beta - ratio) > 1e-12 * max(1.0, abs(ratio)):
            raise ValueError(
                f"beta={self.beta!r} does not equal alpha_lo/alpha_hi={ratio!r}"
            )
        if self.beta > 1.0 + 1e-12:
            raise ValueError(f"beta must not exceed 1, got {self.beta}")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not (self.zeta > 1.0):
            raise ValueError(f"zeta must exceed 1, got {self.zeta}")
        if self.zeta * self.beta < 1.0 - 1e-12:
            raise ValueError(
                f"zeta={self.zeta} is below 1/beta={1.0 / self.beta}"
            )

    @classmethod
    def from_alphas(cls, alpha_lo, alpha_hi, gamma_bar_sq, zeta=None, certified=True):
        alpha_hi = max(float(alpha_hi), float(alpha_lo))
        beta = min(float(alpha_lo) / alpha_hi, 1.0)
        if zeta is None:
            zeta = max(1.0 / beta, 1.0 + 1e-9)
        return cls(
            alpha_lo=float(alpha_lo),
            alpha_hi=alpha_hi,
            gamma_bar_sq=float(gamma_bar_sq),
            beta=beta,
            zeta=float(zeta),
            certified=bool(certified),
        )


@dataclass(frozen=True)
class AlphaEstimate:
    value: float
    certified: bool


@dataclass(frozen=True)
class UpperEstimate:
    alpha_hi: float
    gamma_bar_sq: float
    certified: bool


def total_cost(traj: Trajectory, costs: CostModel) -> float:
    """Sum of stage costs along a trajectory; fills traj.stage_costs."""
    T = traj.T
    if costs.length is not None and costs.length != T:
        raise ValueError(
            f"trajectory has {T} steps but the cost sequence covers {costs.length}"
        )
    stage = np.empty(T)
    for t in range(T):
        c = float(costs.eval(t, traj.states[t], traj.inputs[t]))
        if c < 0:
            raise ValueError(
                f"stage cost at step {t} is negative ({c:.3e}); cost model is broken"
            )
        stage[t] = c
    traj.stage_costs = stage
    return float(stage.sum())


def sigma_eval(costs: CostModel, x) -> float:
    """The model's state weight sigma(x)."""
    return float(costs.sigma(np.asarray(x, dtype=float)))


def _default_alpha_grid():
    # sampling grid for models without an exact alpha path; the bundled
    # non-quadratic model touches only the first two coordinates
    axis = np.linspace(-2.0, 2.0, 41)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([xx.ravel(), yy.ravel()], axis=1)


def estimate_alpha_lower(costs: CostModel) -> AlphaEstimate:
    """Largest alpha_lo with eval(t, x, 0) >= alpha_lo * sigma(x).

    Exact for the quadratic model (smallest Q eigenvalue across stages) and the
    set-distance model (smallest a_t). Other models get an empirical infimum of
    eval/sigma over a sample grid, flagged as not certified.
    """
    if isinstance(costs, QuadraticCost):
        lam = float(np.linalg.eigvalsh(costs.Q_seq)[:, 0].min())
        return AlphaEstimate(value=lam, certified=True)
    if isinstance(costs, SetDistanceCost):
        return AlphaEstimate(value=float(costs.a_seq.min()), certified=True)

    x_samples = _default_alpha_grid()
    t_samples = range(costs.length) if costs.length else [0]
    sig = costs.sigma(x_samples)
    mask = sig > SIGMA_FLOOR
    if not np.any(mask):
        raise ValueError("sigma is zero on all samples; beta undefined")
    u0 = np.zeros(1)
    best = np.inf
    for t in t_samples:
        ratios = costs.eval(t, x_samples[mask], u0) / sig[mask]
        best = min(best, float(ratios.min()))
    return AlphaEstimate(value=best, certified=False)


def _condensed_qp(sd: StackedDynamics, costs: QuadraticCost, t0: int):
    """(G'Qbar, G'Qbar G + Rbar) of the window from stage t0, where Qbar and
    Rbar are the block-diagonal stage weights over the steps of sd.

    Assembled block by block; neither weight matrix is formed densely. The
    window solve uses both; the window value form only the normal matrix.
    """
    n, m, N = sd.n, sd.m, sd.N
    G_rows = sd.G.reshape(N, n, m * N).transpose(0, 2, 1)   # block k: G_k'
    GtQ = (G_rows @ costs.Q_seq[t0:t0 + N]).transpose(1, 0, 2).reshape(m * N, n * N)
    normal = GtQ @ sd.G
    k = np.arange(N)
    normal.reshape(N, m, N, m)[k, :, k, :] += costs.R_seq[t0:t0 + N]  # + Rbar
    return GtQ, normal


def quadratic_value_form(sys: LinearSystem, costs: QuadraticCost, t0: int, horizon: int):
    """Symmetric P with V_{t0}(x, w) = [x; w]' P [x; w] for the quadratic model.

    w stacks the `horizon` previewed disturbance vectors of the window. P is
    exactly symmetric; a normal matrix without a Cholesky factor raises
    ValueError naming the window start.
    """
    costs.check_horizon(t0, horizon)
    return _value_form(sys, stack_dynamics(sys, horizon), costs, t0)


def _value_form(sys: LinearSystem, sd: StackedDynamics, costs: QuadraticCost, t0: int):
    """P = K - Y'Y, the window value form, with K = S'Qbar S for S = [F, H]
    and Y = L_c^-1 G'Qbar S, where normal = L_c L_c'.

    Input block c of S (x, then w_0..w_{N-1}) first reaches the window state
    at offset c, so K's block (a, b) with a <= b is (A^(b-a))' Lam_b, from the
    backward Lyapunov sums Lam_s = Q_s + A' Lam_{s+1} A with Lam_N = 0.
    G = H (I kron B), so G'Qbar S is B' times each block row of K's w-rows.
    Each Lam_s is symmetrized, each off-diagonal block of K is written with
    its transpose, and Y'Y is one product of Y' with its own transpose,
    which numpy evaluates symmetrically, so P is exactly symmetric.
    """
    A, B = sys.A, sys.B
    n, N = sd.n, sd.N
    Q = costs.Q_seq[t0:t0 + N]
    # [A^(N-1), ..., A^1, A^0] side by side: block row b of K, up to its
    # diagonal, is Lam_b times the last b + 1 of them
    powers = sd.F.reshape(N, n, n)[::-1].transpose(1, 0, 2).reshape(n, n * N)
    C = n * (N + 1)
    P = np.zeros((C, C))
    lam = np.zeros((n, n))
    for b in range(N - 1, -1, -1):
        lam = Q[b] + A.T @ lam @ A
        lam += lam.T
        lam *= 0.5
        row = lam @ powers[:, (N - 1 - b) * n:]
        P[b * n:(b + 1) * n, :(b + 1) * n] = row
        P[:(b + 1) * n, b * n:(b + 1) * n] = row.T
    _, normal = _condensed_qp(sd, costs, t0)
    try:
        L_c = np.linalg.cholesky(normal)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"normal matrix of the window from start {t0} is singular: {exc}") from exc
    # (G'Qbar S)' = K's w-columns times B per block, as K is symmetric
    GtQS_T = (P.reshape(-1, n) @ B).reshape(C, N + 1, -1)[:, 1:].reshape(C, -1)
    Yt = GtQS_T @ np.linalg.inv(L_c).T
    P -= Yt @ Yt.T
    return P


def _below(W, c):
    """True when c*I - W has a Cholesky factor, which certifies lambda_max(W) < c.

    Overwrites W with c*I - W. The test is a function of its own so that no
    view of the overwritten value form outlives it: a live view keeps that
    value form in memory while the next one is built, which raised the peak
    RSS of a quadratic_scale benchmark pass by about 1.5 MB.
    """
    W *= -1.0
    W[np.diag_indices_from(W)] += c
    try:
        np.linalg.cholesky(W)
    except np.linalg.LinAlgError:
        return False
    return True


def _exact_quadratic_upper(sys, costs, N):
    L, n = costs.length, sys.n
    alpha_hi = 0.0
    gamma_sq = 0.0
    for t0 in range(L):
        h = min(N, L - t0)
        sd = stack_dynamics(sys, h)
        P = _value_form(sys, sd, costs, t0)
        # Cholesky returns NaNs instead of raising on NaN input, which would
        # pass the screen below
        if not np.isfinite(P).all():
            raise ValueError(f"value form of the window from start {t0} is not finite")
        cross = float(np.linalg.norm(P[:n, n:], 2))
        lam_x = float(np.linalg.eigvalsh(P[:n, :n]).max(initial=0.0))
        alpha_hi = max(alpha_hi, lam_x + cross)
        # H's last block column is zero, and so are the last block row and
        # column of the w-block; they add only a zero eigenvalue
        c = (gamma_sq - cross) * (1.0 - SCREEN_MARGIN)
        if c > 0.0:
            if _below(P[n:n * h, n:n * h], c):
                continue  # this window cannot raise gamma_sq
            P = _value_form(sys, sd, costs, t0)  # the same bits, for eigvalsh
        lam_w = float(np.linalg.eigvalsh(P[n:n * h, n:n * h]).max(initial=0.0))
        gamma_sq = max(gamma_sq, lam_w + cross)
    return alpha_hi, gamma_sq


def _snap_up(value, lo=1e-12):
    """Round up onto a geometric certificate grid."""
    if value <= lo:
        return 0.0
    k = int(np.ceil(np.log(value / lo) / np.log(CERT_GRID_RATIO)))
    return lo * CERT_GRID_RATIO ** k


def estimate_gamma_alpha_upper(
    sys: LinearSystem,
    costs: CostModel,
    N: int,
    sample_budget: int = SAMPLE_BUDGET,
    seed: int = 0,
    solver_cfg=None,
) -> UpperEstimate:
    """Constants (alpha_hi, gamma_bar_sq) with V_t(x, w) <= alpha_hi*sigma(x) + gamma_bar_sq*sum||w_k||^2.

    Quadratic costs take an exact path: V_t is a quadratic form in (x, w),
    evaluated over every window start, and the constants come from block
    eigenvalues with the cross term dominated. The w-block eigenvalues are
    computed only where the running maximum can move: a window whose
    c*I - P_ww has a Cholesky factor, with c just below the maximum less the
    window's cross term, cannot raise gamma_bar_sq and is skipped, so both
    constants equal those of eigenvalues on every window. A non-finite value
    form, or a normal matrix without a Cholesky factor, raises ValueError
    naming its window start. Other models are sampled:
    alpha_hi from zero-disturbance samples, then the smallest feasible
    gamma_bar_sq over mixed samples, both snapped up onto a geometric grid.
    """
    if N < 1:
        raise ValueError(f"horizon must be at least 1, got {N}")
    if isinstance(costs, QuadraticCost):
        alpha_hi, gamma_sq = _exact_quadratic_upper(sys, costs, N)
        if alpha_hi <= 1e-12 and gamma_sq <= 1e-12:
            raise ValueError("value function is identically zero; beta undefined")
        return UpperEstimate(alpha_hi=alpha_hi, gamma_bar_sq=gamma_sq, certified=True)

    if sample_budget < 1:
        raise ValueError(f"sample_budget must be at least 1, got {sample_budget}")
    from .solver import HorizonProblem, solve_general
    from .linsys import DisturbanceSequence

    rng = np.random.default_rng(seed)
    max_t0 = 0 if costs.length is None else max(costs.length - N, 0)
    w_cap = max(abs(W_LOW), abs(W_HIGH)) * np.sqrt(sys.n) + 1e-9

    def window_value(t0, x, w):
        p = HorizonProblem(
            sys=sys, x0=x, costs=costs, t0=t0,
            w_preview=DisturbanceSequence(w, w_cap), N=N,
        )
        # under-converged window solves only overestimate values, which keeps
        # the sampled envelope on the safe side, so a caller may pass a light
        # solver_cfg
        return solve_general(p, solver_cfg).value

    n_zero = max(sample_budget // 2, 1)
    alpha_emp = 0.0
    saw_sigma = False
    zero_w = np.zeros((N, sys.n))
    for _ in range(n_zero):
        t0 = int(rng.integers(0, max_t0 + 1))
        x = rng.uniform(-SAMPLE_X_BOX, SAMPLE_X_BOX, sys.n)
        sig = float(costs.sigma(x))
        if sig <= SIGMA_FLOOR:
            continue
        saw_sigma = True
        alpha_emp = max(alpha_emp, window_value(t0, x, zero_w) / sig)
    if not saw_sigma:
        raise ValueError("sigma is zero on all samples; beta undefined")
    alpha_hi = _snap_up(alpha_emp)
    if alpha_hi <= 1e-12:
        raise ValueError("value function is identically zero; beta undefined")

    gamma_emp = 0.0
    for _ in range(sample_budget - n_zero):
        t0 = int(rng.integers(0, max_t0 + 1))
        x = rng.uniform(-SAMPLE_X_BOX, SAMPLE_X_BOX, sys.n)
        w = rng.uniform(W_LOW, W_HIGH, (N, sys.n))
        energy = float(np.sum(w * w))
        if energy <= 0:
            continue
        v = window_value(t0, x, w)
        gamma_emp = max(gamma_emp, (v - alpha_hi * float(costs.sigma(x))) / energy)
    gamma_sq = _snap_up(gamma_emp)
    return UpperEstimate(alpha_hi=alpha_hi, gamma_bar_sq=gamma_sq, certified=False)


def estimate_params(
    sys: LinearSystem,
    costs: CostModel,
    N: int,
    sample_budget: int = SAMPLE_BUDGET,
    seed: int = 0,
    solver_cfg=None,
) -> EnvelopeParams:
    """Bundle the alpha/gamma estimates into envelope constants."""
    alpha = estimate_alpha_lower(costs)
    upper = estimate_gamma_alpha_upper(sys, costs, N, sample_budget=sample_budget,
                                       seed=seed, solver_cfg=solver_cfg)
    gamma_sq = max(upper.gamma_bar_sq, 1e-12)
    return EnvelopeParams.from_alphas(
        alpha_lo=alpha.value,
        alpha_hi=upper.alpha_hi,
        gamma_bar_sq=gamma_sq,
        certified=alpha.certified and upper.certified,
    )
