"""Stage-cost models, the state-weight function sigma, and cost-envelope constants.

Time indices are 0-based positions into a model's cost sequence; t is an int
or an integer array. All eval/gradient/sigma implementations broadcast over
leading batch dimensions: x has shape (..., n), u has shape (..., m), t
broadcasts against their leading axes, eval and sigma drop the trailing axis,
and gradient returns (dc/dx, dc/du) shaped like x and u. So
eval(np.arange(t0, t0 + N), xs, us) costs a window in one call, and
eval(t, x[:, None, :], u[None, :, :]) costs every (state, input) pair, as the
brute-force grid oracle does. The shipped models give a stage the same bits
batched as alone (SetDistanceCost to a few ulps).

The shipped models are SeparableCost: a stage cost is a state term plus an
input term, and eval adds the two, so a caller that needs the terms apart
gets the same bits as eval. The grid oracle's last stage uses this to cost
its rows plus its inputs instead of every (row, input) pair, with the same
minimum bit for bit, because round-to-nearest addition is monotone; a model
that defines only eval gets the full scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linsys import LinearSystem, Trajectory

__all__ = [
    "CostModel",
    "SeparableCost",
    "QuadraticCost",
    "NonConvexCost",
    "SetDistanceCost",
    "EnvelopeParams",
    "total_cost",
    "estimate_alpha_lower",
    "estimate_gamma_alpha_upper",
    "estimate_params",
    "quadratic_value_form",
]

# relative slack of the exact envelope's game-sweep screen: _game_certifies
# steps and tests a window at level c at (1 - SCREEN_MARGIN)c, so a window
# leaves gamma_bar_sq's search only if its lambda_max(P_ww) lies this fraction
# below the running maximum less its cross term, and the rounding of the
# sweep and of the dense w-block eigenvalues, two float64 evaluations, cannot
# drop a window that holds the maximum
SCREEN_MARGIN = 1e-6


class CostModel:
    """Interface for time-varying stage costs c_t(x, u) with a state weight sigma.

    gradient is required: the window descent reads it, with no
    finite-difference fallback. Subclasses set `convex` when every stage
    cost is convex in (x, u), and `length` to the number of stages the model
    covers (None = any horizon).
    """

    convex = False
    length: int | None = None

    def eval(self, t, x, u):
        raise NotImplementedError

    def sigma(self, x):
        raise NotImplementedError

    def gradient(self, t, x, u):
        """(dc/dx, dc/du), shaped like x and u."""
        raise NotImplementedError(
            f"{type(self).__name__} defines no gradient(t, x, u); "
            f"the window descent needs one"
        )

    def check_horizon(self, t0: int, N: int) -> None:
        if t0 < 0:
            raise ValueError(f"window start {t0} is negative")
        if N < 0:
            raise ValueError(f"horizon {N} of the window from start {t0} is negative")
        if self.length is not None and t0 + N > self.length:
            raise ValueError(
                f"window [{t0}, {t0 + N}) exceeds the cost sequence length {self.length}"
            )


class SeparableCost(CostModel):
    """c_t(x, u) = state_cost(t, x) + input_cost(t, u).

    eval is that sum and nothing else, so the terms taken apart add up to
    eval's bits. Both terms broadcast like eval and return arrays:
    state_cost(t, x) is shaped like x without its trailing axis, and
    input_cost(t, u) like u without its trailing axis, for an int t.
    """

    def state_cost(self, t, x):
        raise NotImplementedError

    def input_cost(self, t, u):
        raise NotImplementedError

    def eval(self, t, x, u):
        return self.state_cost(t, x) + self.input_cost(t, u)


class QuadraticCost(SeparableCost):
    """c_t(x, u) = x'Q_t x + u'R_t u with finite, positive-definite Q_t, R_t.

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
        if Q.shape[0] == 0:
            raise ValueError("Q_seq and R_seq must hold at least one stage")
        # halves first: the sum of two finite entries may overflow
        Q = 0.5 * Q + 0.5 * Q.transpose(0, 2, 1)
        R = 0.5 * R + 0.5 * R.transpose(0, 2, 1)
        for name, seq in (("Q", Q), ("R", R)):
            bad = np.flatnonzero(~np.isfinite(seq).all(axis=(1, 2)))
            if bad.size:
                raise ValueError(f"{name}_seq[{bad[0]}] contains non-finite entries")
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

    def state_cost(self, t, x):
        return _form(np.asarray(x, dtype=float), self.Q_seq[t])

    def input_cost(self, t, u):
        return _form(np.asarray(u, dtype=float), self.R_seq[t])

    def sigma(self, x):
        x = np.asarray(x, dtype=float)
        return np.sum(x * x, axis=-1)

    def gradient(self, t, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        # row sums of a contiguous product: the same bits batched as alone
        gx = np.sum(self.Q_seq[t] * x[..., None, :], axis=-1)
        gu = np.sum(self.R_seq[t] * u[..., None, :], axis=-1)
        return 2.0 * gx, 2.0 * gu


def _form(v, M):
    """v'M v over the trailing axes, broadcast over the leading ones.

    numpy's einsum sums such a form in one running sum over (i, j), alone as
    in a batch, except that a lone 2-vector's form is summed as its two row
    sums; a 2-vector's form is summed as its row sums in every shape, so a
    stage costs the same bits batched as alone.
    """
    if v.shape[-1] == 2:
        rows = np.einsum("...i,...ij,...j->...i", v, M, v)
        return rows[..., 0] + rows[..., 1]
    return np.einsum("...i,...ij,...j->...", v, M, v)


def _energy(u):
    """u'u over the trailing axis."""
    u = np.asarray(u, dtype=float)
    return np.sum(u * u, axis=-1)


class NonConvexCost(SeparableCost):
    """c(x, u) = |x_1 - b|^3 + (x_2 - b)^2 + u'u; needs at least two states.

    A convex, non-quadratic cubic well: |t|^3 has second derivative 6|t|, and
    u'u makes every window problem strictly convex. The class name and the
    "nonconvex" label stay because stored reports replay through the label.
    """

    convex = True
    length = None

    def __init__(self, b: float = 0.2):
        self.b = float(b)
        if not np.isfinite(self.b):
            raise ValueError(f"b must be finite, got {self.b}")

    def state_cost(self, t, x):
        return self.sigma(x)

    def input_cost(self, t, u):
        return _energy(u)

    def sigma(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] < 2:
            raise ValueError("state dimension must be at least 2 for this cost")
        d0 = x[..., 0] - self.b
        d1 = x[..., 1] - self.b
        # float_power is libm's pow on arrays as on scalars; `** 3` on an
        # array may take a SIMD pow whose last bit differs from a scalar's
        return np.float_power(np.abs(d0), 3) + d1 * d1

    def gradient(self, t, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        gx = np.zeros_like(x)
        d0 = x[..., 0] - self.b
        gx[..., 0] = 3.0 * d0 * np.abs(d0)
        gx[..., 1] = 2.0 * (x[..., 1] - self.b)
        return gx, 2.0 * u


class SetDistanceCost(SeparableCost):
    """c_t(x, u) = a_t * dist(x, ball)^2 + u'u, squared Euclidean ball distance."""

    convex = True

    def __init__(self, a_seq, center, radius):
        a = np.asarray(a_seq, dtype=float)
        if a.ndim != 1 or a.size < 1:
            raise ValueError("a_seq must be a nonempty 1-d sequence")
        if not np.all((a >= 0) & (a <= 1)):
            raise ValueError("a_seq entries must lie in [0, 1]")
        center = np.asarray(center, dtype=float).ravel()
        if not np.isfinite(center).all():
            raise ValueError("center contains non-finite entries")
        radius = float(radius)
        if not 0 < radius < np.inf:
            raise ValueError(f"radius must be positive and finite, got {radius}")
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

    def state_cost(self, t, x):
        return self.a_seq[t] * self.sigma(x)

    def input_cost(self, t, u):
        return _energy(u)

    def gradient(self, t, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        diff = x - self.center
        d = np.linalg.norm(diff, axis=-1, keepdims=True)
        # zero inside the ball; outside, a_t * 2 (d - r) diff / d
        scale = self.a_seq[t][..., None] * 2.0 * np.maximum(d - self.radius, 0.0)
        return scale * diff / np.maximum(d, self.radius), 2.0 * u


@dataclass(frozen=True)
class EnvelopeParams:
    """Cost-envelope constants: alpha_lo <= stage costs / sigma, and the
    (alpha_hi, gamma_bar_sq) pair upper-bounding window values V_t.

    beta = alpha_lo / alpha_hi, to 1e-12 relative, and 0 < beta <= 1
    exactly: the range bounds.omega_op and bounds.a_factor take, so
    bounds.certify returns on every accepted instance. from_alphas clamps
    beta to 1. zeta >= 1/beta enters no bound; the field
    and its checks stay because acceptance check A2 constructs EnvelopeParams
    with it.
    Only the quadratic model has such constants, and estimate_params computes
    them exactly; `certified` is False only on constants a caller made up,
    such as a deliberately under-reported gamma_bar_sq.
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
        if self.beta > 1.0:
            raise ValueError(f"beta must not exceed 1, got {self.beta}")
        if not (self.beta > 0):
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not (self.zeta > 1.0):
            raise ValueError(f"zeta must exceed 1, got {self.zeta}")
        if self.zeta * self.beta < 1.0 - 1e-12:
            raise ValueError(
                f"zeta={self.zeta} is below 1/beta={1.0 / self.beta}"
            )

    @classmethod
    def from_alphas(cls, alpha_lo, alpha_hi, gamma_bar_sq):
        alpha_hi = max(float(alpha_hi), float(alpha_lo))
        beta = min(float(alpha_lo) / alpha_hi, 1.0)
        return cls(
            alpha_lo=float(alpha_lo),
            alpha_hi=alpha_hi,
            gamma_bar_sq=float(gamma_bar_sq),
            beta=beta,
            # beta = 0, as where alpha_lo / alpha_hi underflows, fails a named check
            zeta=max(1.0 / beta if beta else np.inf, 1.0 + 1e-9),
        )


def total_cost(traj: Trajectory, costs: CostModel) -> float:
    """Sum of stage costs along a trajectory."""
    T = traj.T
    if costs.length is not None and costs.length != T:
        raise ValueError(
            f"trajectory has {T} steps but the cost sequence covers {costs.length}"
        )
    return _stage_costs(costs, np.arange(T), traj.states[:T], traj.inputs)


def _stage_costs(costs: CostModel, t, x, u) -> float:
    """The total of the stages' costs at the steps t, from one quiet eval
    call (a model may return one scalar for every stage) and one np.sum; a
    NaN, infinite or negative stage cost raises ValueError naming its step,
    and a total past the float range raises ValueError naming the stages."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        stage = np.broadcast_to(np.asarray(costs.eval(t, x, u), dtype=float), t.shape)
        total = float(np.sum(stage))
    bad = np.flatnonzero(~((stage >= 0) & (stage < np.inf)))
    if bad.size:
        t, c = t[bad[0]], stage[bad[0]]
        raise ValueError(f"stage cost at step {t} is {'negative' if c < 0 else 'not finite'} "
                         f"({c:.3e}); the cost model or the trajectory is broken")
    if total == np.inf:
        raise ValueError(f"the {t.size} stage costs from step {t[0]} sum past the float "
                         "range; the cost model or the trajectory is broken")
    return total


def estimate_alpha_lower(costs: CostModel) -> float:
    """Largest alpha_lo with eval(t, x, 0) >= alpha_lo * sigma(x) for the
    quadratic model: the smallest Q eigenvalue across stages. Any other
    model raises ValueError naming its class.
    """
    if not isinstance(costs, QuadraticCost):
        raise ValueError(f"no exact alpha_lo for {type(costs).__name__}")
    return float(np.linalg.eigvalsh(costs.Q_seq)[:, 0].min())


def quadratic_value_form(sys: LinearSystem, costs: QuadraticCost, t0: int, horizon: int):
    """Symmetric P with V_{t0}(x, w) = [x; w]' P [x; w] for the quadratic model.

    w stacks the `horizon` previewed disturbance vectors of the window. P
    comes from one backward sweep of _riccati_step over the window's h
    stages from Lam_h = 0, a _walk over the one start t0. The cost-to-go
    from offset k has the linear term x_k' Gam_k w_{k:} with
    Gam_k = [Lam_{k+1}, S_{k+1}] and S_k = A_cl,k' Gam_k, so block row j
    of P (x, then w_0..w_{h-1}), from block column j on, is [Lam_j, S_j].
    Minimizing stage k takes V_k'V_k off the w-block, with
    V_k = L_k^-1 B' Gam_k for U_k = L_k L_k': P_ww is the mirrored block
    upper triangle less V'V, for V stacking the V_k. Each block is written
    with its transpose and V'V is one product of V' with V, so P is exactly
    symmetric. A U_k without a Cholesky factor raises ValueError naming t0.
    The sweep runs with floating-point warnings off; the caller checks that
    P is finite.
    """
    costs.check_horizon(t0, horizon)
    A, B = sys.A, sys.B
    n, m, h = sys.n, sys.m, horizon
    P = np.zeros((n * (h + 1),) * 2)
    BtG = np.zeros((h, m, n * h))  # B' Gam_k, from w-column block k on
    U = np.empty((h, m, m))
    starts = np.array([t0])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k, _, t, lam in _walk(costs, starts, h, n):
            i, j = n * k, n * (k + 1)
            gam = P[j:j + n, j:]
            BtG[k, :, i:] = B.T @ gam
            U[k:k + 1], _, Acl, lam[:] = _riccati_step(
                A, B, costs.Q_seq[t], costs.R_seq[t], lam, starts)
            S = Acl[0].T @ gam
            P[i:j, i:j] = lam[0]
            P[i:j, j:] = S
            P[j:, i:j] = S.T
        V = (np.linalg.inv(np.linalg.cholesky(U)) @ BtG).reshape(m * h, n * h)
        P[n:, n:] -= V.T @ V
    return P


def _factors(S, factor=np.linalg.cholesky):
    """Mask of the matrices of the stack S that factor (Cholesky) takes. A
    batched factorization raises on the first failure without naming it, so
    a failing stack is split in halves until the failures are single ones."""
    try:
        factor(S)
    except np.linalg.LinAlgError:
        if len(S) == 1:
            return np.zeros(1, dtype=bool)
        half = len(S) // 2
        return np.concatenate([_factors(S[:half], factor), _factors(S[half:], factor)])
    return np.ones(len(S), dtype=bool)


def _walk(costs, starts, N, n):
    """The backward walk of a Riccati sweep over the windows from starts
    (0-based, ascending), which every sweep here steps through.

    A window from t0 has horizon min(N, L - t0), so at offset k it is live
    exactly when t0 < L - k, and the live windows are a prefix of starts.
    For k = min(N, L) - 1, ..., 0 the walk yields (k, a, t, Lam): the
    number a of live windows, their stage indices t = t0 + k, and the view
    of their rows of one (len(starts), n, n) cost-to-go stack. Lam holds
    Lam_{k+1}, zero at a window's first stage, and the caller overwrites it
    with Lam_k. At k = 0 every window is live, so the last Lam is the whole
    Lam_0 stack. The walk sets no np.errstate: one suspended in a generator
    would leave warnings off in the caller's frames when a stage raises
    mid-walk, so each sweep sets its own around its loop.
    """
    L = costs.length
    lam = np.zeros((len(starts), n, n))
    for k in range(min(N, L) - 1, -1, -1):
        a = int(np.searchsorted(starts, L - k))
        yield k, a, starts[:a] + k, lam[:a]


def _riccati_step(A, B, Q, R, Lam, starts):
    """One backward LQR stage on a stack of windows: (U, K, A_cl, Lam_k).

    The LQR sweep, the window value form and the window laws all step
    with it. With Lam = Lam_{k+1} and the stage weights Q, R of each window,
    U = R + B'Lam B, K = U^-1 B'Lam A, A_cl = A - B K and
    Lam_k = Q + K'R K + A_cl'Lam A_cl (the Joseph form), a sum of PSD terms
    with no cancellation, symmetrized. The normal matrix of a window is
    positive definite exactly when all its U are, so a U without a Cholesky
    factor, or whose overflowed entries give its inverse a zero pivot,
    raises ValueError naming starts[i], the start of its window.
    K is the inverse of U times B'Lam A: a stacked solve with n right-hand
    sides takes over twice as long, and for m = 1 and n >= 2 gives the same
    bits, since both multiply by the pivot's reciprocal.
    """
    LB = Lam @ B
    U = R + B.T @ LB
    try:
        np.linalg.cholesky(U)
        K = np.linalg.inv(U) @ (LB.transpose(0, 2, 1) @ A)
    except np.linalg.LinAlgError as exc:
        t0 = starts[int(np.argmin(_factors(U) & _factors(U, np.linalg.inv)))]
        raise ValueError(
            f"normal matrix of the window from start {t0} is singular: {exc}") from exc
    Acl = A - B @ K
    new = Q + K.transpose(0, 2, 1) @ R @ K + Acl.transpose(0, 2, 1) @ Lam @ Acl
    return U, K, Acl, 0.5 * (new + new.transpose(0, 2, 1))


def _lqr_sweep(sys, costs, N):
    """(lambda_max(P_xx), ||P_xw||_2) of every window start's value form, from
    one backward Riccati sweep over all starts at once.

    Each stage of the _walk is a _riccati_step with the window's stage
    weights from Lam_h = 0; P_xx = Lam_0. Block j of P_xw is
    (A_cl,j ... A_cl,0)'Lam_{j+1}, so P_xw P_xw' is Gram_0 for
    Gram_k = A_cl,k'(Lam_{k+1}^2 + Gram_{k+1})A_cl,k with Gram_h = 0. A
    U_k without a Cholesky factor, or a non-finite Lam_0 or Gram_0, raises
    ValueError naming the window start, with floating-point warnings off in
    the sweep so that an overflow reaches that check in every warning mode.
    """
    A, B = sys.A, sys.B
    starts = np.arange(costs.length)
    gram = np.zeros((costs.length, sys.n, sys.n))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _, a, t, lam in _walk(costs, starts, N, sys.n):
            _, _, Acl, new = _riccati_step(A, B, costs.Q_seq[t], costs.R_seq[t],
                                           lam, starts)
            gram[:a] = Acl.transpose(0, 2, 1) @ (lam @ lam + gram[:a]) @ Acl
            lam[:] = new
    # the walk's last view is the whole Lam_0 stack
    bad = np.flatnonzero(~(np.isfinite(lam).all(axis=(1, 2))
                           & np.isfinite(gram).all(axis=(1, 2))))
    if bad.size:
        raise ValueError(f"value form of the window from start {bad[0]} is not finite")
    cross = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))
    return np.linalg.eigvalsh(lam)[:, -1], cross


def _game_certifies(sys, costs, N, starts, c):
    """True where the sweep certifies lambda_max(P_ww) < (1 - SCREEN_MARGIN)c
    for the window from starts[i] (ascending) at its own level c[i].

    The sweep steps and tests at the one reduced level c' = (1 - SCREEN_MARGIN)c.
    It runs, through the _walk, with Pi = Lam_{k+1} and Lam_h = 0,
    U_k = R_k + B'Pi B, Pi~_k = Pi - Pi B U_k^-1 B'Pi and
    Lam_k = Q_k + c' A'S_k^-1 Pi~_k A for S_k = c'I - Pi~_k, the
    finite-horizon soft-constrained game recursion (Basar & Bernhard,
    H-infinity-Optimal Control and Related Minimax Design Problems, 1995).
    With x_0 = 0, sum_k x_k'Q_k x_k + u_k'R_k u_k - c'||w_k||^2
    is congruent to blockdiag(D_k) for D_k = [[U_k, B'Pi], [Pi B, Pi - c'I]],
    and by Sylvester's law of inertia D_k has the inertia of U_k together
    with that of its Schur complement -S_k. When every U_k and every S_k is
    positive definite the form has n*h negative directions and no zero one,
    which holds exactly when c'I - P_ww is positive definite. The stage
    conditions are sufficient, not necessary: the stages may share the n*h
    negative directions out unevenly, and such a window gets the dense form.
    A window is certified only when c > 0 and, at every stage, U_k and S_k
    have Cholesky factors; a window that fails one, or whose Lam is not
    finite, goes on with Pi = 0. The sweep runs with floating-point warnings
    off, as a failing window's S_k may be near singular.
    """
    A, B = sys.A, sys.B
    n, m = sys.n, sys.m
    eye = np.eye(n)
    c = (1.0 - SCREEN_MARGIN) * c
    ok = c > 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _, a, t, Pi in _walk(costs, starts, N, n):
            ca = c[:a, None, None]
            PiB = Pi @ B
            U = costs.R_seq[t] + B.T @ PiB
            live = ok[:a] & _factors(U)
            U[~live] = np.eye(m)
            Pit = Pi - PiB @ np.linalg.solve(U, PiB.transpose(0, 2, 1))
            S = ca * eye - Pit
            S[~live] = eye
            live &= _factors(S)
            new = costs.Q_seq[t] + ca * (A.T @ np.linalg.solve(S, Pit @ A))
            live &= np.isfinite(new).all(axis=(1, 2))
            new[~live] = 0.0
            ok[:a] = live
            Pi[:] = 0.5 * (new + new.transpose(0, 2, 1))
    return ok


def estimate_gamma_alpha_upper(sys: LinearSystem, costs: CostModel, N: int) -> tuple:
    """Constants (alpha_hi, gamma_bar_sq) with V_t(x, w) <= alpha_hi*sigma(x) + gamma_bar_sq*sum||w_k||^2.

    Only quadratic costs have them: V_t is a quadratic form in (x, w), and
    the constants are the maxima over every window start of lambda_max of
    its value form's x- and w-blocks (quadratic_value_form), each plus the
    cross term ||P_xw||_2. An LQR sweep over all window starts at once gives
    every window's lambda_max(P_xx) and cross term, so alpha_hi is its
    largest sum. For gamma_bar_sq, the window with the largest cross term
    among those left gets the dense value form and eigvalsh of its w-block,
    and a game sweep (_game_certifies) at each window's level, the running
    maximum less its cross term, drops every window whose lambda_max(P_ww)
    it certifies lies a relative SCREEN_MARGIN below that level; this
    repeats until no window is left. Windows
    that tie the maximum, as under time-invariant weights, are never
    certified, but windows with equal stage weights have bitwise-equal
    value forms, so each distinct weight slice gets one dense form. A
    non-finite sweep or value form, or a stage pivot without a Cholesky
    factor, raises ValueError naming its window start.
    Any other model raises ValueError naming its class. For the shipped
    non-quadratic models no finite pair exists: V_t(x*, 0) > 0 at a state
    x* with sigma(x*) = 0.
    """
    if not isinstance(costs, QuadraticCost):
        raise ValueError(f"no exact envelope for {type(costs).__name__}")
    if N < 1:
        raise ValueError(f"horizon must be at least 1, got {N}")
    L, n = costs.length, sys.n
    lam_x, cross = _lqr_sweep(sys, costs, N)
    Q, R = costs.Q_seq, costs.R_seq
    built = {}  # Q and R weight bytes of a window -> lambda_max(P_ww) of its form

    def top_w(t0):
        # the byte length fixes the horizon, so equal keys mean bitwise-equal
        # value forms
        h = min(N, L - t0)
        key = (Q[t0:t0 + h].tobytes(), R[t0:t0 + h].tobytes())
        if key not in built:
            P = quadratic_value_form(sys, costs, t0, h)
            if not np.isfinite(P).all():
                raise ValueError(f"value form of the window from start {t0} is not finite")
            # w_{h-1} reaches no costed state, so the w-block's last block row
            # and column are zero; they add only a zero eigenvalue
            built[key] = float(np.linalg.eigvalsh(P[n:n * h, n:n * h]).max(initial=0.0))
        return built[key]

    gamma_sq = 0.0
    live = np.arange(L)
    swept_at = None
    while live.size:
        i = int(np.argmax(cross[live]))
        t0 = int(live[i])
        gamma_sq = max(gamma_sq, top_w(t0) + float(cross[t0]))
        live = np.delete(live, i)
        # certification depends on gamma_sq alone, so a window the last
        # sweep kept stays kept until gamma_sq moves
        if live.size and gamma_sq != swept_at:
            live = live[~_game_certifies(sys, costs, N, live, gamma_sq - cross[live])]
            swept_at = gamma_sq
    return float(np.max(lam_x + cross)), gamma_sq


def estimate_params(sys: LinearSystem, costs: CostModel, N: int) -> EnvelopeParams:
    """Exact envelope constants of a quadratic model; any other model
    raises ValueError naming its class."""
    alpha_hi, gamma_sq = estimate_gamma_alpha_upper(sys, costs, N)
    return EnvelopeParams.from_alphas(
        alpha_lo=estimate_alpha_lower(costs),
        alpha_hi=alpha_hi,
        gamma_bar_sq=max(gamma_sq, 1e-12),
    )
