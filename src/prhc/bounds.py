"""Closed-form constants of the overlap-policy gain bound, certificate
checking against runs, and a numerical audit of the interval recursion the
bound is built on."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import solver as _solver
from .costs import CostModel, EnvelopeParams, QuadraticCost
from .linsys import DisturbanceSequence, LinearSystem
from .policy import RhcSchedule, RunResult

__all__ = [
    "kappa",
    "omega_op",
    "a_factor",
    "GainCertificate",
    "certify",
    "recursion_audit",
]

BOUND_REL_TOL = 1e-9       # relative slack allowed on J vs certified bound


def kappa(beta: float, M: int) -> float:
    """3/(beta*M) + 1/(beta*M)^2 - 1/M."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if beta > 1:
        raise ValueError(f"beta must not exceed 1, got {beta}")
    if M < 1:
        raise ValueError(f"M must be at least 1, got {M}")
    bm = beta * M
    return 3.0 / bm + 1.0 / (bm * bm) - 1.0 / M


def omega_op(beta: float, M: int) -> float:
    """(2 - beta + kappa(beta, M)) / (beta * (1 - 1/(beta^2 M))).

    The package's own gain coefficient, which multiplies the window-envelope
    constant gamma_bar_sq and tends to (2 - beta)/beta as M grows. It is not
    the abstract's 2/beta + rho(N), which multiplies the oracle's best gain
    under N > 4/beta^3. Defined only past the stability threshold
    M > 1/beta^2; at or below it the closed-loop recursion contraction
    factor reaches 1 and the gain coefficient diverges.
    """
    k = kappa(beta, M)
    denom = 1.0 - 1.0 / (beta * beta * M)
    if denom <= 0:
        raise ValueError(
            f"stability threshold violated: requires M > 1/beta^2 = "
            f"{1.0 / (beta * beta):.6g}, got M={M}"
        )
    return (2.0 - beta + k) / (beta * denom)


def a_factor(beta: float, M: int) -> float:
    """Contraction factor a = 1 + beta*(1/(beta^2 M) - 1) of the interval
    recursion; lies in (0, 1) exactly when M > 1/beta^2."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if beta > 1:
        raise ValueError(f"beta must not exceed 1, got {beta}")
    if M * beta * beta <= 1:
        raise ValueError(
            f"stability threshold violated: requires M > 1/beta^2 = "
            f"{1.0 / (beta * beta):.6g}, got M={M}"
        )
    a = 1.0 + beta * (1.0 / (beta * beta * M) - 1.0)
    if not (0.0 < a < 1.0):
        raise AssertionError(f"contraction factor a={a} fell outside (0, 1)")
    return a


@dataclass(frozen=True)
class GainCertificate:
    """Outcome of checking one run against the certified gain bound."""

    J: float
    energy: float
    gain: float                 # nan when energy is zero
    omega: float                # nan when conditions fail
    bound: float                # +inf when conditions fail
    conditions: tuple           # (name, satisfied, margin) triples
    satisfied: bool

    @property
    def conditions_ok(self) -> bool:
        return all(ok for _, ok, _ in self.conditions)


def certify(
    result: RunResult,
    params: EnvelopeParams | None,
    sched: RhcSchedule | None = None,
    sigma_x1: float = 0.0,
) -> GainCertificate:
    """Check J against alpha_hi/(1-a)*sigma(x_1) + omega*gamma_bar_sq*energy.

    This is the package's certificate, not the abstract's: it holds under
    N >= 2M and M > 1/beta^2, with omega = omega_op(beta, M) and
    gamma_bar_sq the window-envelope constant of params, where the abstract
    claims (2/beta + rho(N)) times the oracle's best gain for N > 4/beta^3.
    Failed preconditions never raise; they yield an infinite bound with
    satisfied=False so batch reports stay total. params=None means the run's
    cost has no envelope: the failed condition "envelope exists" takes the
    place of "M > 1/beta^2".
    """
    if sched is None:
        sched = result.schedule
    N, M = sched.N, sched.M
    if params is None:
        envelope = ("envelope exists", False, math.nan)
    else:
        inv_b2 = 1.0 / (params.beta * params.beta)
        envelope = ("M > 1/beta^2", M > inv_b2, float(M - inv_b2))
    conditions = (("N >= 2M", N >= 2 * M, float(N - 2 * M)), envelope)
    energy = float(np.sum(result.traj.disturbances ** 2))
    gain = result.J / energy if energy > 0 else float("nan")
    ok = all(c[1] for c in conditions)
    if ok:
        w = omega_op(params.beta, M)
        a = a_factor(params.beta, M)
        bound = (params.alpha_hi / (1.0 - a)) * float(sigma_x1) \
            + w * params.gamma_bar_sq * energy
        satisfied = result.J <= bound * (1.0 + BOUND_REL_TOL) + 1e-15
    else:
        w = float("nan")
        bound = math.inf
        satisfied = False
    return GainCertificate(
        J=result.J,
        energy=energy,
        gain=gain,
        omega=w,
        bound=bound,
        conditions=conditions,
        satisfied=satisfied,
    )


def recursion_audit(
    result: RunResult,
    params: EnvelopeParams | None,
    sys: LinearSystem,
    costs: CostModel,
    w_full: DisturbanceSequence,
) -> list:
    """Numerically re-derive the interval recursion on a finished run.

    For each consecutive pair of full-length windows, recomputes both window
    values from the realized states and returns slack = RHS - V_next of

        V_next <= a*V_cur + beta*g2*S1 + (beta+1)*g2*S2 + g2*S3

    where g2 is gamma_bar_sq and S1/S2/S3 split the disturbance energy over
    the applied segment, the overlap, and the fresh tail of the next window.
    The full windows are a prefix of the schedule, so their laws are the
    leading columns of the run's law table (RunResult.laws), each rolled
    out from its realized state. Slacks must be nonnegative (within
    tolerance) when the envelope constants genuinely dominate the window
    values. A run without an envelope (params=None, or a model other than
    QuadraticCost) raises ValueError, as do a run that keeps no law table or
    ran on other disturbances than w_full, and a stability threshold the
    run's M does not pass.
    """
    if params is None or not isinstance(costs, QuadraticCost):
        raise ValueError(f"no envelope for {type(costs).__name__}: the recursion "
                         f"needs finite alpha_hi and gamma_bar_sq")
    if result.laws is None:
        raise ValueError("the run keeps no window laws: it was not a quadratic run")
    sched = result.schedule
    N, M, T = sched.N, sched.M, sched.T
    a = a_factor(params.beta, M)
    g2 = params.gamma_bar_sq
    step_energy = np.sum(w_full.w[:T] ** 2, axis=1)  # index t-1 for step t
    full = [t for t in sched.t_list if t + N - 1 <= T]  # 1-based starts
    if len(full) < 2:
        return []  # the recursion needs a pair of full windows
    if not np.array_equal(w_full.w[:T], result.traj.disturbances):
        raise ValueError("w_full is not the disturbance sequence the run applied")
    states = result.traj.states
    K, f = result.laws
    values = [_solver._law_rollout(sys, costs, states[t - 1], t - 1,
                                   w_full.w[t - 1:t - 1 + N], K[:, i], f[:, i])[1]
              for i, t in enumerate(full)]
    slacks = []
    for i in range(len(full) - 1):
        t_a, t_b = full[i], full[i + 1]
        s1 = float(np.sum(step_energy[t_a - 1:t_b - 1]))
        s2 = float(np.sum(step_energy[t_b - 1:t_b - 1 + M]))
        s3 = float(np.sum(step_energy[t_b - 1 + M:t_b - 1 + N]))
        rhs = a * values[i] + params.beta * g2 * s1 \
            + (params.beta + 1.0) * g2 * s2 + g2 * s3
        slacks.append(rhs - values[i + 1])
    return slacks
