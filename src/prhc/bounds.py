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


def _gap(beta: float, M: int) -> float:
    """The contraction gap g = 1 - a = beta*(1 - 1/(beta^2 M)) of the
    certificate's constants, 0 < beta <= 1 and M >= 1.

    The one stability test, M > 1/beta^2, is made here on the number the
    gain bound divides by: it holds when a = 1 - g rounds below 1, so no
    caller divides by a gap that rounding has erased. Within a few ulps of
    the threshold this can disagree with M*beta^2 > 1 evaluated directly.
    """
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if beta > 1:
        raise ValueError(f"beta must not exceed 1, got {beta}")
    if M < 1:
        raise ValueError(f"M must be at least 1, got {M}")
    g = beta * (1.0 - 1.0 / (beta * beta * M)) if beta * beta else -math.inf
    if not 1.0 - g < 1.0:
        raise ValueError(
            f"stability threshold violated: requires M > 1/beta^2 = "
            f"{_threshold(beta):.6g}, got M={M}"
        )
    return g


def _threshold(beta: float) -> float:
    """1/beta^2, inf where beta^2 underflows to 0 and no M passes."""
    return 1.0 / (beta * beta) if beta * beta else math.inf


def kappa(beta: float, M: int) -> float:
    """3/(beta*M) + 1/(beta*M)^2 - 1/M, the finite-overlap term of omega_op.

    It takes omega_op's constants: 0 < beta <= 1 and M past the stability
    threshold M > 1/beta^2, and raises ValueError elsewhere.
    """
    _gap(beta, M)
    bm = beta * M
    return 3.0 / bm + 1.0 / (bm * bm) - 1.0 / M


def omega_op(beta: float, M: int) -> float:
    """(2 - beta + kappa(beta, M)) / (beta * (1 - 1/(beta^2 M))).

    The package's own gain coefficient, which multiplies the window-envelope
    constant gamma_bar_sq and tends to (2 - beta)/beta as M grows. It is not
    the abstract's 2/beta + rho(N), which multiplies the oracle's best gain
    under N > 4/beta^3. Defined only for 0 < beta <= 1 past the stability
    threshold M > 1/beta^2, where the denominator, the contraction gap
    g = 1 - a of a_factor, is positive; at or below the threshold the gain
    coefficient diverges, and it raises ValueError.
    """
    return (2.0 - beta + kappa(beta, M)) / _gap(beta, M)


def a_factor(beta: float, M: int) -> float:
    """Contraction factor a = 1 + beta*(1/(beta^2 M) - 1) of the interval
    recursion: below 1 exactly where omega_op is defined, and above 0 for
    M < 2^53; ValueError elsewhere, as omega_op."""
    return 1.0 - _gap(beta, M)


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
    sigma_x1: float | None = None,
) -> GainCertificate:
    """Check J against alpha_hi/(1-a)*sigma(x_1) + omega*gamma_bar_sq*energy.

    This is the package's certificate, not the abstract's: it holds under
    N >= 2M and M > 1/beta^2, with omega = omega_op(beta, M) and
    gamma_bar_sq the window-envelope constant of params, where the abstract
    claims (2/beta + rho(N)) times the oracle's best gain for N > 4/beta^3.
    A sched other than the run's own raises ValueError. sigma_x1=None reads
    sigma(x_1) from the run, as result.costs.sigma(result.traj.states[0]);
    pass a value to override it.
    Failed preconditions never raise; they yield an infinite bound with
    satisfied=False so batch reports stay total. params=None means the run's
    cost has no envelope: the failed condition "envelope exists" takes the
    place of "M > 1/beta^2". That condition holds exactly when omega_op and
    a_factor return; its margin is M - 1/beta^2 as computed, which can read
    a few ulps positive where the test on the contraction gap fails.
    """
    own = result.schedule
    if sched is not None and sched != own:
        raise ValueError(f"certify takes the run's own schedule (N={own.N}, M={own.M}, "
                         f"T={own.T}), got N={sched.N}, M={sched.M}, T={sched.T}")
    N, M = own.N, own.M
    if params is None:
        envelope = ("envelope exists", False, math.nan)
    else:
        try:
            stable = _gap(params.beta, M) > 0
        except ValueError:
            stable = False
        envelope = ("M > 1/beta^2", stable, M - _threshold(params.beta))
    conditions = (("N >= 2M", N >= 2 * M, float(N - 2 * M)), envelope)
    energy = float(np.sum(result.traj.disturbances ** 2))
    gain = result.J / energy if energy > 0 else float("nan")
    ok = all(c[1] for c in conditions)
    if ok:
        w = omega_op(params.beta, M)
        a = a_factor(params.beta, M)
        if sigma_x1 is None:
            sigma_x1 = result.costs.sigma(result.traj.states[0])
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
    QuadraticCost) raises ValueError, as do a run that keeps no law table,
    a sys or costs other than the objects the run was given, a w_full other
    than the disturbances it applied, and a stability threshold the run's M
    does not pass; a run with fewer than two full windows passes these
    checks before it returns no slacks.
    """
    if params is None or not isinstance(costs, QuadraticCost):
        raise ValueError(f"no envelope for {type(costs).__name__}: the recursion "
                         f"needs finite alpha_hi and gamma_bar_sq")
    if result.laws is None:
        raise ValueError("the run keeps no window laws: it was not a quadratic run")
    if sys is not result.sys:
        raise ValueError("sys is not the system the run applied")
    if costs is not result.costs:
        raise ValueError("costs is not the cost model the run applied")
    sched = result.schedule
    N, M, T = sched.N, sched.M, sched.T
    a = a_factor(params.beta, M)
    g2 = params.gamma_bar_sq
    if not np.array_equal(w_full.w[:T], result.traj.disturbances):
        raise ValueError("w_full is not the disturbance sequence the run applied")
    step_energy = np.sum(w_full.w[:T] ** 2, axis=1)
    full = [s for s in sched.starts if s + N <= T]
    if len(full) < 2:
        return []  # the recursion needs a pair of full windows
    states = result.traj.states
    K, f = result.laws
    values = [_solver._law_rollout(sys, costs, states[s], s, w_full.w[s:s + N],
                                   K[:, i], f[:, i])[1]
              for i, s in enumerate(full)]
    slacks = []
    for i in range(len(full) - 1):
        s_a, s_b = full[i], full[i + 1]
        s1 = float(np.sum(step_energy[s_a:s_b]))
        s2 = float(np.sum(step_energy[s_b:s_b + M]))
        s3 = float(np.sum(step_energy[s_b + M:s_b + N]))
        rhs = a * values[i] + params.beta * g2 * s1 \
            + (params.beta + 1.0) * g2 * s2 + g2 * s3
        slacks.append(rhs - values[i + 1])
    return slacks
