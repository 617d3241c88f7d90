"""Closed-form constants of the overlap-policy gain bound, certificate
checking against runs, the empirical disturbance gain, and a numerical audit
of the interval recursion the bound is built on."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import solver as _solver
from .costs import CostModel, EnvelopeParams
from .linsys import DisturbanceSequence, LinearSystem
from .policy import RhcSchedule, RunResult
from .solver import HorizonProblem, SolverConfig

__all__ = [
    "kappa",
    "omega_op",
    "a_factor",
    "PreviewGainBound",
    "gain_bound_for_preview",
    "disturbance_gain",
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

    Defined only past the stability threshold M > 1/beta^2; at or below it
    the closed-loop recursion contraction factor reaches 1 and the gain
    coefficient diverges.
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
class PreviewGainBound:
    """Preview-length form of the certified gain: gamma_op_sq = omega*gamma_bar_sq
    with the overlap fixed at floor(N/2), and rho the exact residual above the
    2*zeta floor. rho_envelope is the O(1/N) cap the derivation yields;
    envelope_ok is reported rather than enforced because tight zeta margins
    can break the cap's intermediate inequality."""

    gamma_op_sq: float
    rho: float
    omega: float
    rho_envelope: float
    envelope_ok: bool
    M: int


def gain_bound_for_preview(params: EnvelopeParams, N: int) -> PreviewGainBound:
    """Certified disturbance-gain coefficient as a function of preview length.

    Requires N > 4*zeta^3 (strict), beta >= 1/zeta and zeta > 1; violations
    raise with the failed condition and its margin.
    """
    beta, zeta = params.beta, params.zeta
    if not (zeta > 1.0):
        raise ValueError(f"requires zeta > 1, got zeta={zeta} (margin {zeta - 1.0:.3g})")
    if beta * zeta < 1.0 - 1e-12:
        raise ValueError(
            f"requires beta >= 1/zeta: beta={beta}, 1/zeta={1.0 / zeta:.6g} "
            f"(margin {beta - 1.0 / zeta:.3g})"
        )
    threshold = 4.0 * zeta ** 3
    if not (N > threshold):
        raise ValueError(
            f"requires N > 4*zeta^3 = {threshold:.6g}, got N={N} "
            f"(margin {N - threshold:.3g})"
        )
    M = N // 2
    w = omega_op(beta, M)
    rho = w - 2.0 * zeta
    envelope = (2.0 * zeta * zeta / (2.0 * zeta - 1.0)) * kappa(beta, M)
    return PreviewGainBound(
        gamma_op_sq=w * params.gamma_bar_sq,
        rho=rho,
        omega=w,
        rho_envelope=envelope,
        envelope_ok=bool(rho <= envelope + 1e-12),
        M=M,
    )


def disturbance_gain(result: RunResult, w_full: DisturbanceSequence) -> float:
    """Realized cost over disturbance energy, J / sum ||w_t||^2 on [1, T]."""
    T = result.schedule.T
    if len(w_full) < T:
        raise ValueError(
            f"disturbance sequence covers {len(w_full)} steps "
            f"but the run spans T={T}"
        )
    energy = float(np.sum(w_full.w[:T] * w_full.w[:T]))
    if energy == 0.0:
        raise ValueError("gain undefined: disturbance energy is zero")
    return result.J / energy


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
    truncated_tail: bool
    certified_params: bool

    @property
    def conditions_ok(self) -> bool:
        return all(ok for _, ok, _ in self.conditions)


def certify(
    result: RunResult,
    params: EnvelopeParams,
    sched: RhcSchedule | None = None,
    sigma_x1: float = 0.0,
) -> GainCertificate:
    """Check J against alpha_hi/(1-a)*sigma(x_1) + omega*gamma_bar_sq*energy.

    Failed preconditions never raise; they yield an infinite bound with
    satisfied=False so batch reports stay total.
    """
    if sched is None:
        sched = result.schedule
    N, M = sched.N, sched.M
    beta = params.beta
    inv_b2 = 1.0 / (beta * beta)
    conditions = (
        ("N >= 2M", N >= 2 * M, float(N - 2 * M)),
        ("M > 1/beta^2", M > inv_b2, float(M - inv_b2)),
    )
    energy = float(np.sum(result.traj.disturbances ** 2))
    gain = result.J / energy if energy > 0 else float("nan")
    ok = all(c[1] for c in conditions)
    if ok:
        w = omega_op(beta, M)
        a = a_factor(beta, M)
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
        truncated_tail=sched.truncated_tail,
        certified_params=params.certified,
    )


def recursion_audit(
    result: RunResult,
    params: EnvelopeParams,
    sys: LinearSystem,
    costs: CostModel,
    w_full: DisturbanceSequence,
    cfg: SolverConfig | None = None,
) -> list:
    """Numerically re-derive the interval recursion on a finished run.

    For each consecutive pair of full-length windows, recomputes both window
    values with fresh solver calls from the realized states and returns
    slack = RHS - V_next of

        V_next <= a*V_cur + beta*g2*S1 + (beta+1)*g2*S2 + g2*S3

    where g2 is gamma_bar_sq and S1/S2/S3 split the disturbance energy over
    the applied segment, the overlap, and the fresh tail of the next window.
    Slacks must be nonnegative (within tolerance) when the envelope constants
    genuinely dominate the window values.
    """
    if cfg is None:
        cfg = SolverConfig()
    sched = result.schedule
    N, M, T = sched.N, sched.M, sched.T
    a = a_factor(params.beta, M)
    g2 = params.gamma_bar_sq
    step_energy = np.sum(w_full.w[:T] ** 2, axis=1)  # index t-1 for step t

    def window_value(t_i: int) -> float:
        x = result.traj.states[t_i - 1]
        problem = HorizonProblem(
            sys=sys, x0=x, costs=costs, t0=t_i - 1,
            w_preview=w_full.window(t_i - 1, t_i - 1 + N), N=N,
        )
        return _solver.solve(problem, cfg).value

    values: dict[int, float] = {}
    slacks = []
    for i in range(len(sched.t_list) - 1):
        t_a, t_b = sched.t_list[i], sched.t_list[i + 1]
        if t_b + N - 1 > T:
            break  # remaining windows truncate; the recursion needs full ones
        for t in (t_a, t_b):
            if t not in values:
                values[t] = window_value(t)
        s1 = float(np.sum(step_energy[t_a - 1:t_b - 1]))
        s2 = float(np.sum(step_energy[t_b - 1:t_b - 1 + M]))
        s3 = float(np.sum(step_energy[t_b - 1 + M:t_b - 1 + N]))
        rhs = a * values[t_a] + params.beta * g2 * s1 \
            + (params.beta + 1.0) * g2 * s2 + g2 * s3
        slacks.append(rhs - values[t_b])
    return slacks
