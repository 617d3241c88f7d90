"""Randomized quadratic scenario family for certificate and audit checks.

Every scenario satisfies the certificate preconditions by construction:
exact-path envelope constants, x1 = 0, N >= 2M, and M > 1/beta^2 enforced by
redrawing (a precondition filter, never an outcome filter). Disturbances can
either be plain uniform draws or concentrate their energy on the window
offset the value function responds to most; the concentrated variant is what
makes under-reported constants detectable.
"""

from dataclasses import dataclass

import numpy as np

from prhc.costs import EnvelopeParams, QuadraticCost, estimate_params, quadratic_value_form
from prhc.linsys import DisturbanceSequence, LinearSystem
from prhc.policy import RhcSchedule, build_schedule


@dataclass(frozen=True)
class FamilyScenario:
    seed: int
    sys: LinearSystem
    costs: QuadraticCost
    w: DisturbanceSequence
    x1: np.ndarray
    sched: RhcSchedule
    params: EnvelopeParams


def draw_system(rng):
    n = int(rng.integers(1, 4))
    A = rng.uniform(0.0, 0.25 / np.sqrt(n), (n, n))
    return LinearSystem(A=A, B=np.ones((n, 1)))


def draw_costs(rng, n, T):
    Q = np.stack([np.diag(rng.uniform(1.4, 2.2, n)) for _ in range(T)])
    R = np.stack([np.diag(rng.uniform(1.4, 2.2, 1)) for _ in range(T)])
    return QuadraticCost(Q, R)


def _draw_instance(rng):
    sys = draw_system(rng)
    M = int(rng.integers(4, 7))
    N = 2 * M + int(rng.integers(0, 2))
    n_m = N - M
    lo = N + n_m
    T = int(rng.integers(lo, 31))
    return sys, draw_costs(rng, sys.n, T), N, M, T


def _spike_disturbance(sys, costs, sched, rng, w_c):
    """Background draw plus one step carrying most of the energy, placed at
    the offset (within the first audited window) with the largest response."""
    n, N, M, T = sys.n, sched.N, sched.M, sched.T
    t_b = 1 + N - M
    P = quadratic_value_form(sys, costs, t_b - 1, N)
    best = None
    for k in range(M, N - 1):  # offset N-1 never affects in-window states
        block = P[n * (1 + k):n * (2 + k), n * (1 + k):n * (2 + k)]
        lam, vec = np.linalg.eigh(block)
        if best is None or lam[-1] > best[0]:
            best = (float(lam[-1]), vec[:, -1], k)
    _, v, k = best
    w = rng.uniform(0.0, 0.05 * w_c / np.sqrt(n), (T, n))
    w[t_b - 1 + k] = v * (0.9 * w_c)
    return DisturbanceSequence.from_array(w)


def compliant_quadratic_scenario(seed: int, spike: bool = True) -> FamilyScenario:
    rng = np.random.default_rng(1_000_003 * (seed + 1))
    for _ in range(60):
        sys, costs, N, M, T = _draw_instance(rng)
        params = estimate_params(sys, costs, N)
        if M > 1.0 / params.beta ** 2:
            break
    else:
        raise RuntimeError(f"no stability-compliant draw after 60 tries (seed {seed})")
    sched = build_schedule(N, M, T)
    w_c = float(np.sqrt(sys.n))
    if spike:
        w = _spike_disturbance(sys, costs, sched, rng, w_c)
    else:
        w = DisturbanceSequence(rng.uniform(0.0, 1.0, (T, sys.n)))
    return FamilyScenario(
        seed=seed, sys=sys, costs=costs, w=w,
        x1=np.zeros(sys.n), sched=sched, params=params,
    )
