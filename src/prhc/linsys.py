"""Discrete-time linear dynamics with additive disturbances, plus stacked batch forms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinearSystem",
    "DisturbanceSequence",
    "Trajectory",
    "StackedDynamics",
    "rollout",
    "stack_dynamics",
]


def _as_float_array(name, value, ndim):
    arr = np.asarray(value, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class LinearSystem:
    """Read-only matrix pair (A, B) of the update x_next = A x + B u + w."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = _as_float_array("A", self.A, 2)
        B = _as_float_array("B", self.B, 2)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        if A.shape[0] < 1:
            raise ValueError("state dimension must be at least 1")
        if B.shape[0] != A.shape[0]:
            raise ValueError(
                f"B has {B.shape[0]} rows but the state dimension is {A.shape[0]}"
            )
        if B.shape[1] < 1:
            raise ValueError("input dimension must be at least 1")
        A.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class DisturbanceSequence:
    """Disturbance vectors w_1..w_T, one finite row per step."""

    w: np.ndarray  # (T, n)

    def __post_init__(self):
        w = _as_float_array("w", self.w, 2)
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @classmethod
    def zeros(cls, T: int, n: int) -> "DisturbanceSequence":
        return cls(np.zeros((T, n)))

    @classmethod
    def from_array(cls, w) -> "DisturbanceSequence":
        """Wrap an array; a single step may be given as a 1-D vector."""
        return cls(np.atleast_2d(np.asarray(w, dtype=float)))

    def __len__(self) -> int:
        return self.w.shape[0]

    @property
    def n(self) -> int:
        return self.w.shape[1]

    def window(self, start: int, stop: int) -> "DisturbanceSequence":
        """Sub-sequence covering steps start..stop-1 (0-based)."""
        if not (0 <= start <= stop <= len(self)):
            raise ValueError(f"window [{start}, {stop}) out of range for length {len(self)}")
        return DisturbanceSequence(self.w[start:stop].copy())

    def energy(self) -> float:
        """Total squared norm of the sequence."""
        return float(np.sum(self.w * self.w))


@dataclass
class Trajectory:
    """Closed-loop record: states x_1..x_{T+1}, inputs and disturbances."""

    states: np.ndarray        # (T+1, n)
    inputs: np.ndarray        # (T, m)
    disturbances: np.ndarray  # (T, n)

    def __post_init__(self):
        self.states = _as_float_array("states", self.states, 2)
        self.inputs = _as_float_array("inputs", self.inputs, 2)
        self.disturbances = _as_float_array("disturbances", self.disturbances, 2)
        T = self.inputs.shape[0]
        if self.states.shape[0] != T + 1:
            raise ValueError(
                f"states must hold T+1 rows, got {self.states.shape[0]} for T={T}"
            )
        if self.disturbances.shape != (T, self.states.shape[1]):
            raise ValueError(
                f"disturbances shape {self.disturbances.shape} does not match "
                f"(T={T}, n={self.states.shape[1]})"
            )

    @property
    def T(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class StackedDynamics:
    """Batch maps F, G, H with x_stack = F x + G u_stack + H w_stack.

    x_stack holds the N window states at offsets 0..N-1, so the first block row
    of F is the identity and the first block rows of G and H are zero.
    """

    F: np.ndarray  # (n*N, n)
    G: np.ndarray  # (n*N, m*N)
    H: np.ndarray  # (n*N, n*N)
    n: int
    m: int
    N: int


def _propagate(sys: LinearSystem, x1, u, w, K=None) -> np.ndarray:
    """States x_1..x_{T+1} of x_{k+1} = A x_k + B u_k + w_k, T = len(u); no checks.

    With gains K (T, m, n) the inputs follow the law u_k - K_k x_k: u holds
    the feedforward terms on entry and the applied inputs on return.
    """
    A, B = sys.A, sys.B
    states = np.empty((len(u) + 1, sys.n))
    states[0] = x1
    for k in range(len(u)):
        if K is not None:
            u[k] -= K[k] @ states[k]
        states[k + 1] = A @ states[k] + B @ u[k] + w[k]
    return states


def rollout(sys: LinearSystem, x1, u_seq, w_seq) -> Trajectory:
    """Roll the dynamics forward from x1 under an input and disturbance sequence."""
    if isinstance(w_seq, DisturbanceSequence):
        w_seq = w_seq.w
    x1 = np.asarray(x1, dtype=float)
    u_seq = np.asarray(u_seq, dtype=float)
    w_seq = np.asarray(w_seq, dtype=float)
    if x1.size != sys.n:
        raise ValueError(f"x1 has {x1.size} entries, expected {sys.n}")
    if u_seq.ndim != 2 or u_seq.shape[1] != sys.m:
        raise ValueError(f"u_seq has shape {u_seq.shape}, expected (T, {sys.m})")
    if w_seq.ndim != 2 or w_seq.shape[1] != sys.n:
        raise ValueError(f"w_seq has shape {w_seq.shape}, expected (T, {sys.n})")
    T = u_seq.shape[0]
    if w_seq.shape[0] != T:
        raise ValueError(
            f"input sequence has {T} steps but disturbance sequence has {w_seq.shape[0]}"
        )
    states = _propagate(sys, x1.reshape(sys.n), u_seq, w_seq)
    return Trajectory(states=states, inputs=u_seq.copy(), disturbances=w_seq.copy())


def stack_dynamics(sys: LinearSystem, N: int) -> StackedDynamics:
    """Fresh read-only batch maps for an N-step window.

    Offset k state: x_k = A^k x + sum_{j<k} A^(k-1-j) (B u_j + w_j).
    """
    if N < 1:
        raise ValueError(f"window length N must be at least 1, got {N}")
    n, m = sys.n, sys.m
    powers = [np.eye(n)]
    for _ in range(N - 1):
        powers.append(sys.A @ powers[-1])
    F = np.vstack(powers)
    G = np.zeros((n * N, m * N))
    H = np.zeros((n * N, n * N))
    for k in range(N):
        for j in range(k):
            blk = powers[k - 1 - j]
            G[k * n:(k + 1) * n, j * m:(j + 1) * m] = blk @ sys.B
            H[k * n:(k + 1) * n, j * n:(j + 1) * n] = blk
    for arr in (F, G, H):
        arr.setflags(write=False)
    return StackedDynamics(F=F, G=G, H=H, n=n, m=m, N=N)
