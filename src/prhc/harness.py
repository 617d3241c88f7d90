"""Seeded scenario generation, policy comparison experiments, a brute-force
grid oracle, and report emission (CSV/JSON).

Scenarios draw a random system and cost family, run the overlap policy next
to standard receding horizon on the same disturbances, certify the realized
gains where the bound applies, and collect everything into flat report rows
whose layout is stable across runs and worker counts.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bounds import a_factor, certify, omega_op
from .costs import (
    CostModel,
    EnvelopeParams,
    NonConvexCost,
    QuadraticCost,
    SetDistanceCost,
    estimate_params,
    sigma_eval,
)
from .linsys import DisturbanceSequence, LinearSystem, rollout
from .policy import build_schedule, run_policy
from .solver import SolverConfig

__all__ = [
    "COST_KINDS",
    "ScenarioConfig",
    "Scenario",
    "ReportRow",
    "AggregateCell",
    "ExperimentReport",
    "gen_scenario",
    "scenario_params",
    "run_comparison",
    "run_table1",
    "brute_force_oracle",
    "aggregate_report",
    "emit_report",
    "load_report",
    "worker_count",
]

COST_KINDS = ("quadratic", "nonconvex", "set_distance")

# exact column order of the CSV schema; ReportRow fields mirror it
CSV_HEADER = (
    "seed,cost_kind,policy,n,m,T,N,M,J,energy,gain,beta,gamma_bar_sq,"
    "certified,omega_op,bound,satisfied,truncated_tail"
)

GRID_BUDGET = 10**8          # max points an exhaustive grid sweep may enumerate
REFINE_POINTS = 33           # grid points per axis on each refinement level
REFINE_SAFETY = 8            # kept box half-width, in units of current spacing
EVAL_CHUNK = 1 << 18         # (prefix, input) pairs costed per vectorized block


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs that, together with a seed, fully determine a scenario.

    Ranges default to the experiment family: A entries uniform on [0,1],
    disturbance components uniform on [0,1], quadratic cost diagonals
    uniform on [1,3], cubic-well offset 0.2, target ball of radius 0.25
    centered at coordinate 0.5 with weights kept away from zero.
    """

    cost_kind: str = "quadratic"
    n: int = 2
    m: int = 1
    T: int = 15
    N: int = 6
    a_low: float = 0.0
    a_high: float = 1.0
    w_low: float = 0.0
    w_high: float = 1.0
    q_low: float = 1.0
    q_high: float = 3.0
    well_offset: float = 0.2
    weight_floor: float = 0.05
    center_coord: float = 0.5
    radius: float = 0.25

    def __post_init__(self):
        if self.cost_kind not in COST_KINDS:
            raise ValueError(
                f"cost_kind must be one of {COST_KINDS}, got {self.cost_kind!r}"
            )
        for name in ("n", "m", "T", "N"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.N > self.T:
            raise ValueError(f"preview must satisfy N <= T, got N={self.N}, T={self.T}")
        if self.cost_kind == "nonconvex" and self.n < 2:
            raise ValueError("nonconvex cost needs state dimension n >= 2")
        for lo, hi, label in (
            (self.a_low, self.a_high, "A entry range"),
            (self.w_low, self.w_high, "disturbance range"),
            (self.q_low, self.q_high, "cost diagonal range"),
        ):
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise ValueError(f"{label} [{lo}, {hi}] is invalid")
        if self.q_low <= 0:
            raise ValueError(f"cost diagonals must stay positive, got low end {self.q_low}")
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if not 0 <= self.weight_floor < 1:
            raise ValueError(f"weight_floor must lie in [0, 1), got {self.weight_floor}")

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class Scenario:
    """One fully materialized experiment instance.

    `policies` pairs a label with its overlap: the proposed half-preview
    overlap next to standard receding horizon (replan every step).
    """

    seed: int
    config: ScenarioConfig
    sys: LinearSystem
    cost_kind: str
    costs: CostModel
    w_full: DisturbanceSequence
    x1: np.ndarray
    T: int
    N: int
    policies: tuple = ()

    def policy_schedule(self, M: int):
        return build_schedule(self.N, M, self.T)


def default_policies(N: int) -> tuple:
    return (("overlap", max(1, N // 2)), ("standard", max(1, N - 1)))


def gen_scenario(seed: int, config: ScenarioConfig | None = None) -> Scenario:
    """Draw a scenario reproducibly from (seed, config).

    Draw order is part of the contract: A entries first, then the
    disturbance table, then cost parameters. The set-distance weights are
    re-drawn as a whole vector until their minimum clears the floor.
    """
    cfg = config or ScenarioConfig()
    rng = np.random.default_rng(seed)
    n, m, T = cfg.n, cfg.m, cfg.T
    A = rng.uniform(cfg.a_low, cfg.a_high, (n, n))
    B = np.ones((n, m))
    sys = LinearSystem(A=A, B=B)
    w = rng.uniform(cfg.w_low, cfg.w_high, (T, n))
    w_c = math.sqrt(n) * max(abs(cfg.w_low), abs(cfg.w_high))
    w_full = DisturbanceSequence(w=w, w_c=w_c)

    if cfg.cost_kind == "quadratic":
        q = rng.uniform(cfg.q_low, cfg.q_high, (T, n))
        r = rng.uniform(cfg.q_low, cfg.q_high, (T, m))
        Q_seq = np.stack([np.diag(q[t]) for t in range(T)])
        R_seq = np.stack([np.diag(r[t]) for t in range(T)])
        costs: CostModel = QuadraticCost(Q_seq, R_seq)
    elif cfg.cost_kind == "nonconvex":
        costs = NonConvexCost(b=cfg.well_offset)
    else:
        a_seq = rng.uniform(0.0, 1.0, T)
        while a_seq.min() < cfg.weight_floor:
            a_seq = rng.uniform(0.0, 1.0, T)
        costs = SetDistanceCost(
            a_seq=a_seq, center=np.full(n, cfg.center_coord), radius=cfg.radius
        )

    return Scenario(
        seed=seed,
        config=cfg,
        sys=sys,
        cost_kind=cfg.cost_kind,
        costs=costs,
        w_full=w_full,
        x1=np.zeros(n),
        T=T,
        N=cfg.N,
        policies=default_policies(cfg.N),
    )


# window solves behind sampled envelope estimates run with loose stationarity:
# any early stop only inflates the (advisory, uncertified) constants
SAMPLING_SOLVER = SolverConfig(max_iters=120, grad_tol=1e-6, restarts=2)


def scenario_params(
    sc: Scenario,
    sample_budget: int = 200,
    zeta: float | None = None,
) -> EnvelopeParams:
    """Envelope constants for a scenario: exact for quadratic costs, sampled
    otherwise. The sampling seed is tied to the scenario seed."""
    return estimate_params(
        sc.sys, sc.costs, sc.N,
        sample_budget=sample_budget, seed=sc.seed, zeta=zeta,
        solver_cfg=SAMPLING_SOLVER,
    )


@dataclass(frozen=True)
class ReportRow:
    """One (scenario, policy) outcome; field order mirrors the CSV schema."""

    seed: int
    cost_kind: str
    policy: str
    n: int
    m: int
    T: int
    N: int
    M: int
    J: float
    energy: float
    gain: float
    beta: float
    gamma_bar_sq: float
    certified: bool
    omega_op: float
    bound: float
    satisfied: bool
    truncated_tail: bool

    def _key(self) -> tuple:
        return tuple(_fmt(getattr(self, f.name))
                     for f in dataclasses.fields(ReportRow))

    # rows are equal when their serialized forms match, so nan fields
    # (undefined gains, inapplicable bounds) do not break round-trips
    def __eq__(self, other) -> bool:
        if not isinstance(other, ReportRow):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True)
class AggregateCell:
    """Table cell: disturbance gain as the ratio of averages over iterations."""

    cost_kind: str
    policy: str
    N: int
    count: int
    mean_J: float
    mean_energy: float
    gain: float


@dataclass
class ExperimentReport:
    config: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)

    def sorted_rows(self) -> list:
        return sorted(self.rows, key=lambda r: (r.seed, r.cost_kind, r.policy, r.N))


def _row_sigma_start(sc: Scenario) -> float:
    return float(sigma_eval(sc.costs, sc.x1))


def run_comparison(
    sc: Scenario,
    solver_cfg: SolverConfig | None = None,
    params: EnvelopeParams | None = None,
    sample_budget: int = 200,
) -> list:
    """Run every policy of the scenario and certify each realized gain.

    Gains on zero-disturbance runs are reported as nan rather than raising,
    so batch sweeps stay total. Errors carry the scenario seed.
    """
    try:
        if params is None:
            params = scenario_params(sc, sample_budget=sample_budget)
        sigma1 = _row_sigma_start(sc)
        rows = []
        for name, M in sc.policies:
            sched = sc.policy_schedule(M)
            res = run_policy(sc.sys, sc.costs, sc.w_full, sc.x1, sched,
                             cfg=solver_cfg)
            cert = certify(res, params, sched, sigma_x1=sigma1)
            rows.append(ReportRow(
                seed=sc.seed, cost_kind=sc.cost_kind, policy=name,
                n=sc.sys.n, m=sc.sys.m, T=sc.T, N=sc.N, M=M,
                J=res.J, energy=cert.energy, gain=cert.gain,
                beta=params.beta, gamma_bar_sq=params.gamma_bar_sq,
                certified=params.certified, omega_op=cert.omega,
                bound=cert.bound, satisfied=cert.satisfied,
                truncated_tail=sched.truncated_tail,
            ))
        return rows
    except (ValueError, RuntimeError) as exc:
        raise RuntimeError(
            f"scenario seed={sc.seed} cost={sc.cost_kind} N={sc.N}: {exc}"
        ) from exc


def worker_count() -> int:
    """Worker cap from PRHC_THREADS; 0 or unset means one per CPU."""
    raw = os.environ.get("PRHC_THREADS", "0").strip()
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"PRHC_THREADS must be an integer, got {raw!r}")
    if cap < 0:
        raise ValueError(f"PRHC_THREADS must be nonnegative, got {cap}")
    return cap if cap > 0 else (os.cpu_count() or 1)


def run_table1(
    iters: int = 10,
    N_list: tuple = (6, 9),
    config: ScenarioConfig | None = None,
    solver_cfg: SolverConfig | None = None,
    sample_budget: int = 200,
    cost_kinds: tuple = COST_KINDS,
) -> ExperimentReport:
    """Full comparison protocol: every cost kind x preview length x seed,
    both policies each. Scenarios run in parallel workers; row order is
    independent of scheduling."""
    if iters < 1:
        raise ValueError(f"iters must be at least 1, got {iters}")
    base = config or ScenarioConfig()
    tasks = []
    for kind in cost_kinds:
        for N in N_list:
            cfg = dataclasses.replace(base, cost_kind=kind, N=int(N))
            for seed in range(iters):
                tasks.append((seed, cfg))

    def job(task):
        seed, cfg = task
        return run_comparison(gen_scenario(seed, cfg), solver_cfg=solver_cfg,
                              sample_budget=sample_budget)

    workers = min(worker_count(), len(tasks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(job, tasks))
    else:
        chunks = [job(t) for t in tasks]

    report = ExperimentReport(
        config={
            "command": "table1",
            "iters": iters,
            "N_list": [int(N) for N in N_list],
            "cost_kinds": list(cost_kinds),
            "scenario": base.as_dict(),
            "sample_budget": sample_budget,
        },
    )
    for chunk in chunks:
        report.rows.extend(chunk)
    report.rows = report.sorted_rows()
    return report


def aggregate_report(report: ExperimentReport) -> list:
    """Per (cost_kind, policy, N) cell: gain = mean J over mean energy."""
    groups: dict = {}
    for row in report.rows:
        groups.setdefault((row.cost_kind, row.policy, row.N), []).append(row)
    cells = []
    for key in sorted(groups):
        rows = groups[key]
        mean_J = float(np.mean([r.J for r in rows]))
        mean_E = float(np.mean([r.energy for r in rows]))
        gain = mean_J / mean_E if mean_E > 0 else float("nan")
        cells.append(AggregateCell(
            cost_kind=key[0], policy=key[1], N=key[2],
            count=len(rows), mean_J=mean_J, mean_energy=mean_E, gain=gain,
        ))
    return cells


def _grid_scan(sc: Scenario, axes: list) -> tuple:
    """First minimum of the total cost over the cross product of per-dim axes.

    The scan runs stage by stage, depth first: each stage extends a block of
    input prefixes (their states and summed costs) by every input of the
    stage's own axes, so a prefix is costed once however many completions it
    has. Blocks hold at most EVAL_CHUNK (prefix, input) pairs and are visited
    in the grid's lexicographic order, so ties keep the first grid point.
    Returns (J, u) with u the flat point of length T*m.
    """
    T, m, n = sc.T, sc.sys.m, sc.sys.n
    A_T = sc.sys.A.T
    w = sc.w_full.w
    costs = sc.costs
    inputs = [np.stack(np.meshgrid(*axes[t * m:(t + 1) * m], indexing="ij"),
                       axis=-1).reshape(-1, m) for t in range(T)]
    lifts = [u @ sc.sys.B.T for u in inputs[:-1]]

    def scan(t, x, c):
        # (value, prefix row, input index per stage from t on); NaN ends the scan
        u = inputs[t]
        K = len(u)
        last = t == T - 1
        rows = max(1, EVAL_CHUNK // K)
        cols = min(K, EVAL_CHUNK)
        best = (math.inf, -1, None)
        for r0 in range(0, len(c), rows):
            xb = x[r0:r0 + rows]
            cb = c[r0:r0 + rows]
            if not last:
                xA = (xb @ A_T)[:, None, :]
            for k0 in range(0, K, cols):
                ub = u[k0:k0 + cols]
                vals = np.broadcast_to(
                    cb[:, None] + costs.eval(t, xb[:, None, :], ub[None, :, :]),
                    (len(cb), len(ub)))
                if last:
                    flat = int(np.argmin(vals))
                    val, path = float(vals.flat[flat]), []
                else:
                    x_next = xA + lifts[t][None, k0:k0 + cols, :] + w[t]
                    val, flat, path = scan(t + 1, x_next.reshape(-1, n),
                                           vals.reshape(-1))
                if not val >= best[0]:  # strictly smaller, or NaN
                    row, col = divmod(flat, len(ub))
                    best = (val, r0 + row, [k0 + col] + path)
                    if math.isnan(val):
                        return best
        return best

    val, _row, path = scan(0, np.asarray(sc.x1, dtype=float).reshape(1, n),
                           np.zeros(1))
    if path is None:
        raise ValueError(
            f"no finite cost on the grid of {math.prod(len(a) for a in axes)} "
            f"points: every total cost is inf"
        )
    point = np.concatenate([inputs[t][k] for t, k in enumerate(path)])
    if math.isnan(val):
        raise ValueError(
            f"cost is NaN at stage {_first_nan_stage(sc, point)} of grid point "
            f"u={point.tolist()}"
        )
    return val, point


def _first_nan_stage(sc: Scenario, point: np.ndarray) -> int:
    """First stage whose cost is NaN along the open-loop input table `point`."""
    traj = rollout(sc.sys, sc.x1, point.reshape(sc.T, sc.sys.m), sc.w_full)
    for t in range(sc.T):
        if np.isnan(sc.costs.eval(t, traj.states[t], traj.inputs[t])):
            return t
    return sc.T - 1


def brute_force_oracle(sc: Scenario, grid_res: float, u_box: float) -> tuple:
    """Grid minimum of the total cost over open-loop inputs in [-u_box, u_box].

    Exhaustive sweep whenever the full grid fits the point budget. Beyond
    that the sweep refines coarse-to-fine, which is sound only for convex
    stage costs (convexity bounds how far the continuous minimizer can sit
    from the best grid point, so a shrinking box never loses it); non-convex
    models past the budget are rejected. Returns (J*, u*) with u* of shape
    (T, m) and effective spacing <= grid_res. A NaN stage cost anywhere on a
    scanned grid, or a grid with no finite total cost, raises ValueError.
    """
    if grid_res <= 0:
        raise ValueError(f"grid_res must be positive, got {grid_res}")
    if u_box <= 0:
        raise ValueError(f"u_box must be positive, got {u_box}")
    d = sc.T * sc.sys.m
    per = int(math.ceil(2.0 * u_box / grid_res)) + 1
    if per**d <= GRID_BUDGET:
        axis = np.linspace(-u_box, u_box, per)
        val, flat = _grid_scan(sc, [axis] * d)
        return val, flat.reshape(sc.T, sc.sys.m)

    if not sc.costs.convex:
        raise ValueError(
            f"grid budget exceeded: {per}^{d} points for a non-convex cost; "
            f"the exhaustive sweep is capped at {GRID_BUDGET:.0e} points"
        )
    if REFINE_POINTS**d > GRID_BUDGET:
        raise ValueError(
            f"grid budget exceeded: one {REFINE_POINTS}-points-per-axis "
            f"refinement level already needs {REFINE_POINTS}^{d} points"
        )
    center = np.zeros(d)
    half = float(u_box)
    best_val = math.inf
    best_pt = center.copy()
    while True:
        axes = []
        spacing = 0.0
        for j in range(d):
            lo = max(-u_box, center[j] - half)
            hi = min(u_box, center[j] + half)
            axes.append(np.linspace(lo, hi, REFINE_POINTS))
            spacing = max(spacing, (hi - lo) / (REFINE_POINTS - 1))
        val, pt = _grid_scan(sc, axes)
        if val < best_val:
            best_val, best_pt = val, pt
        if spacing <= grid_res:
            return best_val, best_pt.reshape(sc.T, sc.sys.m)
        center = best_pt
        half = REFINE_SAFETY * spacing


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(float(value))  # plain-float repr round-trips exactly
    return str(value)


def _row_dict(row: ReportRow) -> dict:
    return {f.name: getattr(row, f.name) for f in dataclasses.fields(ReportRow)}


def emit_report(report: ExperimentReport, format: str, path) -> None:
    """Write the report; rows come out sorted so repeat runs match byte-for-byte."""
    rows = report.sorted_rows()
    if format == "csv":
        lines = [CSV_HEADER]
        for row in rows:
            lines.append(",".join(_fmt(getattr(row, name))
                                  for name in CSV_HEADER.split(",")))
        payload = "\n".join(lines) + "\n"
    elif format == "json":
        doc = {"config": report.config, "rows": [_row_dict(r) for r in rows]}
        payload = json.dumps(doc, indent=2) + "\n"
    else:
        raise ValueError(f"format must be csv or json, got {format!r}")
    if hasattr(path, "write"):
        path.write(payload)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)


_BOOL_FIELDS = {"certified", "satisfied", "truncated_tail"}
_INT_FIELDS = {"seed", "n", "m", "T", "N", "M"}
_STR_FIELDS = {"cost_kind", "policy"}


def _parse_cell(name: str, text: str):
    if name in _STR_FIELDS:
        return text
    if name in _BOOL_FIELDS:
        if text not in ("true", "false"):
            raise ValueError(f"column {name} expects true/false, got {text!r}")
        return text == "true"
    if name in _INT_FIELDS:
        return int(text)
    return float(text)


def load_report(path) -> ExperimentReport:
    """Read back a CSV or JSON report (sniffed from the leading byte)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = json.loads(text)
        rows = [ReportRow(**{k: (bool(v) if k in _BOOL_FIELDS else v)
                             for k, v in entry.items()})
                for entry in doc.get("rows", [])]
        return ExperimentReport(config=doc.get("config", {}), rows=rows)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized report: bad CSV header")
    names = CSV_HEADER.split(",")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(names):
            raise ValueError(f"malformed CSV row: {ln!r}")
        rows.append(ReportRow(**{n: _parse_cell(n, c) for n, c in zip(names, cells)}))
    return ExperimentReport(config={}, rows=rows)
