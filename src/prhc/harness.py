"""Seeded scenario generation, policy comparison experiments, a brute-force
grid oracle, and report emission (CSV/JSON).

Scenarios draw a random system and cost family, run the overlap policy next
to standard receding horizon on the same disturbances, certify the realized
gains where the bound applies, and collect everything into flat report rows
whose layout and bytes are stable across repeat runs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import typing
from dataclasses import dataclass, field

import numpy as np

from .bounds import certify
from .costs import (
    W_HIGH,
    W_LOW,
    CostModel,
    EnvelopeParams,
    NonConvexCost,
    QuadraticCost,
    SeparableCost,
    SetDistanceCost,
    estimate_params,
    sigma_eval,
)
from .linsys import DisturbanceSequence, LinearSystem, _propagate
from .policy import build_schedule, run_policy

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

GRID_BUDGET = 10**8          # max points an exhaustive grid sweep may enumerate
REFINE_POINTS = 33           # grid points per axis on each refinement level
REFINE_SAFETY = 8            # kept box half-width, in units of current spacing
EVAL_CHUNK = 1 << 16         # (prefix, input) pairs per scan block; sized to stay in L2

# the fixed experiment family (see ScenarioConfig)
A_LOW = 0.0
Q_LOW, Q_HIGH = 1.0, 3.0
WELL_OFFSET = 0.2
WEIGHT_FLOOR = 0.05
CENTER_COORD = 0.5
RADIUS = 0.25


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs that, together with a seed, fully determine a scenario.

    The rest of the experiment family is fixed by module constants: A
    entries uniform on [A_LOW, a_high] = [0, 1] by default, disturbance
    components uniform on [costs.W_LOW, costs.W_HIGH] = [0, 1], quadratic
    cost diagonals uniform on [Q_LOW, Q_HIGH] = [1, 3], cubic-well offset
    WELL_OFFSET = 0.2, and a target ball of radius RADIUS = 0.25 centered
    at coordinate CENTER_COORD = 0.5, with weights redrawn until all are at
    least WEIGHT_FLOOR = 0.05.
    """

    cost_kind: str = "quadratic"
    n: int = 2
    m: int = 1
    T: int = 15
    N: int = 6
    a_high: float = 1.0

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
        if not (math.isfinite(self.a_high) and self.a_high >= A_LOW):
            raise ValueError(f"A entry range [{A_LOW}, {self.a_high}] is invalid")

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


def default_policies(N: int) -> tuple:
    return (("overlap", max(1, N // 2)), ("standard", max(1, N - 1)))


def gen_scenario(seed: int, config: ScenarioConfig | None = None) -> Scenario:
    """Draw a scenario reproducibly from (seed, config).

    Draw order is part of the contract: A entries first, then the
    disturbance table, then cost parameters. The set-distance weights are
    re-drawn as a whole vector until their minimum clears the floor.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    cfg = config or ScenarioConfig()
    rng = np.random.default_rng(seed)
    n, m, T = cfg.n, cfg.m, cfg.T
    A = rng.uniform(A_LOW, cfg.a_high, (n, n))
    B = np.ones((n, m))
    sys = LinearSystem(A=A, B=B)
    w_full = DisturbanceSequence(rng.uniform(W_LOW, W_HIGH, (T, n)))

    if cfg.cost_kind == "quadratic":
        q = rng.uniform(Q_LOW, Q_HIGH, (T, n))
        r = rng.uniform(Q_LOW, Q_HIGH, (T, m))
        Q_seq = np.stack([np.diag(q[t]) for t in range(T)])
        R_seq = np.stack([np.diag(r[t]) for t in range(T)])
        costs: CostModel = QuadraticCost(Q_seq, R_seq)
    elif cfg.cost_kind == "nonconvex":
        costs = NonConvexCost(b=WELL_OFFSET)
    else:
        a_seq = rng.uniform(0.0, 1.0, T)
        while a_seq.min() < WEIGHT_FLOOR:
            a_seq = rng.uniform(0.0, 1.0, T)
        costs = SetDistanceCost(
            a_seq=a_seq, center=np.full(n, CENTER_COORD), radius=RADIUS
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


def scenario_params(sc: Scenario) -> EnvelopeParams | None:
    """Envelope constants of a quadratic scenario, computed exactly; None for
    any other, whose window values have no finite envelope (V_t(x*, 0) > 0
    at a state x* with sigma(x*) = 0)."""
    if not isinstance(sc.costs, QuadraticCost):
        return None
    return estimate_params(sc.sys, sc.costs, sc.N)


@dataclass(frozen=True)
class ReportRow:
    """One (scenario, policy) outcome: the report schema. Its fields, in
    order, are the CSV columns and the JSON row keys, and each field's type
    (bool, int, float or str) is its column's kind."""

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
        return tuple(_fmt(getattr(self, name)) for name in _COLUMNS)

    # rows are equal when their serialized forms match, so nan fields
    # (undefined gains, inapplicable bounds) do not break round-trips
    def __eq__(self, other) -> bool:
        if not isinstance(other, ReportRow):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def _columns(row_type) -> dict:
    """Column -> kind, in field order; get_type_hints resolves the
    annotations whether or not they are postponed."""
    hints = typing.get_type_hints(row_type)
    return {f.name: hints[f.name] for f in dataclasses.fields(row_type)}


_COLUMNS = _columns(ReportRow)
CSV_HEADER = ",".join(_COLUMNS)


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


def run_comparison(sc: Scenario, params: EnvelopeParams | None = None,
                   sample_budget=None) -> list:
    """Run every policy of the scenario and certify each realized gain.

    Without params the constants come from scenario_params. A scenario with
    no envelope reports beta 0 (alpha_hi infinite), gamma_bar_sq inf,
    certified false and an infinite bound. `sample_budget` has no effect;
    it is accepted because the benchmark's table1 workload passes it. Gains
    on zero-disturbance runs are reported as nan rather than raising, so
    batch sweeps stay total. Errors carry the scenario seed.
    """
    try:
        if params is None:
            params = scenario_params(sc)
        beta, gamma_sq, certified = (
            (0.0, math.inf, False) if params is None
            else (params.beta, params.gamma_bar_sq, params.certified))
        sigma1 = sigma_eval(sc.costs, sc.x1)
        rows = []
        for name, M in sc.policies:
            sched = build_schedule(sc.N, M, sc.T)
            res = run_policy(sc.sys, sc.costs, sc.w_full, sc.x1, sched)
            cert = certify(res, params, sched, sigma_x1=sigma1)
            rows.append(ReportRow(
                seed=sc.seed, cost_kind=sc.cost_kind, policy=name,
                n=sc.sys.n, m=sc.sys.m, T=sc.T, N=sc.N, M=M,
                J=res.J, energy=cert.energy, gain=cert.gain,
                beta=beta, gamma_bar_sq=gamma_sq, certified=certified,
                omega_op=cert.omega,
                bound=cert.bound, satisfied=cert.satisfied,
                truncated_tail=sched.truncated_tail,
            ))
        return rows
    except (ValueError, RuntimeError) as exc:
        raise RuntimeError(
            f"scenario seed={sc.seed} cost={sc.cost_kind} N={sc.N}: {exc}"
        ) from exc


def worker_count() -> int:
    """Worker cap from PRHC_THREADS; 0 or unset means one per CPU.

    Unused by prhc, whose run_table1 is serial; the benchmark's run record
    reports it, so it stays until that record drops it.
    """
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
    cost_kinds: tuple = COST_KINDS,
) -> ExperimentReport:
    """Full comparison protocol: every cost kind x preview length x seed,
    both policies each. Scenarios run one after another (a thread pool was
    measured no faster than one thread), and the rows come out sorted."""
    if iters < 1:
        raise ValueError(f"iters must be at least 1, got {iters}")
    if not N_list or len(set(N_list)) < len(N_list):
        raise ValueError(f"N_list must be nonempty without repeats, got {list(N_list)}")
    base = config or ScenarioConfig()
    report = ExperimentReport(
        config={
            "command": "table1",
            "iters": iters,
            "N_list": [int(N) for N in N_list],
            "cost_kinds": list(cost_kinds),
            "scenario": base.as_dict(),
        },
    )
    for kind in cost_kinds:
        for N in N_list:
            cfg = dataclasses.replace(base, cost_kind=kind, N=int(N))
            for seed in range(iters):
                report.rows.extend(run_comparison(gen_scenario(seed, cfg)))
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
    Each stage writes its blocks' summed costs and next states into one pair
    of buffers, allocated per call and reused block after block, which hold
    at most (1 + n) * EVAL_CHUNK doubles.

    The last stage's next state is never costed, so for a SeparableCost a
    block there costs its rows plus its inputs, not every pair (see
    _separable_min); that is exact because round-to-nearest addition is
    monotone. When the stage's inputs fit one column block and their input
    terms are all finite, its rows go in tall blocks of EVAL_CHUNK // 8
    rows, rounded down to whole pair blocks: their temporaries, a few
    doubles per row and state coordinate, stay within a pair block's
    (1 + n) * EVAL_CHUNK doubles. A tall block with a non-finite value at
    the input terms' first argmin is scanned in full in its pair blocks, in
    order, so NaN errors, inf handling and ties are the full scan's. A last
    stage with several column blocks (more than EVAL_CHUNK inputs), and
    models that define only eval, get the full scan, which is the
    reference: the shortcut returns the same (J, u) bits.
    Returns (J, u) with u the flat point of length T*m.
    """
    T, m, n = sc.T, sc.sys.m, sc.sys.n
    A_T = sc.sys.A.T
    w = sc.w_full.w
    costs = sc.costs
    # warnings off: an overflow ends in an inf total or a NaN, each named
    # below, in every warning mode
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        inputs = [np.stack(np.meshgrid(*axes[t * m:(t + 1) * m], indexing="ij"),
                           axis=-1).reshape(-1, m) for t in range(T)]
        lifts = [u @ sc.sys.B.T for u in inputs[:-1]]
        # per stage: (prefix rows, inputs) of a block, and buffers for its largest
        # block; a stage's prefixes are at most one block of the stage before
        blocks = [(max(1, EVAL_CHUNK // len(u)), min(len(u), EVAL_CHUNK)) for u in inputs]
        vals_buf = []
        size = 1
        for rows, cols in blocks:
            size = min(rows, size) * cols
            vals_buf.append(np.empty(size))
        x_buf = [np.empty((len(v), n)) for v in vals_buf[:-1]]
        # a separable model's last-stage input terms, with their first argmin,
        # where the inputs fit one column block and all their terms are finite;
        # tall is the last stage's tall row-block height, 0 where it keeps its
        # pair blocks
        g_last = None
        tall = 0
        u_last, (rows, cols) = inputs[-1], blocks[-1]
        if isinstance(costs, SeparableCost) and cols == len(u_last):
            g = costs.input_cost(T - 1, u_last[None])[0]
            if np.isfinite(g).all():
                g_last = (g, int(np.argmin(g)))
                tall = max(1, EVAL_CHUNK // 8 // rows) * rows

        def scan(t, x, c):
            # (value, prefix row, input index per stage from t on); NaN ends the scan
            u = inputs[t]
            last = t == T - 1
            rows, cols = blocks[t]
            best = (math.inf, -1, None)
            r0 = 0
            while r0 < len(c):
                if last and tall and r0 % tall == 0:
                    found = _separable_min(costs, t, x[r0:r0 + tall], c[r0:r0 + tall],
                                           *g_last)
                    if found is not None:
                        val, flat = found
                        if val < best[0]:
                            row, col = divmod(flat, len(u))
                            best = (val, r0 + row, [col])
                        r0 += tall
                        continue
                xb = x[r0:r0 + rows]
                cb = c[r0:r0 + rows]
                if not last:
                    xA = (xb @ A_T)[:, None, :]
                for k0 in range(0, len(u), cols):
                    ub = u[k0:k0 + cols]
                    pairs = len(cb) * len(ub)
                    vals = vals_buf[t][:pairs].reshape(len(cb), len(ub))
                    np.add(cb[:, None], costs.eval(t, xb[:, None, :], ub[None, :, :]),
                           out=vals)
                    if last:
                        flat = int(np.argmin(vals))
                        val, path = float(vals.flat[flat]), []
                    else:
                        x_next = x_buf[t][:pairs].reshape(len(cb), len(ub), n)
                        np.add(xA, lifts[t][None, k0:k0 + cols, :], out=x_next)
                        x_next += w[t]
                        val, flat, path = scan(t + 1, x_next.reshape(-1, n),
                                               vals.reshape(-1))
                    if not val >= best[0]:  # strictly smaller, or NaN
                        row, col = divmod(flat, len(ub))
                        best = (val, r0 + row, [k0 + col] + path)
                        if math.isnan(val):
                            return best
                r0 += rows
            return best

        try:
            val, _row, path = scan(0, np.asarray(sc.x1, dtype=float).reshape(1, n),
                                   np.zeros(1))
        finally:
            scan = None  # scan refers to itself; free its buffers without the cyclic GC
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


def _separable_min(costs: SeparableCost, t: int, xb, cb, g, k_star: int):
    """(value, flat index) of the first row-major minimum of the block
    cb[:, None] + costs.eval(t, xb[:, None, :], u[None]), where g holds the
    input terms over u, all finite, and k_star is their first argmin; None
    unless every row's value at k_star is finite.

    A value is cb_r + (f_r + g_k) for the state term f_r. Round-to-nearest
    addition is monotone, so each row is smallest at k_star, and no row
    before the first one whose value there is the block minimum reaches it.
    That one row is costed in full for its first argmin, which may lie
    before k_star where rounding ties it. Finite values leave no NaN that
    could end the scan, so the result is the full block's, bit for bit.
    """
    f = costs.state_cost(t, xb[:, None, :])[:, 0]
    at_k = cb + (f + g[k_star])
    if not np.isfinite(at_k).all():
        return None
    r = int(at_k.argmin())
    row = cb[r] + (f[r] + g)
    col = int(row.argmin())
    return float(row[col]), r * len(g) + col


def _first_nan_stage(sc: Scenario, point: np.ndarray) -> int:
    """First stage whose cost, read unchecked from eval, is NaN along `point`."""
    u = point.reshape(sc.T, sc.sys.m)
    xs = _propagate(sc.sys, sc.x1, u, sc.w_full.w)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        stage = sc.costs.eval(np.arange(sc.T), xs[:-1], u)
    nan = np.flatnonzero(np.isnan(stage))
    return int(nan[0]) if nan.size else sc.T - 1


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
    if not 0 < grid_res < math.inf:
        raise ValueError(f"grid_res must be positive and finite, got {grid_res}")
    if not 0 < u_box < math.inf:
        raise ValueError(f"u_box must be positive and finite, got {u_box}")
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
    return {name: getattr(row, name) for name in _COLUMNS}


def emit_report(report: ExperimentReport, format: str, path) -> None:
    """Write the report; rows come out sorted so repeat runs match byte-for-byte."""
    rows = report.sorted_rows()
    if format == "csv":
        lines = [CSV_HEADER]
        for row in rows:
            lines.append(",".join(_fmt(getattr(row, name)) for name in _COLUMNS))
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


def _parse_cell(i: int, name: str, text: str):
    """Cell of data row i of a CSV report, read as its column's kind."""
    kind = _COLUMNS[name]
    try:
        if kind is not bool:
            return kind(text)
        if text in ("true", "false"):
            return text == "true"
    except ValueError:
        pass
    expects = "true/false" if kind is bool else kind.__name__
    raise ValueError(f"CSV row {i}: column {name} expects {expects}, got {text!r}")


def _json_row(i: int, entry) -> ReportRow:
    """Row i of a JSON report: exactly the ReportRow keys, each of its JSON type."""
    if not isinstance(entry, dict):
        raise ValueError(f"JSON row {i} is not an object")
    missing = [n for n in _COLUMNS if n not in entry]
    extra = [k for k in entry if k not in _COLUMNS]
    if missing or extra:
        raise ValueError(f"JSON row {i}: missing keys {missing}, unknown keys {extra}")
    cells = {}
    for name, kind in _COLUMNS.items():
        value = entry[name]
        # a float column takes any JSON number; only a bool column takes a bool
        ok = (isinstance(value, (int, float) if kind is float else kind)
              and (kind is bool or not isinstance(value, bool)))
        if not ok:
            raise ValueError(f"JSON row {i}: key {name} has the wrong type: {value!r}")
        cells[name] = float(value) if kind is float else value
    return ReportRow(**cells)


def _json_config(doc: dict) -> dict:
    """A JSON report's config, an object kept as written: older reports'
    keys, such as sample_budget, load unchecked."""
    config = doc.get("config", {})
    if not isinstance(config, dict):
        raise ValueError(f"JSON config is not an object: {config!r}")
    return config


def load_report(path) -> ExperimentReport:
    """Read back a CSV or JSON report (sniffed from the leading byte)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = json.loads(text)
        config = _json_config(doc)
        entries = doc.get("rows", [])
        if not isinstance(entries, list):
            raise ValueError(f"JSON rows is not an array: {entries!r}")
        rows = [_json_row(i, entry) for i, entry in enumerate(entries)]
        return ExperimentReport(config=config, rows=rows)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized report: bad CSV header")
    rows = []
    for i, ln in enumerate(lines[1:]):
        cells = ln.split(",")
        if len(cells) != len(_COLUMNS):
            raise ValueError(f"malformed CSV row: {ln!r}")
        rows.append(ReportRow(**{n: _parse_cell(i, n, c) for n, c in zip(_COLUMNS, cells)}))
    return ExperimentReport(config={}, rows=rows)
