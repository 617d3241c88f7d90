"""Per-layer tracing for the benchmark, installed from the benchmark's own files.

The tracer replaces public `prhc` functions at every module attribute that
names them, so a caller's lookup (`_solver.solve`, a `from .linsys import
rollout` binding, `harness.run_comparison`) reaches a wrapper that records a
span: name, start, end, parent span, task id and self time. The stage-cost
methods `eval` and `gradient` are only counted; a span per stage cost would
cost more than the work it measures. Everything stays in memory and is
turned into metrics after the run. `uninstall` restores every original.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

import prhc
from prhc.costs import NonConvexCost, QuadraticCost, SetDistanceCost

# layer module -> public functions that get spans
SPANNED = {
    "linsys": ("stack_dynamics", "rollout"),
    "costs": ("estimate_params", "estimate_gamma_alpha_upper",
              "quadratic_value_form", "total_cost"),
    "solver": ("solve", "solve_general", "solve_quadratic"),
    "policy": ("run_policy",),
    "bounds": ("certify", "recursion_audit"),
    "harness": ("gen_scenario", "scenario_params", "run_comparison",
                "brute_force_oracle", "emit_report"),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in SPANNED.items() for fn in fns)
COST_CLASSES = (QuadraticCost, NonConvexCost, SetDistanceCost)
ENVELOPE = "costs.estimate_gamma_alpha_upper"
LATENCY_SPANS = ("solver.solve_general", "harness.run_comparison")
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10  # a tail percentile needs this many samples above it

# deterministic counts reported beside the per-function spans
COUNT_NAMES = (
    "costs.eval.calls", "costs.eval.rows", "costs.gradient.calls",
    "costs.envelope_solves", "solver.iterations", "solver.windows",
    "solver.unconverged", "policy.windows",
    "linsys.stack_dynamics.bytes_computed",
)


class Phase:
    """Spans and counts of one traced stretch (set-up, or one timed pass)."""

    def __init__(self, label: str):
        self.label = label
        self.spans: list = []   # (name, t0, t1, parent index, task, self_s)
        self.counts: Counter = Counter()
        self.wall = 0.0

    def span_counts(self) -> dict:
        """Every deterministic count of the phase, spans included."""
        out = {name: 0 for name in COUNT_NAMES}
        out.update(self.counts)
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
        for span in self.spans:
            out[f"{span[0]}.calls"] += 1
        return out

    def times(self) -> dict:
        """Summed duration and self time per spanned function."""
        total = defaultdict(float)
        own = defaultdict(float)
        for name, t0, t1, _parent, _task, self_s in self.spans:
            total[name] += t1 - t0
            own[name] += self_s
        return {name: (total[name], own[name]) for name in SPAN_NAMES}

    def root_time(self) -> float:
        return sum(t1 - t0 for _n, t0, t1, parent, _t, _s in self.spans if parent < 0)

    def self_time(self) -> float:
        return sum(span[5] for span in self.spans)

    def durations(self, name: str) -> list:
        return [t1 - t0 for n, t0, t1, _p, _t, _s in self.spans if n == name]


class Tracer:
    """Wraps the spanned functions and cost methods while installed."""

    def __init__(self):
        self.phases: list = []
        self.task = None
        self._phase: Phase | None = None
        self._stack: list = []          # [span index, child time] per open span
        self._envelope_depth = 0
        self._patches: list = []        # (owner, attribute, original)

    # -- recording -------------------------------------------------------
    def begin(self, label: str) -> Phase:
        self._phase = Phase(label)
        self.phases.append(self._phase)
        return self._phase

    def _on_result(self, name: str, result) -> None:
        counts = self._phase.counts
        if name in ("solver.solve_general", "solver.solve_quadratic"):
            counts["solver.windows"] += 1
            counts["solver.iterations"] += int(result.iterations)
            counts["solver.unconverged"] += not result.converged
            if name == "solver.solve_general" and self._envelope_depth:
                counts["costs.envelope_solves"] += 1
        elif name == "policy.run_policy":
            counts["policy.windows"] += len(result.interval_solutions)
        elif name == "linsys.stack_dynamics":
            counts["linsys.stack_dynamics.bytes_computed"] += (
                result.F.nbytes + result.G.nbytes + result.H.nbytes)

    def _span(self, name: str, fn):
        envelope = name == ENVELOPE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = self._phase
            stack = self._stack
            parent = stack[-1][0] if stack else -1
            index = len(phase.spans)
            phase.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            self._envelope_depth += envelope
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self._envelope_depth -= envelope
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                phase.spans[index] = (name, t0, t1, parent, self.task,
                                      duration - frame[1])
            self._on_result(name, result)
            return result

        return wrapper

    def _counted_eval(self, fn):
        @functools.wraps(fn)
        def wrapper(model, t, x, u):
            counts = self._phase.counts
            counts["costs.eval.calls"] += 1
            shape = getattr(x, "shape", None) or (len(x),)
            counts["costs.eval.rows"] += math.prod(shape[:-1])
            return fn(model, t, x, u)

        return wrapper

    def _counted_gradient(self, fn):
        @functools.wraps(fn)
        def wrapper(model, t, x, u):
            self._phase.counts["costs.gradient.calls"] += 1
            return fn(model, t, x, u)

        return wrapper

    # -- installation ----------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if (key == "prhc" or key.startswith("prhc.")) and m is not None]
        for layer, fns in SPANNED.items():
            home = getattr(prhc, layer)
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapped = self._span(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapped)
        for cls in COST_CLASSES:
            self._patch(cls, "eval", self._counted_eval(cls.eval))
            self._patch(cls, "gradient", self._counted_gradient(cls.gradient))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def tail(samples: list) -> tuple:
    """(p50, tail value, tail percentile) of durations in seconds.

    The tail is the highest ladder percentile with at least TAIL_MIN_BEYOND
    samples above it; with too few samples for any, it is the maximum and
    its percentile reads 100.
    """
    if not samples:
        return 0.0, 0.0, 0.0
    ordered = sorted(samples)
    n = len(ordered)

    def pct(p):
        pos = (n - 1) * p / 100.0
        lo = math.floor(pos)
        hi = min(lo + 1, n - 1)
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

    usable = [p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND]
    level = usable[-1] if usable else 100.0
    return pct(50.0), pct(level), level
