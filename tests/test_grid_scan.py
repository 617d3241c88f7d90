"""The stage-by-stage grid scan against plain enumeration, and its separable
last stage against the full scan of the same model through eval alone."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from prhc import harness  # noqa: E402
from prhc.costs import CostModel, SeparableCost, total_cost  # noqa: E402
from prhc.harness import COST_KINDS, ScenarioConfig, gen_scenario  # noqa: E402
from prhc.linsys import LinearSystem, rollout  # noqa: E402

MAX_POINTS = 800   # keeps the reference enumeration quick


class EvalOnly(CostModel):
    """A model's eval and nothing else: not a SeparableCost, so the scan
    costs every pair of the last stage. The full scan is the reference."""

    def __init__(self, inner):
        self.inner = inner
        self.convex = inner.convex
        self.length = inner.length

    def eval(self, t, x, u):
        return self.inner.eval(t, x, u)

    def sigma(self, x):
        return self.inner.sigma(x)


def full_scan(sc, axes):
    return harness._grid_scan(dataclasses.replace(sc, costs=EvalOnly(sc.costs)), axes)


def bits(J, u) -> tuple:
    return np.float64(J).tobytes(), u.tobytes()


def enumerated_cost(sc, point) -> float:
    u = np.asarray(point, dtype=float).reshape(sc.T, sc.sys.m)
    return total_cost(rollout(sc.sys, sc.x1, u, sc.w_full), sc.costs)


@st.composite
def instances(draw):
    kind = draw(st.sampled_from(COST_KINDS))
    n = 2 if kind == "nonconvex" else draw(st.sampled_from([1, 2]))
    m = draw(st.sampled_from([1, 2]))
    T = draw(st.sampled_from([1, 2, 3]))
    seed = draw(st.integers(0, 2**16))
    axes = []
    budget = MAX_POINTS
    for _ in range(T * m):
        top = max(2, min(6, budget // 2 ** (T * m - len(axes) - 1)))
        size = draw(st.integers(2, top))
        budget //= size
        if draw(st.booleans()):
            values = draw(st.lists(st.floats(-2.0, 2.0), min_size=size,
                                   max_size=size, unique=True))
        else:
            # mirrored values +-a, whose input terms tie under the shipped models
            mags = draw(st.lists(st.floats(0.01, 2.0), min_size=(size + 1) // 2,
                                 max_size=(size + 1) // 2, unique=True))
            values = draw(st.permutations([s * a for a in mags for s in (1.0, -1.0)]))
            values = values[:size]
        axes.append(np.array(values))
    chunk = draw(st.sampled_from([None, 1, 5, 64]))
    sc = gen_scenario(seed, ScenarioConfig(cost_kind=kind, n=n, m=m, T=T, N=T))
    # the family's B is all ones, which hides any mix-up of input columns
    B = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, m))
    sc = dataclasses.replace(sc, sys=LinearSystem(A=sc.sys.A, B=B))
    return sc, axes, chunk


@settings(derandomize=True, deadline=None, max_examples=60)
@given(instances())
def test_scan_matches_enumeration(instance):
    sc, axes, chunk = instance
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(harness, "EVAL_CHUNK", chunk)
        J, u = harness._grid_scan(sc, axes)
        J_full, u_full = full_scan(sc, axes)
    # the separable last stage returns the full scan's minimum, bit for bit
    assert isinstance(sc.costs, SeparableCost)
    assert bits(J, u) == bits(J_full, u_full)
    J_ref = min(enumerated_cost(sc, p) for p in itertools.product(*axes))
    assert math.isclose(J, J_ref, rel_tol=1e-12)
    assert u.shape == (len(axes),)
    assert all(u[j] in axes[j] for j in range(len(axes)))
    assert math.isclose(enumerated_cost(sc, u), J_ref, rel_tol=1e-12)


class PoisonedTerms(SeparableCost):
    """Unit quadratic terms. At stage `stage`, the state term is `value` where
    x_0 > 1 (or everywhere, with region="all"), or the input term is `value`
    where u_0 < -1.5, as `term` says."""

    convex = True
    length = None

    def __init__(self, value, stage, term="state", region="some"):
        self.value, self.stage, self.term, self.region = value, stage, term, region

    def _poison(self, t, c, hit):
        hit = hit & (np.asarray(t) == self.stage)
        return np.where(hit, self.value, c)

    def state_cost(self, t, x):
        x = np.asarray(x, dtype=float)
        c = np.sum(x * x, axis=-1)
        if self.term != "state":
            return c
        return self._poison(t, c, x[..., 0] > 1.0 if self.region == "some" else True)

    def input_cost(self, t, u):
        u = np.asarray(u, dtype=float)
        c = np.sum(u * u, axis=-1)
        return self._poison(t, c, u[..., 0] < -1.5) if self.term == "input" else c

    def sigma(self, x):
        return np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)


def poisoned_scenario(costs):
    sc = gen_scenario(3, ScenarioConfig(n=1, m=1, T=3, N=3))
    return dataclasses.replace(sc, costs=costs), [np.linspace(-2.0, 2.0, 9)] * 3


@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize("term", ["state", "input"])
@pytest.mark.parametrize("stage", [1, 2])
def test_nan_parity_with_full_scan(stage, term, chunk):
    sc, axes = poisoned_scenario(PoisonedTerms(math.nan, stage, term))
    errors = []
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(harness, "EVAL_CHUNK", chunk)
        for scan in (harness._grid_scan, full_scan):
            with pytest.raises(ValueError, match=f"cost is NaN at stage {stage} ") as exc:
                scan(sc, axes)
            errors.append(str(exc.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize("term", ["state", "input"])
@pytest.mark.parametrize("stage", [1, 2])
def test_inf_parity_with_full_scan(stage, term, chunk):
    sc, axes = poisoned_scenario(PoisonedTerms(math.inf, stage, term))
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(harness, "EVAL_CHUNK", chunk)
        J, u = harness._grid_scan(sc, axes)
        J_full, u_full = full_scan(sc, axes)
    assert math.isfinite(J)
    assert bits(J, u) == bits(J_full, u_full)


@pytest.mark.parametrize("stage", [1, 2])
def test_all_inf_parity_with_full_scan(stage):
    sc, axes = poisoned_scenario(PoisonedTerms(math.inf, stage, region="all"))
    errors = []
    for scan in (harness._grid_scan, full_scan):
        with pytest.raises(ValueError, match="no finite cost on the grid") as exc:
            scan(sc, axes)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]


class HugeState(SeparableCost):
    """A state term of 2^60, whose ulp of 256 absorbs any input term below
    128: every input then ties in the sum, though not in the input term."""

    convex = True
    length = None

    def state_cost(self, t, x):
        return np.full(np.shape(x)[:-1], 2.0 ** 60)

    def input_cost(self, t, u):
        u = np.asarray(u, dtype=float)
        return np.sum(u * u, axis=-1)

    def sigma(self, x):
        return np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)


def test_rounding_tie_keeps_the_first_input():
    # the input terms' first argmin is u = 0, but the total ties from u = 2
    # on, so the first grid point is (2, 2)
    sc = dataclasses.replace(gen_scenario(0, ScenarioConfig(n=1, m=1, T=2, N=2)),
                             costs=HugeState())
    axes = [np.array([2.0, 1.0, 0.0])] * 2
    J, u = harness._grid_scan(sc, axes)
    J_full, u_full = full_scan(sc, axes)
    assert bits(J, u) == bits(J_full, u_full)
    assert u.tolist() == [2.0, 2.0]


class EnergyOnly(SeparableCost):
    """A zero state term and the input energy u'u: a grid point costs the
    sum of its inputs' squares, so inputs +-a tie exactly."""

    convex = True
    length = None

    def state_cost(self, t, x):
        return np.zeros(np.shape(x)[:-1])

    def input_cost(self, t, u):
        u = np.asarray(u, dtype=float)
        return np.sum(u * u, axis=-1)

    def sigma(self, x):
        return np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)


# With EVAL_CHUNK = 256, a T = 2 grid of 64 x 16 points reaches its last
# stage as one block of 64 prefix rows, which the separable last stage takes
# in tall blocks of 32 rows, two pair blocks of 16 rows each
TALL_CHUNK = 256


def tall_scenario(costs):
    """n = m = 1, T = 2 and A = 0, B = 1: the last stage's state is
    u_0 + w[0], and its prefix row r has the stage-0 input axes[0][r]."""
    sc = gen_scenario(3, ScenarioConfig(n=1, m=1, T=2, N=2))
    sys = LinearSystem(A=np.zeros((1, 1)), B=np.ones((1, 1)))
    return dataclasses.replace(sc, sys=sys, costs=costs)


@pytest.fixture
def tall_blocks(monkeypatch):
    """Patches EVAL_CHUNK to TALL_CHUNK and records the row count of every
    _separable_min call with whether it took its block."""
    monkeypatch.setattr(harness, "EVAL_CHUNK", TALL_CHUNK)
    calls = []
    real = harness._separable_min

    def recording(costs, t, xb, *args):
        found = real(costs, t, xb, *args)
        calls.append((len(xb), found is not None))
        return found

    monkeypatch.setattr(harness, "_separable_min", recording)
    return calls


@pytest.mark.parametrize("first", [15, 31, 47])  # pair, tall, pair block boundary
def test_tie_across_a_row_block_boundary_keeps_the_first_point(tall_blocks, first):
    # the smallest stage-0 input magnitude sits at rows first and first + 1,
    # the last row of one block and the first row of the next
    axis0 = np.linspace(0.5, 2.0, 64) * (-1.0) ** np.arange(64)
    axis0[first], axis0[first + 1] = -0.25, 0.25
    axes = [axis0, np.linspace(-2.0, 2.0, 16)]
    sc = tall_scenario(EnergyOnly())
    J, u = harness._grid_scan(sc, axes)
    assert tall_blocks == [(32, True), (32, True)]
    J_full, u_full = full_scan(sc, axes)
    assert bits(J, u) == bits(J_full, u_full)
    assert u[0] == -0.25


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_state_term_in_a_later_tall_block(tall_blocks, value):
    # PoisonedTerms poisons the last stage where its state u_0 + w[0] > 1,
    # which here is only in the second tall block; that block falls back to
    # its pair blocks, which are scanned in full
    axes = [np.linspace(-2.0, 2.0, 64), np.linspace(-2.0, 2.0, 16)]
    sc = tall_scenario(PoisonedTerms(value, 1))
    assert np.flatnonzero(axes[0] + sc.w_full.w[0, 0] > 1.0).min() >= 32
    if math.isnan(value):
        errors = []
        for scan in (harness._grid_scan, full_scan):
            with pytest.raises(ValueError, match="cost is NaN at stage 1 ") as exc:
                scan(sc, axes)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]
    else:
        J, u = harness._grid_scan(sc, axes)
        J_full, u_full = full_scan(sc, axes)
        assert math.isfinite(J)
        assert bits(J, u) == bits(J_full, u_full)
    assert tall_blocks[:2] == [(32, True), (32, False)]


@pytest.mark.parametrize("chunk", [7, 16])
@pytest.mark.parametrize("model", ["scenario", "huge_state"])
def test_m2_with_several_column_blocks(model, chunk):
    # 36 inputs per stage in column blocks of `chunk`: the last stage keeps
    # one-row blocks and the full scan, and the mirrored axes and HugeState
    # make input terms tie across column blocks
    axis = np.array([-1.5, -0.5, 0.25, 0.5, 1.5, -0.25])
    for seed in range(4):
        sc = gen_scenario(seed, ScenarioConfig(cost_kind=COST_KINDS[seed % 3], n=2,
                                               m=2, T=2, N=2))
        B = np.random.default_rng(seed).uniform(-1.0, 1.0, (2, 2))
        sc = dataclasses.replace(sc, sys=LinearSystem(A=sc.sys.A, B=B))
        if model == "huge_state":
            sc = dataclasses.replace(sc, costs=HugeState())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "EVAL_CHUNK", chunk)
            J, u = harness._grid_scan(sc, [axis] * 4)
            J_full, u_full = full_scan(sc, [axis] * 4)
        assert bits(J, u) == bits(J_full, u_full)
