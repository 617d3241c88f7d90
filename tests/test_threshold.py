"""The certificate's stability threshold M > 1/beta^2 to the last bit:
certify, omega_op, a_factor and recursion_audit decide it alike."""

import dataclasses
import functools
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from prhc.bounds import a_factor, certify, omega_op, recursion_audit  # noqa: E402
from prhc.costs import EnvelopeParams, QuadraticCost  # noqa: E402
from prhc.linsys import DisturbanceSequence, LinearSystem  # noqa: E402
from prhc.policy import build_schedule, run_policy  # noqa: E402
from test_bounds import edge_run  # noqa: E402

# M * beta * beta rounds to 1 + 2^-52 here, but a = 1 - g rounds to 1
EDGE = (0.23570226039551587, 18)


@st.composite
def threshold_edges(draw, M_max=10**4):
    """(beta, M) with beta within 8 ulps of 1/sqrt(M), clipped to beta <= 1."""
    M = draw(st.integers(1, M_max))
    k = draw(st.integers(-8, 8))
    beta = 1.0 / math.sqrt(M)
    for _ in range(abs(k)):
        beta = math.nextafter(beta, math.inf if k > 0 else 0.0)
    return min(beta, 1.0), M


@functools.cache
def audited_run(M):
    """A scalar quadratic run with N = 2M and T = 3M, which has one pair of
    full windows to audit. Returns (run, sys, costs, w)."""
    T = 3 * M
    sys = LinearSystem(A=[[0.5]], B=[[1.0]])
    costs = QuadraticCost(np.ones((T, 1, 1)), np.ones((T, 1, 1)))
    w = DisturbanceSequence.from_array(np.linspace(0.1, 1.0, T)[:, None])
    res = run_policy(sys, costs, w, np.zeros(1), build_schedule(2 * M, M, T))
    return res, sys, costs, w


@settings(derandomize=True, deadline=None, max_examples=300)
@given(threshold_edges())
@example(EDGE)
@example((1.0, 1))
@example((1.0, 2))
def test_certify_decides_the_threshold_where_omega_op_and_a_factor_do(edge):
    beta, M = edge
    params = EnvelopeParams.from_alphas(beta, 1.0, gamma_bar_sq=1.0)
    assert params.beta == beta
    cert = certify(dataclasses.replace(edge_run(), schedule=build_schedule(2 * M, M, 2 * M)),
                   params)
    name, stable, _ = cert.conditions[-1]
    assert name == "M > 1/beta^2"
    if stable:
        assert 0.0 < a_factor(beta, M) < 1.0
        assert cert.omega == omega_op(beta, M)
        assert math.isfinite(cert.bound)
    else:
        for f in (omega_op, a_factor):
            with pytest.raises(ValueError, match="stability threshold"):
                f(beta, M)
        assert cert.bound == math.inf and not cert.satisfied


# each draw runs a policy over 3M steps, so M stops at 48 here; the property
# above takes a_factor, the audit's one stability test, to M = 10^4
@settings(derandomize=True, deadline=None, max_examples=100)
@given(threshold_edges(M_max=48))
@example(EDGE)
@example((1.0, 1))
def test_recursion_audit_decides_the_threshold_where_a_factor_does(edge):
    beta, M = edge
    res, sys, costs, w = audited_run(M)
    params = EnvelopeParams.from_alphas(beta, 1.0, gamma_bar_sq=1.0)
    try:
        a_factor(beta, M)
    except ValueError:
        with pytest.raises(ValueError, match="stability threshold"):
            recursion_audit(res, params, sys, costs, w)
    else:
        slacks = recursion_audit(res, params, sys, costs, w)
        assert len(slacks) == 1 and math.isfinite(slacks[0])
