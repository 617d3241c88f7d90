"""Closed-form gain constants, certificates, and the recursion audit."""

import numpy as np
import pytest

import prhc.solver
from family import compliant_quadratic_scenario
from prhc.bounds import (
    GainCertificate,
    a_factor,
    certify,
    kappa,
    omega_op,
    recursion_audit,
)
from prhc.costs import EnvelopeParams, NonConvexCost, QuadraticCost, quadratic_value_form
from prhc.harness import ScenarioConfig, gen_scenario
from prhc.linsys import DisturbanceSequence, LinearSystem
from prhc.policy import build_schedule, run_policy


def make_params(beta, gamma=1.0):
    return EnvelopeParams.from_alphas(beta, 1.0, gamma_bar_sq=gamma)


class TestKappa:
    def test_pinned_values(self):
        assert kappa(1.0, 2) == pytest.approx(1.25, abs=1e-12)
        assert kappa(0.5, 8) == pytest.approx(0.6875, abs=1e-12)

    def test_vanishes_for_long_overlap(self):
        assert kappa(1.0, 10**6) <= 3e-6

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError, match="positive"):
            kappa(0.0, 4)
        with pytest.raises(ValueError, match="exceed 1"):
            kappa(1.5, 4)
        with pytest.raises(ValueError, match="at least 1"):
            kappa(0.5, 0)


class TestOmegaOp:
    def test_pinned_values(self):
        assert omega_op(1.0, 2) == pytest.approx(4.5, abs=1e-12)
        assert omega_op(0.5, 8) == pytest.approx(8.75, abs=1e-12)

    def test_stability_threshold_boundary(self):
        with pytest.raises(ValueError, match="stability threshold"):
            omega_op(1.0, 1)
        with pytest.raises(ValueError, match="stability threshold"):
            omega_op(0.5, 4)  # 1/beta^2 = 4 exactly, strict bound

    def test_strictly_decreasing_in_overlap(self):
        for beta in (0.3, 0.5, 0.8, 1.0):
            floor = int(np.ceil(1.0 / beta**2)) + 1
            grid = np.unique(np.geomspace(floor, 10**6, 60).astype(int))
            vals = [omega_op(beta, int(M)) for M in grid]
            assert np.all(np.diff(vals) < 0)

    def test_dominates_asymptote(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            beta = rng.uniform(0.1, 1.0)
            M = int(rng.integers(1, 10**5))
            if M * beta * beta <= 1:
                continue
            w = omega_op(beta, M)
            assert w >= (2.0 - beta) / beta - 1e-12
            assert w >= 1.0 - 1e-12

    def test_consistent_with_contraction_identity(self):
        # the gain coefficient and the contraction factor come from one
        # derivation: omega = (a^2 + a(beta+1) + beta) / (1 - a)
        rng = np.random.default_rng(1)
        for _ in range(300):
            beta = rng.uniform(0.05, 1.0)
            M = int(rng.integers(2, 10**6))
            if M * beta * beta <= 1:
                continue
            a = a_factor(beta, M)
            ident = (a * a + a * (beta + 1.0) + beta) / (1.0 - a)
            assert omega_op(beta, M) == pytest.approx(ident, rel=1e-12)


class TestAFactor:
    def test_pinned_values(self):
        assert a_factor(1.0, 2) == pytest.approx(0.5, abs=1e-12)
        assert a_factor(0.5, 8) == pytest.approx(0.75, abs=1e-12)
        assert a_factor(1.0, 10**6) == pytest.approx(1e-6, rel=1e-6)

    def test_open_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            beta = rng.uniform(0.1, 1.0)
            M = int(rng.integers(1, 10**4))
            if M * beta * beta <= 1:
                with pytest.raises(ValueError, match="stability threshold"):
                    a_factor(beta, M)
            else:
                assert 0.0 < a_factor(beta, M) < 1.0


class TestCertify:
    def test_zero_disturbance_zero_start(self):
        rng = np.random.default_rng(3)
        sys = LinearSystem(A=rng.uniform(0, 0.3, (2, 2)), B=[[1.0], [1.0]])
        Q = np.stack([np.diag(rng.uniform(1.4, 2.2, 2)) for _ in range(12)])
        R = np.stack([np.diag(rng.uniform(1.4, 2.2, 1)) for _ in range(12)])
        costs = QuadraticCost(Q, R)
        sched = build_schedule(8, 4, 12)
        res = run_policy(sys, costs, DisturbanceSequence.zeros(12, 2),
                         np.zeros(2), sched)
        params = make_params(0.6)
        cert = certify(res, params, sched, sigma_x1=0.0)
        assert cert.J == 0.0 and cert.energy == 0.0
        assert cert.bound == 0.0
        assert cert.satisfied
        assert np.isnan(cert.gain)

    def test_randomized_family_satisfied(self):
        for seed in range(10):
            sc = compliant_quadratic_scenario(seed, spike=True)
            res = run_policy(sc.sys, sc.costs, sc.w, sc.x1, sc.sched)
            cert = certify(res, sc.params, sc.sched, sigma_x1=0.0)
            assert cert.conditions_ok
            assert cert.satisfied
            assert sc.params.certified
            assert cert.J <= cert.bound * (1 + 1e-9)
            if cert.energy > 0:
                assert cert.gain * cert.energy == pytest.approx(cert.J, rel=1e-9)

    def test_failed_conditions_yield_infinite_bound(self):
        sc = compliant_quadratic_scenario(0, spike=False)
        res = run_policy(sc.sys, sc.costs, sc.w, sc.x1, sc.sched)
        bad_sched = build_schedule(sc.sched.N, 1, sc.sched.T)  # M=1 <= 1/beta^2
        cert = certify(res, sc.params, bad_sched, sigma_x1=0.0)
        assert not cert.conditions_ok
        assert cert.bound == np.inf
        assert not cert.satisfied
        assert np.isnan(cert.omega)
        names = [name for name, ok, _ in cert.conditions if not ok]
        assert "M > 1/beta^2" in names

    def test_condition_margins_recorded(self):
        sc = compliant_quadratic_scenario(1, spike=False)
        res = run_policy(sc.sys, sc.costs, sc.w, sc.x1, sc.sched)
        cert = certify(res, sc.params, sc.sched)
        table = dict((name, (ok, margin)) for name, ok, margin in cert.conditions)
        assert table["N >= 2M"][0]
        assert table["N >= 2M"][1] == sc.sched.N - 2 * sc.sched.M
        assert table["M > 1/beta^2"][0]
        assert table["M > 1/beta^2"][1] == pytest.approx(
            sc.sched.M - 1.0 / sc.params.beta**2)

    def test_no_envelope_fails_its_condition(self):
        # a run on a bound the conditions would otherwise admit
        sc = compliant_quadratic_scenario(1, spike=False)
        res = run_policy(sc.sys, sc.costs, sc.w, sc.x1, sc.sched)
        cert = certify(res, None, sc.sched)
        assert cert.conditions[0] == ("N >= 2M", True, sc.sched.N - 2 * sc.sched.M)
        name, ok, margin = cert.conditions[-1]
        assert (name, ok) == ("envelope exists", False) and np.isnan(margin)
        assert cert.bound == np.inf and np.isnan(cert.omega)
        assert not cert.satisfied
        assert cert.J == res.J


class TestRecursionAudit:
    def test_zero_run_zero_slacks(self):
        rng = np.random.default_rng(4)
        sys = LinearSystem(A=rng.uniform(0, 0.3, (2, 2)), B=[[1.0], [1.0]])
        Q = np.stack([np.diag(rng.uniform(1.4, 2.2, 2)) for _ in range(16)])
        R = np.stack([np.diag(rng.uniform(1.4, 2.2, 1)) for _ in range(16)])
        costs = QuadraticCost(Q, R)
        sched = build_schedule(8, 4, 16)
        w = DisturbanceSequence.zeros(16, 2)
        res = run_policy(sys, costs, w, np.zeros(2), sched)
        params = make_params(0.6)
        slacks = recursion_audit(res, params, sys, costs, w)
        assert len(slacks) >= 1
        np.testing.assert_allclose(slacks, 0.0, atol=1e-12)

    def test_randomized_family_nonnegative(self):
        for seed in range(10):
            sc = compliant_quadratic_scenario(seed, spike=True)
            res = run_policy(sc.sys, sc.costs, sc.w, sc.x1, sc.sched)
            slacks = recursion_audit(res, sc.params, sc.sys, sc.costs, sc.w)
            assert len(slacks) >= 1
            assert min(slacks) >= -1e-6

    def test_underreported_gamma_flagged(self):
        sc = compliant_quadratic_scenario(0, spike=True)
        res = run_policy(sc.sys, sc.costs, sc.w, sc.x1, sc.sched)
        half = EnvelopeParams(
            alpha_lo=sc.params.alpha_lo, alpha_hi=sc.params.alpha_hi,
            gamma_bar_sq=sc.params.gamma_bar_sq / 2.0,
            beta=sc.params.beta, zeta=sc.params.zeta, certified=False,
        )
        slacks = recursion_audit(res, half, sc.sys, sc.costs, sc.w)
        assert min(slacks) < 0

    @staticmethod
    def reference_slacks(res, params, w, values):
        """The recursion's slacks from window values keyed by 1-based start."""
        sched = res.schedule
        N, M, T = sched.N, sched.M, sched.T
        a, g2, beta = a_factor(params.beta, M), params.gamma_bar_sq, params.beta
        e = np.sum(w.w[:T] ** 2, axis=1)
        full = [t for t in sched.t_list if t + N - 1 <= T]
        return [a * values[t_a] + beta * g2 * e[t_a - 1:t_b - 1].sum()
                + (beta + 1.0) * g2 * e[t_b - 1:t_b - 1 + M].sum()
                + g2 * e[t_b - 1 + M:t_b - 1 + N].sum() - values[t_b]
                for t_a, t_b in zip(full, full[1:])]

    def test_unstable_long_run_matches_value_forms(self):
        # seed 4 at T=100 has rho(A) = 1.34: dense normal equations for its
        # 60-step windows are off by up to 7.7e-3, Riccati values are not
        sc = gen_scenario(4, ScenarioConfig(cost_kind="quadratic", T=100, N=60))
        sched = build_schedule(60, 50, 100)
        params = make_params(0.5)  # M = 50 > 1/beta^2 = 4
        res = run_policy(sc.sys, sc.costs, sc.w_full, sc.x1, sched)
        values = {}
        for t in (1, 11, 21, 31, 41):
            z = np.concatenate([res.traj.states[t - 1], sc.w_full.w[t - 1:t + 59].ravel()])
            values[t] = z @ quadratic_value_form(sc.sys, sc.costs, t - 1, 60) @ z
        slacks = recursion_audit(res, params, sc.sys, sc.costs, sc.w_full)
        assert len(slacks) == 4
        np.testing.assert_allclose(
            slacks, self.reference_slacks(res, params, sc.w_full, values), rtol=1e-9)

    def test_reads_the_runs_law_table(self, monkeypatch):
        # the full windows are a prefix of the schedule, so the audit slices
        # the run's laws and sweeps none of its own
        sc = compliant_quadratic_scenario(0, spike=True)
        res = run_policy(sc.sys, sc.costs, sc.w, sc.x1, sc.sched)
        sweeps = []
        real = prhc.solver._window_laws

        def counting(*args):
            sweeps.append(args[3])
            return real(*args)

        monkeypatch.setattr(prhc.solver, "_window_laws", counting)
        assert recursion_audit(res, sc.params, sc.sys, sc.costs, sc.w)
        assert sweeps == []

    def test_rejects_a_run_without_its_laws(self):
        sc = compliant_quadratic_scenario(0, spike=True)
        res = run_policy(sc.sys, sc.costs, sc.w, sc.x1, sc.sched)
        other = DisturbanceSequence.from_array(sc.w.w[::-1])
        with pytest.raises(ValueError, match="not the disturbance sequence"):
            recursion_audit(res, sc.params, sc.sys, sc.costs, other)
        res.laws = None
        with pytest.raises(ValueError, match="keeps no window laws"):
            recursion_audit(res, sc.params, sc.sys, sc.costs, sc.w)

    def test_no_full_pairs_gives_empty_audit(self):
        rng = np.random.default_rng(5)
        sys = LinearSystem(A=rng.uniform(0, 0.3, (2, 2)), B=[[1.0], [1.0]])
        Q = np.stack([np.diag(rng.uniform(1.4, 2.2, 2)) for _ in range(10)])
        R = np.stack([np.diag(rng.uniform(1.4, 2.2, 1)) for _ in range(10)])
        costs = QuadraticCost(Q, R)
        sched = build_schedule(8, 4, 10)  # second window 5..12 overruns T=10
        w = DisturbanceSequence.from_array(rng.uniform(0, 1, (10, 2)))
        res = run_policy(sys, costs, w, np.zeros(2), sched)
        params = make_params(0.6)
        assert recursion_audit(res, params, sys, costs, w) == []

    def test_no_envelope_rejected(self):
        sc = compliant_quadratic_scenario(0, spike=False)
        res = run_policy(sc.sys, sc.costs, sc.w, sc.x1, sc.sched)
        with pytest.raises(ValueError, match="no envelope for QuadraticCost"):
            recursion_audit(res, None, sc.sys, sc.costs, sc.w)

        # made-up constants do not give a non-quadratic model an envelope
        rng = np.random.default_rng(6)
        sys = LinearSystem(A=rng.uniform(0, 0.3, (2, 2)), B=[[1.0], [1.0]])
        costs = NonConvexCost(b=0.2)
        w = DisturbanceSequence.from_array(rng.uniform(0, 0.5, (12, 2)))
        res = run_policy(sys, costs, w, np.zeros(2), build_schedule(6, 4, 12))
        with pytest.raises(ValueError, match="no envelope for NonConvexCost"):
            recursion_audit(res, make_params(0.6), sys, costs, w)
