"""Closed-form gain constants, certificates, and the recursion audit."""

import dataclasses
import functools

import numpy as np
import pytest

import prhc.solver
from family import _spike_disturbance, compliant_quadratic_scenario, draw_costs, draw_system
from prhc.bounds import (
    GainCertificate,
    a_factor,
    certify,
    kappa,
    omega_op,
    recursion_audit,
)
from prhc.costs import (
    EnvelopeParams, NonConvexCost, QuadraticCost, estimate_params, quadratic_value_form,
)
from prhc.harness import ScenarioConfig, gen_scenario
from prhc.linsys import DisturbanceSequence, LinearSystem
from prhc.policy import build_schedule, run_policy


def make_params(beta, gamma=1.0):
    return EnvelopeParams.from_alphas(beta, 1.0, gamma_bar_sq=gamma)


@functools.cache
def edge_run():
    """A finished quadratic run whose J and disturbances certify reads."""
    sc = compliant_quadratic_scenario(0, spike=True)
    return run_policy(sc.sys, sc.costs, sc.w, sc.x1, sc.sched)


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

    def test_takes_omega_ops_constants(self):
        with pytest.raises(ValueError, match="stability threshold"):
            kappa(1.0, 1)


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

    def test_reads_sigma_of_the_runs_initial_state(self):
        # from x1 = (3, 3) with small disturbances, the sigma(x1) term carries
        # the bound: without it the bound read 3.03 < J = 49.63
        sc = gen_scenario(0, ScenarioConfig(cost_kind="quadratic", T=100, N=60))
        params = estimate_params(sc.sys, sc.costs, 60)
        w = DisturbanceSequence.from_array(0.01 * sc.w_full.w)
        res = run_policy(sc.sys, sc.costs, w, np.full(2, 3.0), build_schedule(60, 30, 100))
        cert = certify(res, params)
        assert cert.J == pytest.approx(49.63, abs=5e-3)
        assert cert.bound == certify(res, params, sigma_x1=18.0).bound
        assert cert.bound == pytest.approx(3273.0, abs=0.1)
        assert cert.satisfied

    def test_refuses_a_schedule_the_run_did_not_follow(self):
        # J and the disturbances are the run's: this run at M=30 certified to
        # 30296 with its own schedule, and to inf when passed M=45
        sc = gen_scenario(0, ScenarioConfig(cost_kind="quadratic", T=100, N=60))
        params = estimate_params(sc.sys, sc.costs, 60)
        sched = build_schedule(60, 30, 100)
        res = run_policy(sc.sys, sc.costs, sc.w_full, sc.x1, sched)
        cert = certify(res, params, sched)
        assert cert == certify(res, params)
        assert cert.bound == pytest.approx(30296.0, abs=1.0)
        with pytest.raises(ValueError, match=r"run's own schedule \(N=60, M=30, T=100\), "
                                             r"got N=60, M=45, T=100"):
            certify(res, params, build_schedule(60, 45, 100))

    def test_failed_conditions_yield_infinite_bound(self):
        sc = compliant_quadratic_scenario(0, spike=False)
        res = run_policy(sc.sys, sc.costs, sc.w, sc.x1, sc.sched)
        bad_sched = build_schedule(sc.sched.N, 1, sc.sched.T)  # M=1 <= 1/beta^2
        cert = certify(dataclasses.replace(res, schedule=bad_sched), sc.params,
                       sigma_x1=0.0)
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

    def test_rounding_edge_of_the_threshold_fails_its_condition(self):
        # M*beta*beta rounds to 1 + 2^-52, but a = 1 - g rounds to 1: the
        # bound would divide by a gap rounding erased (omega_op was 4.7e16),
        # so the condition fails, though its margin M - 1/beta^2 reads 3.6e-15
        params = EnvelopeParams.from_alphas(0.23570226039551587, 1.0, 1.0)
        M = 18
        assert M * params.beta * params.beta == 1.0000000000000002
        for f in (omega_op, a_factor):
            with pytest.raises(ValueError, match="stability threshold"):
                f(params.beta, M)
        cert = certify(dataclasses.replace(edge_run(), schedule=build_schedule(36, M, 36)),
                       params)
        name, ok, margin = cert.conditions[-1]
        assert name == "M > 1/beta^2" and not ok and margin > 0
        assert cert.bound == np.inf and np.isnan(cert.omega)
        assert not cert.satisfied

    def test_beta_whose_square_underflows_fails_its_condition(self):
        # beta^2 rounds to 0, so 1/(beta^2 M) raised ZeroDivisionError; no M
        # passes a threshold 1/beta^2 past the float range
        params = EnvelopeParams.from_alphas(1e-162, 1.0, 1.0)
        for f in (omega_op, a_factor):
            with pytest.raises(ValueError, match=r"requires M > 1/beta\^2 = inf, got M=18"):
                f(params.beta, 18)
        cert = certify(dataclasses.replace(edge_run(), schedule=build_schedule(36, 18, 36)),
                       params)
        assert cert.conditions[-1] == ("M > 1/beta^2", False, -np.inf)
        assert cert.bound == np.inf and not cert.satisfied

    def test_beta_rounding_above_one_is_refused_before_certify(self):
        # omega_op takes beta <= 1 exactly, so EnvelopeParams admits no more
        with pytest.raises(ValueError, match="beta must not exceed 1"):
            EnvelopeParams(alpha_lo=1 + 5e-13, alpha_hi=1.0, gamma_bar_sq=1.0,
                           beta=1 + 5e-13, zeta=1.5)
        params = EnvelopeParams(alpha_lo=1 + 5e-13, alpha_hi=1.0, gamma_bar_sq=1.0,
                                beta=1.0, zeta=1.5)
        cert = certify(dataclasses.replace(edge_run(), schedule=build_schedule(36, 18, 36)),
                       params)
        assert cert.conditions_ok and cert.omega == omega_op(1.0, 18)

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


class TestAbstractRegime:
    """The abstract's own regime, N > 4/beta^3 with M = floor(N/2) and
    x1 = 0, on the family's systems and weights at T = 64: N is raised from
    8 with the envelope's beta taken at each N. Every draw must certify and
    pass the audit under both a uniform and a spiked disturbance."""

    T = 64
    DRAWS = 24

    def test_certified_and_audited(self):
        T = self.T
        for seed in range(self.DRAWS):
            rng = np.random.default_rng(7_000_003 * (seed + 1))
            sys = draw_system(rng)
            costs = draw_costs(rng, sys.n, T)
            N = 8
            params = estimate_params(sys, costs, N)
            while N <= 4.0 / params.beta ** 3:
                N += 1
                assert N <= T // 2, f"seed {seed}: 4/beta^3 passes T/2 (beta={params.beta})"
                params = estimate_params(sys, costs, N)
            sched = build_schedule(N, N // 2, T)
            uniform = DisturbanceSequence(rng.uniform(0.0, 1.0, (T, sys.n)))
            spike = _spike_disturbance(sys, costs, sched, rng, float(np.sqrt(sys.n)))
            for w in (uniform, spike):
                res = run_policy(sys, costs, w, np.zeros(sys.n), sched)
                cert = certify(res, params, sched, sigma_x1=0.0)
                assert cert.conditions_ok, (seed, cert.conditions)
                assert cert.J <= cert.bound * (1 + 1e-9), (seed, N, cert.J, cert.bound)
                slacks = recursion_audit(res, params, sys, costs, w)
                assert min(slacks) >= -1e-6, (seed, N, min(slacks))


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
        """The recursion's slacks from window values keyed by start."""
        sched = res.schedule
        N, M, T = sched.N, sched.M, sched.T
        a, g2, beta = a_factor(params.beta, M), params.gamma_bar_sq, params.beta
        e = np.sum(w.w[:T] ** 2, axis=1)
        full = [s for s in sched.starts if s + N <= T]
        return [a * values[s_a] + beta * g2 * e[s_a:s_b].sum()
                + (beta + 1.0) * g2 * e[s_b:s_b + M].sum()
                + g2 * e[s_b + M:s_b + N].sum() - values[s_b]
                for s_a, s_b in zip(full, full[1:])]

    def test_unstable_long_run_matches_value_forms(self):
        # seed 4 at T=100 has rho(A) = 1.34: dense normal equations for its
        # 60-step windows are off by up to 7.7e-3, Riccati values are not
        sc = gen_scenario(4, ScenarioConfig(cost_kind="quadratic", T=100, N=60))
        sched = build_schedule(60, 50, 100)
        params = make_params(0.5)  # M = 50 > 1/beta^2 = 4
        res = run_policy(sc.sys, sc.costs, sc.w_full, sc.x1, sched)
        values = {}
        for s in (0, 10, 20, 30, 40):
            z = np.concatenate([res.traj.states[s], sc.w_full.w[s:s + 60].ravel()])
            values[s] = z @ quadratic_value_form(sc.sys, sc.costs, s, 60) @ z
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

    def test_rejects_a_model_the_run_did_not_apply(self):
        # the slacks are only the run's with the run's own model: 4Q, or 2A,
        # once gave other slacks without an error
        sc = compliant_quadratic_scenario(0, spike=True)
        res = run_policy(sc.sys, sc.costs, sc.w, sc.x1, sc.sched)
        assert min(recursion_audit(res, sc.params, sc.sys, sc.costs, sc.w)) > 0
        heavier = QuadraticCost(4.0 * sc.costs.Q_seq, sc.costs.R_seq)
        with pytest.raises(ValueError, match="costs is not the cost model the run applied"):
            recursion_audit(res, sc.params, sc.sys, heavier, sc.w)
        faster = LinearSystem(A=2.0 * sc.sys.A, B=sc.sys.B)
        with pytest.raises(ValueError, match="sys is not the system the run applied"):
            recursion_audit(res, sc.params, faster, sc.costs, sc.w)

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

    def test_one_window_run_checks_its_disturbances(self):
        # with no pair of full windows the audit returned [] before comparing
        # w_full with the run, so an all-zero w_full passed
        rng = np.random.default_rng(5)
        sys = LinearSystem(A=rng.uniform(0, 0.3, (2, 2)), B=[[1.0], [1.0]])
        costs = QuadraticCost(np.stack([np.eye(2)] * 6), np.ones((6, 1, 1)))
        w = DisturbanceSequence.from_array(rng.uniform(0, 1, (6, 2)))
        res = run_policy(sys, costs, w, np.zeros(2), build_schedule(6, 6, 6))
        params = make_params(0.6)
        assert recursion_audit(res, params, sys, costs, w) == []
        with pytest.raises(ValueError, match="not the disturbance sequence"):
            recursion_audit(res, params, sys, costs, DisturbanceSequence.zeros(6, 2))

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
