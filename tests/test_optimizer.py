import math

import numpy as np
import pytest

from energylab import certificates, discrete_core, optimizer
from energylab.certificates import revalidate_certificate
from energylab.discrete_core import DiscreteFunction, ratio_report
from energylab.optimizer import (OptimizerConfig, energy_pow4_array, estimate_qn,
                                 maximize_ratio, objective, _ascend, _objective_and_gradient,
                                 _pow4_and_gradient)


def _ratio(res):
    return res.certificate.lhs / res.certificate.rhs


class TestGradient:
    def test_delta(self):
        e4, g = _pow4_and_gradient(np.array([1.0]))
        assert e4 == 1.0 and g.tolist() == [4.0]

    def test_pair_indicator(self):
        e4, g = _pow4_and_gradient(np.array([1.0, 1.0]))
        assert e4 == 6.0
        assert g[0] == pytest.approx(12.0, rel=1e-13)
        assert g[1] == pytest.approx(12.0, rel=1e-13)
        # directional derivative along the indicator itself: d/dt 6t^4 = 24 at t=1
        assert g[0] + g[1] == pytest.approx(24.0, rel=1e-13)

    def test_finite_differences(self):
        rng = np.random.default_rng(0)
        h = 1e-5
        for _ in range(30):
            m = int(rng.integers(2, 17))
            x = rng.standard_normal(m)
            e4, got = _pow4_and_gradient(x)
            assert e4 == energy_pow4_array(x)
            fd = np.empty(m)
            for i in range(m):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd[i] = (energy_pow4_array(xp) - energy_pow4_array(xm)) / (2 * h)
            assert np.max(np.abs(got - fd)) <= 1e-6 * max(np.max(np.abs(fd)), 1e-30)

    def test_objective_gradient_finite_differences(self):
        # the value and gradient the ascent steps with, on its normalized iterates
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(30):
            x = rng.random(int(rng.integers(2, 17))) + 0.05
            x /= x.max()
            q = float(rng.uniform(4 / 3, 2))
            value, got = _objective_and_gradient(x, q)
            assert value == objective(x, q)
            fd = np.empty(len(x))
            for i in range(len(x)):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd[i] = (objective(xp, q) - objective(xm, q)) / (2 * h)
            assert np.max(np.abs(got - fd)) <= 1e-6 * max(np.max(np.abs(fd)), 1e-30)


class TestObjective:
    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.random(int(rng.integers(2, 12))) + 0.01
            q = float(rng.uniform(4 / 3, 2))
            base = objective(x, q)
            for c in (1e-3, 7.0, 1e4):
                assert objective(c * x, q) == pytest.approx(base, abs=1e-12)

    def test_zero_vector(self):
        assert objective(np.zeros(4), 1.5) == -math.inf

    def test_ascent_monotone(self):
        # the ascent is deterministic, so the run capped at k iterations is the
        # full run's k-th iterate
        rng = np.random.default_rng(2)
        for _ in range(5):
            x0 = rng.random(6) + 1e-3
            _, final, iters = _ascend(x0, 1.5, 300, 1e-12)
            values = [_ascend(x0, 1.5, k, 1e-12)[1] for k in range(1, iters + 1)]
            assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))
            assert values[-1] == final

    def test_one_autoconvolution_per_iterate(self, monkeypatch):
        # every np.convolve is either a trial point's objective call or the
        # one evaluation of an accepted iterate (plus the start)
        counts = {"convolve": 0, "objective": 0}
        convolve, objective_fn = np.convolve, optimizer.objective

        def counting_convolve(*args, **kwargs):
            counts["convolve"] += 1
            return convolve(*args, **kwargs)

        def counting_objective(*args, **kwargs):
            counts["objective"] += 1
            return objective_fn(*args, **kwargs)

        monkeypatch.setattr(np, "convolve", counting_convolve)
        monkeypatch.setattr(optimizer, "objective", counting_objective)
        rng = np.random.default_rng(3)
        for n in (3, 8):
            counts.update(convolve=0, objective=0)
            _, _, iters = _ascend(rng.random(n) + 1e-3, 1.6, 500, 1e-12)
            assert iters > 1
            assert counts["convolve"] - counts["objective"] <= iters + 1


class TestMaximize:
    def test_n1_rejected(self):
        # t_n, and so a certificate, is defined from n = 2 on
        with pytest.raises(ValueError):
            OptimizerConfig(n=1, q=1.7)

    def test_n2_at_critical_q(self):
        q2 = 4 / math.log2(6)
        res = maximize_ratio(OptimizerConfig(n=2, q=q2, seed=0))
        assert abs(_ratio(res) - 1.0) <= 1e-6
        # the full indicator attains the supremum at this q
        ind = ratio_report(DiscreteFunction.indicator([0, 1]), q2)
        assert abs(ind.ratio - 1.0) <= ind.err + 1e-15

    def test_n2_above_critical_q(self):
        res = maximize_ratio(OptimizerConfig(n=2, q=1.56, seed=0))
        # frozen from the 1-parameter oracle: max over x of
        # (1+4x^2+x^4)^(1/4) / (1+x^q)^(1/q), attained at x = 1
        assert _ratio(res) == pytest.approx(1.003621292657, abs=1e-6)
        assert res.certificate.valid

    def test_ratio_never_below_one(self):
        for q in (1.4, 1.6, 1.9):
            for n in (2, 5, 9):
                cert = maximize_ratio(OptimizerConfig(n=n, q=q, seed=3)).certificate
                assert cert.margin >= -cert.err

    def test_beats_canonical_starts(self):
        cfg = OptimizerConfig(n=6, q=1.5, seed=4)
        res = maximize_ratio(cfg)
        for start in (DiscreteFunction.delta(), DiscreteFunction.indicator(range(6))):
            assert _ratio(res) >= ratio_report(start, 1.5).ratio - 1e-12

    def test_ratio_matches_ratio_report(self):
        # lhs / rhs of the certificate is ratio_report's ratio, bit for bit
        res = maximize_ratio(OptimizerConfig(n=5, q=1.5, seed=2))
        assert _ratio(res) == ratio_report(res.certificate.f, 1.5).ratio
        assert res.certificate.kind == "explicit" and res.certificate.n == 5

    def test_reproducible(self):
        cfg = OptimizerConfig(n=4, q=1.5, starts=8, max_iters=800, seed=11)
        a = maximize_ratio(cfg)
        b = maximize_ratio(cfg)
        assert a == b  # bit-for-bit, including the function values

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(n=0, q=1.5)
        with pytest.raises(ValueError):
            OptimizerConfig(n=2, q=1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(n=2, q=1.5, starts=2)


class TestEstimate:
    def test_n2_window(self):
        est = estimate_qn(2, tol=1e-3, seed=7)
        assert 1.546 <= est.q_hat <= 1.549
        assert est.t_hat == pytest.approx(4 / est.q_hat, rel=1e-15)
        assert est.witness is not None
        assert est.witness.valid
        assert revalidate_certificate(est.witness).valid

    def test_n3_beats_trivial_bound(self):
        est = estimate_qn(3, tol=1e-3, seed=7)
        assert est.t_hat >= math.log(19) / math.log(3)
        assert est.witness.valid
        assert est.empirical_c == pytest.approx(3 ** (3 - est.t_hat) - 1, rel=1e-12)

    def test_n3_fires_at_148(self):
        res = maximize_ratio(OptimizerConfig(n=3, q=1.48, seed=7))
        assert res.certificate.valid

    def test_one_evaluation_per_probe(self, monkeypatch):
        calls = []
        probes = []
        norm_pair, maximize = discrete_core._norm_pair, optimizer.maximize_ratio

        def counting_norm_pair(*args):
            calls.append(args)
            return norm_pair(*args)

        def recording_maximize(config):
            res = maximize(config)
            probes.append(res)
            return res

        monkeypatch.setattr(discrete_core, "_norm_pair", counting_norm_pair)
        monkeypatch.setattr(certificates, "_norm_pair", counting_norm_pair)
        monkeypatch.setattr(optimizer, "maximize_ratio", recording_maximize)
        est = estimate_qn(3, seed=7)
        assert len(probes) > 1
        assert len(calls) == len(probes)
        assert est.witness.valid
        assert any(est.witness is res.certificate for res in probes)

    def test_tol_validation(self):
        # tol must lie in [1e-4, 2/3), below the width of [4/3, 2]
        for tol in (1e-5, 2 / 3, 1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                estimate_qn(2, tol=tol)
