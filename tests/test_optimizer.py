import math

import numpy as np
import pytest

from energylab.certificates import revalidate_certificate
from energylab.discrete_core import DiscreteFunction
from energylab.optimizer import (OptimizerConfig, energy_gradient_window, energy_pow4_array,
                                 estimate_qn, maximize_ratio, objective, _ascend)


class TestGradient:
    def test_delta(self):
        g = energy_gradient_window(np.array([1.0]))
        assert g.tolist() == [4.0]

    def test_pair_indicator(self):
        g = energy_gradient_window(np.array([1.0, 1.0]))
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
            got = energy_gradient_window(x)
            fd = np.empty(m)
            for i in range(m):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd[i] = (energy_pow4_array(xp) - energy_pow4_array(xm)) / (2 * h)
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
        rng = np.random.default_rng(2)
        for _ in range(5):
            x0 = rng.random(6) + 1e-3
            _, _, _, history = _ascend(x0, 1.5, 300, 1e-12, return_history=True)
            assert all(b >= a - 1e-14 for a, b in zip(history, history[1:]))


class TestMaximize:
    def test_n1_only_deltas(self):
        res = maximize_ratio(OptimizerConfig(n=1, q=1.7, seed=0))
        assert res.best_ratio == 1.0

    def test_n2_at_critical_q(self):
        q2 = 4 / math.log2(6)
        res = maximize_ratio(OptimizerConfig(n=2, q=q2, seed=0))
        assert abs(res.best_ratio - 1.0) <= 1e-6
        # the full indicator attains the supremum at this q
        from energylab.discrete_core import ratio_report
        ind = ratio_report(DiscreteFunction.indicator([0, 1]), q2)
        assert abs(ind.ratio - 1.0) <= ind.err + 1e-15

    def test_n2_above_critical_q(self):
        res = maximize_ratio(OptimizerConfig(n=2, q=1.56, seed=0))
        # frozen from the 1-parameter oracle: max over x of
        # (1+4x^2+x^4)^(1/4) / (1+x^q)^(1/q), attained at x = 1
        assert res.best_ratio == pytest.approx(1.003621292657, abs=1e-6)
        assert res.best_ratio > 1 + 3 * res.err

    def test_ratio_never_below_one(self):
        for q in (1.4, 1.6, 1.9):
            for n in (2, 5, 9):
                res = maximize_ratio(OptimizerConfig(n=n, q=q, seed=3))
                assert res.best_ratio >= 1.0 - res.err

    def test_beats_canonical_starts(self):
        from energylab.discrete_core import ratio_report
        cfg = OptimizerConfig(n=6, q=1.5, seed=4)
        res = maximize_ratio(cfg)
        for start in (DiscreteFunction.delta(), DiscreteFunction.indicator(range(6))):
            assert res.best_ratio >= ratio_report(start, 1.5).ratio - 1e-12

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
        assert res.best_ratio > 1 + 3 * res.err

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            estimate_qn(2, tol=1e-5)

