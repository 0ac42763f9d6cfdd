import math

import pytest

from energylab import continuum
from energylab.continuum import (BECKNER_L4_POW4, GaussianSpec, QuadratureError,
                                 gaussian_l4hat, gaussian_lq, gaussian_ratio,
                                 quadrature_l4hat, quadrature_lq_pow,
                                 truncated_gaussian_l4hat_pow4, truncated_gaussian_lq)
from energylab.discrete_core import InvalidExponentError


class TestClosedForms:
    def test_l4hat_unit(self):
        assert gaussian_l4hat(GaussianSpec(1.0)) == pytest.approx((math.pi ** 1.5 / 2) ** 0.25, rel=1e-15)

    def test_l4hat_collapse(self):
        # pi*A = 1 collapses the power
        assert gaussian_l4hat(GaussianSpec(1 / math.pi)) == pytest.approx(0.5 ** 0.25, rel=1e-15)

    def test_lq_unit(self):
        assert gaussian_lq(GaussianSpec(1.0), 2.0) == pytest.approx((math.pi / 2) ** 0.25, rel=1e-15)

    def test_lq_collapse(self):
        for q in (1.4, 1.7, 2.0):
            assert gaussian_lq(GaussianSpec(q / math.pi), q) == pytest.approx(1.0, rel=1e-15)

    def test_lq_four_thirds(self):
        want = ((3 * math.pi / 4) ** 0.5) ** 0.75
        assert gaussian_lq(GaussianSpec(1.0), 4 / 3) == pytest.approx(want, rel=1e-15)

    def test_ratio_at_four_thirds_is_sharp_constant(self):
        sharp = (16 / 27) ** 0.125
        for a in (1.0, 10.0, 1000.0, 3.7e6):
            assert gaussian_ratio(GaussianSpec(a), 4 / 3) == pytest.approx(sharp, abs=1e-12)
        assert BECKNER_L4_POW4 ** 0.25 == pytest.approx(sharp, abs=1e-15)

    def test_ratio_at_two(self):
        assert gaussian_ratio(GaussianSpec(1.0), 2.0) == pytest.approx(math.pi ** 0.125, rel=1e-14)

    def test_ratio_is_quotient(self):
        for a in (0.5, 4.0, 250.0):
            for q in (1.4, 1.62, 1.95):
                spec = GaussianSpec(a)
                assert gaussian_ratio(spec, q) == pytest.approx(
                    gaussian_l4hat(spec) / gaussian_lq(spec, q), rel=1e-12)

    def test_companion_constant(self):
        assert 3 * math.sqrt(3) / 4 == pytest.approx(1 / (4 * math.sqrt(3) / 9), rel=1e-15)

    def test_ratio_monotone_in_a(self):
        for q in (1.5, 1.8):
            vals = [gaussian_ratio(GaussianSpec(a), q) for a in (1.0, 2.0, 5.0, 50.0)]
            assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GaussianSpec(0.0)
        with pytest.raises(ValueError):
            GaussianSpec(float("inf"))
        with pytest.raises(InvalidExponentError):
            gaussian_lq(GaussianSpec(1.0), 1.0)


class TestQuadrature:
    @pytest.mark.parametrize("a", [1.0, 10.0, 100.0])
    def test_l4hat_pow4_default_grid(self, a):
        closed = 0.5 * (math.pi * a) ** 1.5
        assert quadrature_l4hat(GaussianSpec(a)) == pytest.approx(closed, rel=1e-8)

    def test_l4hat_collapse_target(self):
        assert quadrature_l4hat(GaussianSpec(1 / math.pi)) == pytest.approx(0.5, rel=1e-8)

    def test_lq_pow(self):
        for a in (1.0, 10.0):
            for q in (4 / 3, 2.0):
                closed = (math.pi * a / q) ** 0.5
                assert quadrature_lq_pow(GaussianSpec(a), q) == pytest.approx(closed, rel=1e-8)

    def test_nonconvergence_flagged(self, monkeypatch):
        # a negative tolerance is exceeded by any two refinements, equal ones included
        monkeypatch.setattr(continuum, "QUADRATURE_REL_TOL", -1.0)
        with pytest.raises(QuadratureError, match="l4hat quadrature did not converge"):
            quadrature_l4hat(GaussianSpec(1.0))
        with pytest.raises(QuadratureError, match="lq quadrature did not converge"):
            quadrature_lq_pow(GaussianSpec(1.0), 1.5)
        monkeypatch.setattr(continuum, "TRUNCATED_REL_TOL", -1.0)
        with pytest.raises(QuadratureError, match="truncated l4hat quadrature"):
            truncated_gaussian_l4hat_pow4(4.0, 5)


class TestTruncated:
    def test_wide_truncation_recovers_full(self):
        # M far in the tail: the truncated norm matches the closed form
        a = 4.0
        full = 0.5 * (math.pi * a) ** 1.5
        assert truncated_gaussian_l4hat_pow4(a, 14) == pytest.approx(full, rel=1e-7)
        assert truncated_gaussian_lq(a, 1.5, 14) == pytest.approx(
            gaussian_lq(GaussianSpec(a), 1.5), rel=1e-10)

    def test_truncation_loses_mass(self):
        a = 100.0
        assert truncated_gaussian_l4hat_pow4(a, 5) < 0.5 * (math.pi * a) ** 1.5
        assert truncated_gaussian_lq(a, 1.5, 5) < gaussian_lq(GaussianSpec(a), 1.5)
