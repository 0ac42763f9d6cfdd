import json
import math
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from energylab.certificates import (GaussianScheduleParams,
                                    build_gaussian_certificate, build_perturbation_certificate,
                                    certificate_from_dict, certificate_to_dict, continuum_discretization_report,
                                    evaluate_certificate, interval_overlap_sum,
                                    revalidate_certificate)
from energylab.discrete_core import (DiscreteFunction, fourier_l4_pow4,
                                     fourier_l4_pow4_quadruple, lq_norm)


class TestPerturbation:
    def test_n3_exact_sides(self):
        cert = build_perturbation_certificate(3, Fraction(1, 10))
        # ||f*f||_2^2 = 2 + 2(2+2e)^2 + (3+2e+e^2)^2 = 21.9841 exactly at e = 1/10
        assert cert.lhs ** 4 == pytest.approx(21.9841, rel=1e-12)
        assert cert.rhs ** 4 == pytest.approx(21.70703661599189, rel=1e-10)
        assert cert.margin > 0
        assert cert.valid

    def test_implied_bound_is_trivial_bound(self):
        cert = build_perturbation_certificate(3)
        assert cert.implied_t_bound == pytest.approx(math.log(19) / math.log(3), abs=1e-12)
        assert cert.q == pytest.approx(4 / (math.log(19) / math.log(3)), rel=1e-12)

    def test_eps_zero_boundary(self):
        cert = build_perturbation_certificate(5, 0)
        assert not cert.valid
        assert abs(cert.margin) <= cert.err
        assert revalidate_certificate(cert) == cert

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            build_perturbation_certificate(2)

    def test_eps_out_of_range(self):
        with pytest.raises(ValueError):
            build_perturbation_certificate(5, 1.5)

    @pytest.mark.parametrize("n", [3, 10, 37, 64, 100])
    def test_scan_validates(self, n):
        cert = build_perturbation_certificate(n)
        assert cert.valid
        assert cert.margin > cert.err > 0
        assert len(cert.f.values) == n

    def test_margin_vanishes_with_eps(self):
        margins = [build_perturbation_certificate(7, Fraction(1, 2 ** j)).margin
                   for j in (2, 6, 10, 14)]
        assert all(m > 0 for m in margins)
        assert all(a > b for a, b in zip(margins, margins[1:]))
        assert margins[-1] < 1e-3

    @pytest.mark.parametrize("n", [3, 10, 50, 100])
    def test_linear_coefficient_of_margin(self, n):
        # d/de [||f*f||_2^2 - ||f||_q^4] at 0+ is >= 3n^2 - (4/3)(2n^2+1)
        e1, e2 = Fraction(1, 10000), Fraction(2, 10000)
        d1 = _fourth_power_gap(n, e1)
        d2 = _fourth_power_gap(n, e2)
        slope = (d2 - d1) / float(e2 - e1)
        target = 3 * n ** 2 - (4.0 / 3.0) * (2 * n ** 2 + 1)
        tolerance = 0.02 * target + 1e-3 * n ** 2 + 0.5
        assert slope >= target - tolerance

    def test_quadruple_revalidation(self):
        for n in (3, 9, 21):
            cert = build_perturbation_certificate(n)
            quad = fourier_l4_pow4_quadruple(cert.f)
            assert float(quad) == pytest.approx(cert.lhs ** 4, rel=1e-10)


def _fourth_power_gap(n, eps):
    cert = build_perturbation_certificate(n, eps)
    return cert.lhs ** 4 - cert.rhs ** 4


class TestOverlapSum:
    def test_examples(self):
        assert interval_overlap_sum(1) == 1
        assert interval_overlap_sum(3) == 7
        assert interval_overlap_sum(4) == 12

    def test_formula_range(self):
        for n in range(1, 101):
            assert interval_overlap_sum(n) == math.ceil(3 * n * n / 4)

    def test_invalid(self):
        with pytest.raises(ValueError):
            interval_overlap_sum(0)


class TestGaussianSchedule:
    def test_params(self):
        p = GaussianScheduleParams.from_n_eps(21, 0.5)
        assert p.k == 10
        assert p.a_param == pytest.approx(10 ** 1.95, rel=1e-12)
        assert p.m_trunc == math.floor(10 ** 0.995)
        assert p.m_trunc <= p.k
        assert p.q > 4 / 3
        base = 3 * math.sqrt(3) / 4
        assert p.q == pytest.approx(4 / (3 - 1.5 * math.log(base) / math.log(21)), rel=1e-12)

    def test_even_n_floors_k(self):
        assert GaussianScheduleParams.from_n_eps(22, 0.5).k == 10

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            GaussianScheduleParams.from_n_eps(21, 0.0)
        with pytest.raises(ValueError):
            GaussianScheduleParams.from_n_eps(2, 0.5)
        for eps in (math.nan, math.inf, 1.5):
            with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\]"):
                GaussianScheduleParams.from_n_eps(9, eps)

    def test_certificate_fits_window(self):
        p = GaussianScheduleParams.from_n_eps(41, 0.5)
        cert = build_gaussian_certificate(p)
        assert len(cert.f.values) == 2 * p.m_trunc + 1 <= 41
        assert cert.kind == "gaussian"
        assert cert.implied_t_bound == pytest.approx(4 / p.q, rel=1e-14)

    def test_hausdorff_young_sanity(self):
        # lhs can never exceed the 4/3 norm
        for n in (9, 21, 41):
            cert = build_gaussian_certificate(GaussianScheduleParams.from_n_eps(n, 0.5))
            assert cert.lhs <= lq_norm(cert.f, 4 / 3) * (1 + 1e-12)

    def test_validity_landscape(self):
        assert not build_gaussian_certificate(GaussianScheduleParams.from_n_eps(5, 0.5)).valid
        assert build_gaussian_certificate(GaussianScheduleParams.from_n_eps(9, 0.5)).valid
        assert build_gaussian_certificate(GaussianScheduleParams.from_n_eps(3, 0.5)).valid

    def test_margin_agrees_with_norms(self):
        cert = build_gaussian_certificate(GaussianScheduleParams.from_n_eps(31, 0.5))
        assert cert.lhs ** 4 == pytest.approx(float(fourier_l4_pow4(cert.f)), rel=1e-12)
        assert cert.rhs == pytest.approx(lq_norm(cert.f, cert.q), rel=1e-12)


class TestDiscretizationReport:
    def test_small_k_report(self):
        rep = continuum_discretization_report(GaussianScheduleParams.from_n_eps(201, 0.5))
        for field in ("cell_deviation", "l4_deviation", "lq_deviation",
                      "truncation_deficit", "parity_lq_gap"):
            value = getattr(rep, field)
            assert math.isfinite(value) and value >= 0
        assert rep.g_l4hat > rep.gm_l4hat  # truncation only loses mass
        assert rep.g_lq > rep.gm_lq
        assert rep.cell_ratio == pytest.approx(rep.cell_deviation * math.sqrt(100), rel=1e-12)

    def test_deviations_shrink_with_k(self):
        r1 = continuum_discretization_report(GaussianScheduleParams.from_n_eps(201, 0.5))
        r2 = continuum_discretization_report(GaussianScheduleParams.from_n_eps(801, 0.5))
        assert r2.cell_deviation < r1.cell_deviation
        assert r2.l4_deviation < r1.l4_deviation
        assert r2.lq_deviation < r1.lq_deviation


class TestValidityRules:
    def test_never_valid_at_four_thirds(self):
        import numpy as np
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = int(rng.integers(1, 12))
            f = DiscreteFunction(0, tuple(float(abs(v)) for v in rng.standard_normal(m)))
            if f.is_zero:
                continue
            cert = evaluate_certificate("explicit", max(2, m), 4 / 3, f)
            assert not cert.valid

    def test_support_must_fit_window(self):
        f = DiscreteFunction(0, (1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            evaluate_certificate("explicit", 2, 1.5, f)

    @pytest.mark.parametrize("scale", [1e-310, 1e-300])
    def test_stored_fields_check_their_own_verdict(self, scale):
        # the scaled comparison proves the gap, but err stored times 2^e
        # flushes to 0.0 (1e-310) or to a subnormal (1e-300): not valid
        f = DiscreteFunction(0, (scale, 1.5 * scale, scale))
        cert = evaluate_certificate("explicit", 3, 1.9, f)
        assert cert.margin > 0 and cert.err < sys.float_info.min
        assert not cert.valid
        back = revalidate_certificate(certificate_from_dict(
            json.loads(json.dumps(certificate_to_dict(cert)))))
        assert back == cert

    def test_normal_scale_stays_valid(self):
        cert = evaluate_certificate("explicit", 3, 1.9, DiscreteFunction(0, (1.0, 1.5, 1.0)))
        assert cert.valid and cert.margin > cert.err >= sys.float_info.min


class TestSerialization:
    def test_round_trip(self):
        cert = build_perturbation_certificate(9)
        blob = json.dumps(certificate_to_dict(cert))
        back = certificate_from_dict(json.loads(blob))
        assert back.kind == cert.kind and back.n == cert.n
        assert back.q == cert.q and back.valid == cert.valid
        assert back.lhs == cert.lhs and back.margin == cert.margin
        fresh = revalidate_certificate(back)
        assert fresh.valid
        assert fresh.margin == pytest.approx(cert.margin, rel=1e-9)

    def test_gaussian_round_trip(self):
        cert = build_gaussian_certificate(GaussianScheduleParams.from_n_eps(21, 0.5))
        back = certificate_from_dict(certificate_to_dict(cert))
        assert revalidate_certificate(back).valid == cert.valid

    @pytest.mark.parametrize("n", [3, 9, 300])
    def test_perturbation_revalidation_reproduces(self, n):
        cert = build_perturbation_certificate(n)
        fresh = revalidate_certificate(certificate_from_dict(certificate_to_dict(cert)))
        for field in ("q", "lhs", "rhs", "margin", "err", "implied_t_bound", "valid"):
            assert getattr(fresh, field) == getattr(cert, field), field

    def test_gaussian_above_cap_revalidation_reproduces(self):
        # support 28565: the FFT regime, whose err must come back unchanged
        cert = build_gaussian_certificate(GaussianScheduleParams.from_n_eps(30001, 0.51))
        assert cert.valid and len(cert.f.values) > 2048
        fresh = revalidate_certificate(
            certificate_from_dict(json.loads(json.dumps(certificate_to_dict(cert)))))
        for field in ("q", "lhs", "rhs", "margin", "err", "implied_t_bound", "valid"):
            assert getattr(fresh, field) == getattr(cert, field), field

    def test_float_values_round_trip(self):
        from energylab.optimizer import OptimizerConfig, maximize_ratio
        cert = maximize_ratio(OptimizerConfig(n=3, q=1.48, seed=7)).certificate
        back = certificate_from_dict(json.loads(json.dumps(certificate_to_dict(cert))))
        assert back.f == cert.f
        assert revalidate_certificate(back) == cert

    @pytest.mark.parametrize("bad", ["0.1000000000000000000001", "1e-400", "nan"])
    def test_from_dict_rejects_values_it_would_round(self, bad):
        # each would read back as another float (0.1, 0.0) or as no number at all
        d = certificate_to_dict(build_perturbation_certificate(3))
        d["values"][1] = bad
        with pytest.raises(ValueError, match="value 1 "):
            certificate_from_dict(d)

    @pytest.mark.parametrize("bad_at", [1, 2])
    def test_palindrome_reports_first_bad_index(self, bad_at):
        # a palindrome reads its first half only: the bad value is reported at
        # its first index, whichever copy was altered
        cert = build_gaussian_certificate(GaussianScheduleParams.from_n_eps(21, 0.5))
        d = certificate_to_dict(cert)
        m = len(d["values"])
        d["values"][bad_at] = d["values"][m - 1 - bad_at] = "1e-400"
        with pytest.raises(ValueError, match=f"value {bad_at} "):
            certificate_from_dict(d)
        d["values"][m - 1 - bad_at] = "0.5"  # no palindrome now: read in full
        with pytest.raises(ValueError, match=f"value {bad_at} "):
            certificate_from_dict(d)

    @pytest.mark.parametrize("where", ["first", "second", "both"])
    def test_palindrome_inexact_value_reported_at_first_index(self, where):
        # an inexact string in the first half, the second half or both copies
        # of a palindrome is reported at the first index that holds one
        cert = build_gaussian_certificate(GaussianScheduleParams.from_n_eps(21, 0.5))
        d = certificate_to_dict(cert)
        m = len(d["values"])
        at = {"first": [2], "second": [m - 3], "both": [2, m - 3]}[where]
        for i in at:
            d["values"][i] = "0.1000000000000000000001"
        with pytest.raises(ValueError, match=f"value {at[0]} "):
            certificate_from_dict(d)

    def test_first_bad_value_reported_before_unconvertible_one(self):
        # float() refuses the later value outright; the first bad one is reported
        d = certificate_to_dict(build_perturbation_certificate(3))
        d["values"][1], d["values"][2] = "1e-400", 10 ** 400
        with pytest.raises(ValueError, match="value 1 "):
            certificate_from_dict(d)

    @pytest.mark.parametrize("copies", [1, 2])
    def test_exact_non_shortest_value_accepted(self, copies):
        # a value written as its exact decimal expansion, not its shortest
        # repr, reads back as the same float, in one copy or both copies of a
        # palindrome
        cert = build_gaussian_certificate(GaussianScheduleParams.from_n_eps(21, 0.5))
        d = certificate_to_dict(cert)
        m = len(d["values"])
        exact = str(Decimal(cert.f.values[1]))
        assert exact != d["values"][1] and float(exact) == cert.f.values[1]
        for i in (1, m - 2)[:copies]:
            d["values"][i] = exact
        back = certificate_from_dict(d)
        assert back.f.values.tobytes() == cert.f.values.tobytes()

    def test_mirrored_values_read_back_bitwise(self):
        f = DiscreteFunction(3, (1.0, -0.0, 0.0, 1.0))  # one signed zero: no palindrome
        for g in (f, DiscreteFunction(3, (0.5, 1e-310, 2.0, 1e-310, 0.5))):
            cert = evaluate_certificate("explicit", 9, 1.9, g)
            back = certificate_from_dict(certificate_to_dict(cert))
            assert back.f.offset == g.offset and back.f.values.tobytes() == g.values.tobytes()
        assert certificate_to_dict(cert)["values"] == ["0.5", "1e-310", "2.0", "1e-310", "0.5"]

    def test_from_dict_reads_exact_values(self):
        # a float's shortest repr, and any decimal whose value is a float64 number
        d = certificate_to_dict(build_perturbation_certificate(3))
        d["values"] = ["0.1", "1.50", "2", "1e-323"]
        d["n"] = 4
        back = certificate_from_dict(d)
        assert back.f.values.tolist() == [0.1, 1.5, 2.0, 1e-323]

    def test_dict_schema(self):
        d = certificate_to_dict(build_perturbation_certificate(3))
        assert set(d) == {"kind", "n", "q", "offset", "values", "lhs", "rhs",
                          "margin", "err", "implied_t_bound", "valid"}
        assert all(isinstance(v, str) for v in d["values"])
