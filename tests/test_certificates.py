import dataclasses
import json
import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from energylab import certificates
from energylab.certificates import (Certificate, GaussianScheduleParams,
                                    build_gaussian_certificate, build_perturbation_certificate,
                                    certificate_from_dict, certificate_to_dict, continuum_discretization_report,
                                    evaluate_certificate, interval_overlap_sum,
                                    revalidate_certificate)
from energylab.discrete_core import (FLOAT64_EPS, DiscreteFunction, _norm_pair, fourier_l4_pow4,
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

    def test_default_evaluates_once(self, monkeypatch):
        calls = []
        evaluate = certificates.evaluate_certificate

        def counting_evaluate(*args):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(certificates, "evaluate_certificate", counting_evaluate)
        build_perturbation_certificate(64)
        assert len(calls) == 1

    @pytest.mark.parametrize("n", [3, 4, 7, 64, 300, 2048, 2049])
    def test_default_has_largest_grid_margin(self, n):
        # the default eps = 1/2 beats every other eps of {2^-j : j = 1..20};
        # the certified bound 4/q is the same for all of them
        cert = build_perturbation_certificate(n)
        grid = [build_perturbation_certificate(n, Fraction(1, 2 ** j)) for j in range(1, 21)]
        assert cert.valid
        assert cert == grid[0]
        assert all(other.q == cert.q for other in grid)
        assert all(cert.margin > other.margin for other in grid[1:])

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


def _two_clause_verdict(f, q):
    """The verdict evaluate_certificate once stored beside the numbers: the
    scaled comparison gap > err > 0 on _norm_pair's prescale and the
    stored-field one, margin > err >= 2^-1022."""
    a, b, e, rel_a, rel_b = _norm_pair(f, q)
    u = FLOAT64_EPS / 2.0
    gap = a - b
    err = (rel_a * a / (1.0 - rel_a) + rel_b * b / (1.0 - rel_b) + u * abs(gap)) \
        * (1.0 + 2.0 ** -40)
    _, _, margin, err_f = np.ldexp([a, b, gap, err], e).tolist()
    return gap > err > 0.0 and margin > err_f >= sys.float_info.min


class TestValidityRules:
    def test_certificate_stores_numbers_only(self):
        assert [f.name for f in dataclasses.fields(Certificate)] == [
            "kind", "n", "q", "f", "lhs", "rhs", "margin", "err"]
        cert = build_perturbation_certificate(5)
        assert cert.implied_t_bound == 4.0 / cert.q

    def test_derived_verdict_matches_two_clause_rule(self):
        # the stored-field clause alone decides as both clauses did: at the
        # eps -> 0 equality boundary of the perturbation, on Gaussians, and
        # on random functions at scales 10^-300 .. 10^300, where err can be
        # stored as a subnormal while the scaled comparison holds
        certs = [build_perturbation_certificate(n) for n in range(3, 200)]
        certs += [build_perturbation_certificate(n, eps) for n in range(3, 200, 4)
                  for eps in (0.0, 1e-16, 1e-15, 1e-14, 1e-13, 1e-12)]
        certs += [build_gaussian_certificate(GaussianScheduleParams.from_n_eps(n, eps))
                  for n in (3, 5, 9, 41, 401) for eps in (0.05, 0.5, 1.0)]
        rng = np.random.default_rng(29)
        for _ in range(3000):
            values = rng.random(int(rng.integers(1, 9))) * 10.0 ** rng.uniform(-300, 300)
            certs.append(evaluate_certificate("explicit", 8, rng.uniform(4 / 3, 2.0),
                                              DiscreteFunction(0, values)))
        verdicts = [cert.valid for cert in certs]
        assert verdicts == [_two_clause_verdict(cert.f, cert.q) for cert in certs]
        assert len(certs) > 3500 and 0 < sum(verdicts) < len(certs)
        assert any(c.margin > c.err and c.err < sys.float_info.min for c in certs)

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

    def test_norm_overflow_rejected(self):
        # both norms are finite on their common prescale but overflow float64
        with pytest.raises(ValueError, match="overflow"):
            evaluate_certificate("explicit", 2, 1.5, DiscreteFunction(0, (1.7e308, 1.7e308)))

    def test_largest_finite_norms_and_zero_function(self):
        top = evaluate_certificate("explicit", 2, 1.5, DiscreteFunction(0, (sys.float_info.max,)))
        assert top.lhs == sys.float_info.max and math.isfinite(top.rhs) and not top.valid
        zero = evaluate_certificate("explicit", 2, 1.5, DiscreteFunction())
        assert (zero.lhs, zero.rhs, zero.margin, zero.err, zero.valid) == (0.0, 0.0, 0.0, 0.0, False)


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

    @pytest.mark.parametrize("offset", [-1.9, 0.5, "1", True])
    def test_from_dict_rejects_non_integral_offset(self, offset):
        # an offset is read as the integer it equals, never truncated
        d = certificate_to_dict(build_perturbation_certificate(3))
        d["offset"] = offset
        with pytest.raises(ValueError, match="offset"):
            certificate_from_dict(d)
        d["offset"] = -2.0
        assert certificate_from_dict(d).f.offset == -2

    @pytest.mark.parametrize("values, match", [
        ("101", "must be a list"), ({"0": "1.0"}, "must be a list"),
        (["1.0", 0.5, "1.0"], "value 1 .* not a string"),
        (["1.0", True, "1.0"], "value 1 .* not a string"),
        (["1.0", ["0.5"], "1.0"], "value 1 .* not a string")])
    def test_from_dict_rejects_values_not_written_as_strings(self, values, match):
        # certificate_to_dict writes a list of strings; a string such as "101"
        # must not be read character by character
        d = certificate_to_dict(build_perturbation_certificate(3))
        d["values"] = values
        with pytest.raises(ValueError, match=match):
            certificate_from_dict(d)

    @pytest.mark.parametrize("field, bad", [
        ("valid", "false"),  # bool("false") is True
        ("valid", 1),
        ("n", 5.9),  # int(5.9) is 5
        ("n", True),
        ("lhs", "1e999"),  # float("1e999") is inf
        ("q", "nan"),
        ("rhs", math.inf),
        ("margin", 10 ** 400),
        ("err", None),
        ("implied_t_bound", False)])
    def test_from_dict_rejects_mistyped_fields(self, field, bad):
        # each field must have its JSON type; none is converted on trust
        d = certificate_to_dict(build_perturbation_certificate(5))
        assert certificate_from_dict(d).valid
        d[field] = bad
        with pytest.raises(ValueError, match=f"'{field}'"):
            certificate_from_dict(d)

    @pytest.mark.parametrize("field", ["kind", "n", "q", "offset", "values", "lhs", "rhs",
                                       "margin", "err", "implied_t_bound", "valid"])
    def test_from_dict_rejects_missing_fields(self, field):
        # a missing field is a ValueError that names it, not a bare KeyError
        d = certificate_to_dict(build_perturbation_certificate(5))
        del d[field]
        with pytest.raises(ValueError, match=f"'{field}' is missing"):
            certificate_from_dict(d)

    @pytest.mark.parametrize("edit, field", [
        ({"valid": False}, "valid"),
        ({"margin": -1.0}, "valid"),  # valid left true
        ({"err": 1.0}, "valid"),
        ({"implied_t_bound": 2.999}, "implied_t_bound"),
        ({"q": 0.0}, "q"),
        ({"q": 0.5, "implied_t_bound": 8.0}, "q"),
        ({"q": 513.0, "implied_t_bound": 4.0 / 513.0}, "q")])
    def test_from_dict_refuses_a_contradicted_verdict(self, edit, field):
        # valid and implied_t_bound are what the stored numbers give, or the
        # certificate is refused
        d = certificate_to_dict(build_perturbation_certificate(5))
        assert d["valid"] is True and d["err"] < 1.0
        d.update(edit)
        with pytest.raises(ValueError, match=f"'{field}'"):
            certificate_from_dict(json.loads(json.dumps(d)))

    def test_from_dict_reads_the_derived_verdict(self):
        # a stored verdict equal to the derived one reads back, false too;
        # an integral float written as a JSON integer is another type
        d = certificate_to_dict(build_perturbation_certificate(5, 0))
        assert d["valid"] is False and certificate_from_dict(d).valid is False
        d.update(q=2.0, implied_t_bound=2.0)
        assert certificate_from_dict(d).implied_t_bound == 2.0
        d["implied_t_bound"] = 2
        with pytest.raises(ValueError, match="'implied_t_bound' is 2, "):
            certificate_from_dict(d)

    def test_from_dict_reads_integer_numbers(self):
        # a JSON integer is a number, as 1.0 is
        d = certificate_to_dict(build_perturbation_certificate(5))
        d["margin"] = 1
        assert certificate_from_dict(d).margin == 1.0

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

    @pytest.mark.parametrize("m", [2, 3, 6, 7])
    def test_palindrome_but_one_reads_as_written(self, m):
        # a palindrome but for one value of its second half is no palindrome:
        # all m values read back as written, none mirrored from the first half
        d = certificate_to_dict(build_perturbation_certificate(7))
        half = [repr(0.5 + i / 8) for i in range(m // 2)]
        middle = ["1.0"] if m % 2 else []
        for i in range((m + 1) // 2, m):
            d["values"] = half + middle + half[::-1]
            d["values"][i] = "0.125"
            back = certificate_from_dict(d)
            assert back.f.values.tolist() == [float(s) for s in d["values"]]

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
