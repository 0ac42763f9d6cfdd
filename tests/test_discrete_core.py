import math

import numpy as np
import pytest
from mpmath import mp

from energylab.discrete_core import (CapExceededError, DiscreteFunction, InvalidExponentError,
                                     LatticeSet, ZeroFunctionError, add, energy_bruteforce,
                                     energy_interval_formula, energy_of_set, fourier_l4_pow4,
                                     fourier_l4_pow4_quadruple, lq_norm, ratio_report,
                                     tensor_power, trivial_lower_bound)


def indicator(*pts):
    return DiscreteFunction.indicator(pts)


class TestDiscreteFunction:
    def test_canonical_trimming(self):
        f = DiscreteFunction(3, (0, 0, 1.0, 2.0, 0))
        assert f.offset == 5
        assert f.values == (1.0, 2.0)

    def test_zero_function(self):
        z = DiscreteFunction(17, (0, 0.0, 0))
        assert z.is_zero
        assert z.offset == 0 and z.values == ()

    def test_interior_zeros_kept(self):
        f = DiscreteFunction(0, (1, 0, 2))
        assert f.values == (1, 0, 2)
        assert f(1) == 0 and f(2) == 2 and f(99) == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan"),
                                     mp.mpf("inf"), mp.mpf("nan")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            DiscreteFunction(0, (1.0, bad, 2.0))

    def test_indicator_and_support(self):
        f = indicator(-1, 0, 1)
        assert f.offset == -1 and f.values == (1, 1, 1)
        assert list(f.support()) == [-1, 0, 1]


class TestNorms:
    def test_delta_lq(self):
        assert lq_norm(DiscreteFunction.delta(), 4 / 3) == 1.0

    def test_equal_masses(self):
        assert lq_norm(indicator(0, 1, 2), 4 / 3) == pytest.approx(3 ** 0.75, rel=1e-14)

    def test_two_values(self):
        f = DiscreteFunction(0, (1.0, 2.0))
        assert lq_norm(f, 2) == pytest.approx(math.sqrt(5), rel=1e-14)

    def test_invalid_exponent(self):
        with pytest.raises(InvalidExponentError):
            lq_norm(DiscreteFunction.delta(), 0.9)

    def test_zero_function_norm(self):
        assert lq_norm(DiscreteFunction(), 1.5) == 0.0

    def test_pow4_examples(self):
        assert fourier_l4_pow4(DiscreteFunction.delta()) == 1
        assert fourier_l4_pow4(indicator(0, 1)) == 6
        assert fourier_l4_pow4(indicator(0, 1, 2)) == 19

    def test_pow4_exact_equals_energy(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            vals = sorted(set(int(v) for v in rng.integers(0, 12, size=rng.integers(1, 8))))
            f = DiscreteFunction.indicator(vals)
            assert fourier_l4_pow4(f) == energy_of_set(LatticeSet.from_values(vals))

    def test_pow4_quadruple_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = int(rng.integers(1, 12))
            f = DiscreteFunction(int(rng.integers(-5, 5)), tuple(rng.standard_normal(m)))
            quad = fourier_l4_pow4_quadruple(f)
            conv = fourier_l4_pow4(f)
            assert quad == pytest.approx(conv, rel=1e-10, abs=1e-12)

    def test_exact_pow4_pack_cap(self):
        # a 2^-(10^7) spread between mpf values would pack ~4e7 bits per operand
        f = DiscreteFunction(0, (mp.ldexp(1, -10 ** 7), mp.mpf(1)))
        with pytest.raises(CapExceededError):
            fourier_l4_pow4(f)

    def test_quadruple_cap(self):
        f = DiscreteFunction(0, tuple(float(i + 1) for i in range(70)))
        with pytest.raises(CapExceededError):
            fourier_l4_pow4_quadruple(f)


class TestRatioReport:
    def test_delta_ratio_one(self):
        for q in (4 / 3, 1.5, 2.0):
            rep = ratio_report(DiscreteFunction.delta(), q)
            assert rep.ratio == 1.0
            assert rep.err < 1e-12

    def test_pair_at_four_thirds(self):
        rep = ratio_report(indicator(0, 1), 4 / 3)
        assert rep.ratio == pytest.approx(6 ** 0.25 / 2 ** 0.75, rel=1e-13)
        assert rep.ratio == pytest.approx(0.9306, abs=1e-4)

    def test_pair_at_critical_q(self):
        q2 = 4 / math.log2(6)
        rep = ratio_report(indicator(0, 1), q2)
        assert abs(rep.ratio - 1.0) <= rep.err + 1e-15

    def test_ratio_consistency(self):
        rep = ratio_report(indicator(2, 3, 5), 1.7)
        assert rep.ratio == rep.l4hat / rep.lq

    def test_zero_function_rejected(self):
        with pytest.raises(ZeroFunctionError):
            ratio_report(DiscreteFunction(), 1.5)

    def test_abs_monotonicity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = int(rng.integers(2, 20))
            f = DiscreteFunction(0, tuple(rng.standard_normal(m)))
            if f.is_zero:
                continue
            q = float(rng.uniform(4 / 3, 2))
            assert fourier_l4_pow4(f.abs()) >= fourier_l4_pow4(f) - 1e-12
            assert lq_norm(f.abs(), q) == pytest.approx(lq_norm(f, q), rel=1e-14)

    def test_hausdorff_young_sample(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            m = int(rng.integers(1, 33))
            f = DiscreteFunction(int(rng.integers(-9, 9)), tuple(rng.standard_normal(m)))
            if f.is_zero:
                continue
            rep = ratio_report(f, 4 / 3)
            assert rep.ratio <= 1 + rep.err + 1e-12

    def test_sandwich_sample(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            m = int(rng.integers(1, 33))
            f = DiscreteFunction(0, tuple(rng.standard_normal(m)))
            if f.is_zero:
                continue
            q = float(rng.uniform(4 / 3, 2))
            lq = lq_norm(f, q)
            l43 = lq_norm(f, 4 / 3)
            supp = sum(1 for v in f.values if v != 0)
            assert lq <= l43 * (1 + 1e-12)
            assert l43 <= supp ** (0.75 - 1 / q) * lq * (1 + 1e-12)


class TestEnergies:
    def test_singleton(self):
        assert energy_of_set(LatticeSet.from_values([0])) == 1

    def test_pair(self):
        assert energy_of_set(LatticeSet.from_values([0, 1])) == 6
        assert energy_bruteforce(LatticeSet.from_values([0, 1])) == 6

    def test_gapped_triple(self):
        A = LatticeSet.from_values([0, 2, 3])
        assert energy_of_set(A) == energy_bruteforce(A) == 15

    def test_empty(self):
        empty = LatticeSet(1, 1, frozenset())
        assert energy_of_set(empty) == 0
        assert energy_bruteforce(empty) == 0

    def test_interval_formula_small(self):
        assert [energy_interval_formula(n) for n in (1, 2, 3)] == [1, 6, 19]
        for n in (1, 7, 50, 200):
            assert energy_of_set(LatticeSet.from_range(n)) == energy_interval_formula(n)

    def test_bruteforce_matches_fast(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(2, 7 - d))
            count = int(rng.integers(1, min(40, n ** d) + 1))
            all_pts = [tuple(p) for p in np.stack(np.meshgrid(*[np.arange(n)] * d),
                                                  axis=-1).reshape(-1, d)]
            idx = rng.choice(len(all_pts), size=count, replace=False)
            A = LatticeSet(d, n, frozenset(all_pts[i] for i in idx))
            assert energy_of_set(A) == energy_bruteforce(A)

    def test_bincount_path_matches_hashmap(self):
        # side-n interval energies are large enough to hit the dense path
        A = LatticeSet.from_range(150)
        from energylab.discrete_core import _energy_hashmap
        assert energy_of_set(A) == _energy_hashmap(sorted(A.points))

    def test_bruteforce_cap(self):
        with pytest.raises(CapExceededError):
            energy_bruteforce(LatticeSet.from_range(301))

    def test_tensor_examples(self):
        pair = LatticeSet.from_values([0, 1])
        sq = tensor_power(pair, 2)
        assert sq.size == 4 and energy_of_set(sq) == 36
        triple = LatticeSet.from_values([0, 1, 2])
        assert energy_of_set(tensor_power(triple, 2)) == 361 == 19 ** 2

    def test_tensor_identity_d1(self):
        A = LatticeSet.from_points([(0, 1), (2, 2)], side=3)
        assert tensor_power(A, 1) is A

    def test_tensor_requires_1d(self):
        A = LatticeSet.from_points([(0, 1)], side=2)
        with pytest.raises(ValueError):
            tensor_power(A, 2)

    def test_tensor_cap(self):
        A = LatticeSet.from_range(200)
        with pytest.raises(CapExceededError):
            tensor_power(A, 4)

    def test_tensor_energy_multiplicativity(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            vals = sorted(int(v) for v in rng.choice(5, size=rng.integers(1, 6), replace=False))
            A = LatticeSet(1, 5, frozenset((v,) for v in vals))
            e = energy_of_set(A)
            for d in (2, 3):
                assert energy_of_set(tensor_power(A, d)) == e ** d

    def test_lattice_validation(self):
        with pytest.raises(ValueError):
            LatticeSet(2, 3, frozenset({(0, 3)}))
        with pytest.raises(ValueError):
            LatticeSet(2, 3, frozenset({(0,)}))


class TestTrivialBound:
    def test_examples(self):
        assert trivial_lower_bound(2) == pytest.approx(math.log2(6), rel=1e-14)
        assert trivial_lower_bound(3) == pytest.approx(math.log(19) / math.log(3), rel=1e-14)
        assert trivial_lower_bound(10) == pytest.approx(math.log10(670), rel=1e-14)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            trivial_lower_bound(1)


def test_add_pointwise():
    f = indicator(0, 1)
    g = DiscreteFunction.delta(0, 0.5)
    h = add(f, g)
    assert h(0) == 1.5 and h(1) == 1


def test_float_path_matches_extended_precision(monkeypatch):
    # the two norm regimes must agree far beyond their error bounds
    from energylab import precision
    rng = np.random.default_rng(9)
    f = DiscreteFunction(0, tuple(float(v) for v in rng.random(600) + 0.1))
    hp = ratio_report(f, 1.6)
    monkeypatch.setattr(precision, "HP_SUPPORT_CAP", 100)
    fl = ratio_report(f, 1.6)
    assert fl.ratio == pytest.approx(hp.ratio, rel=1e-12)
    assert fl.err < 1e-9 and hp.err < fl.err
