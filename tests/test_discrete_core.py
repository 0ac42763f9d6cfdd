import math

import numpy as np
import pytest
from mpmath import mp

from energylab import discrete_core
from energylab.discrete_core import (CapExceededError, DiscreteFunction, InvalidExponentError,
                                     LatticeSet, ZeroFunctionError, _energy_fft, _energy_sorted,
                                     _lattice_keys, energy_bruteforce,
                                     energy_interval_formula, energy_of_set, fourier_l4_pow4,
                                     fourier_l4_pow4_quadruple, lq_norm, lq_norm_with_error,
                                     ratio_report, tensor_power, trivial_lower_bound)


def indicator(*pts):
    return DiscreteFunction.indicator(pts)


class TestDiscreteFunction:
    def test_canonical_trimming(self):
        f = DiscreteFunction(3, (0, 0, 1.0, 2.0, 0))
        assert f.offset == 5
        assert f.values.tolist() == [1.0, 2.0]
        assert f.values.dtype == np.float64 and f.values.flags.c_contiguous

    def test_zero_function(self):
        z = DiscreteFunction(17, (0, 0.0, 0))
        assert z.is_zero
        assert z.offset == 0 and z.values.tolist() == []

    def test_interior_zeros_kept(self):
        f = DiscreteFunction(0, (1, 0, 2))
        assert f.values.tolist() == [1.0, 0.0, 2.0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan"),
                                     mp.mpf("inf"), mp.mpf("nan")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            DiscreteFunction(0, (1.0, bad, 2.0))
        with pytest.raises(ValueError, match="finite"):
            DiscreteFunction(0, np.array([1.0, bad, 2.0]))

    def test_int_beyond_float64_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            DiscreteFunction(0, [10 ** 400])
        with pytest.raises(ValueError, match="finite"):
            DiscreteFunction(0, (1.0, -10 ** 400))

    def test_values_read_only(self):
        f = DiscreteFunction(0, (1.0, 2.0))
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_input_copied(self):
        src = np.array([0.0, 1.0, 2.0])
        f = DiscreteFunction(0, src)
        src[1] = 5.0
        assert f == DiscreteFunction(1, (1.0, 2.0))
        assert f.values.tolist() == [1.0, 2.0]

    def test_equality_compares_values(self):
        assert DiscreteFunction(0, (0.0, 1.0)) == DiscreteFunction(1, np.ones(1))
        assert DiscreteFunction(0, (1.0,)) != DiscreteFunction(1, (1.0,))
        assert DiscreteFunction(0, (1.0,)) != DiscreteFunction(0, (1.0, 1.0))
        with pytest.raises(TypeError):
            hash(DiscreteFunction(0, (1.0,)))

    def test_indicator_and_support(self):
        f = indicator(1, -1, 0, 1)
        assert f.offset == -1 and f.values.tolist() == [1.0, 1.0, 1.0]
        assert DiscreteFunction.indicator([]).is_zero


class TestNorms:
    def test_delta_lq(self):
        assert lq_norm(indicator(0), 4 / 3) == 1.0

    def test_equal_masses(self):
        assert lq_norm(indicator(0, 1, 2), 4 / 3) == pytest.approx(3 ** 0.75, rel=1e-14)

    def test_two_values(self):
        f = DiscreteFunction(0, (1.0, 2.0))
        assert lq_norm(f, 2) == pytest.approx(math.sqrt(5), rel=1e-14)

    def test_invalid_exponent(self):
        # q > 512 could overflow the float64 powers of the prescaled values
        for q in (0.9, 600.0, math.nan):
            with pytest.raises(InvalidExponentError):
                lq_norm(DiscreteFunction(0, (1.9, 1.0)), q)

    def test_zero_function_norm(self):
        assert lq_norm(DiscreteFunction(), 1.5) == 0.0

    def test_runs_of_equal_values(self):
        # the same values in another order: equal sums, within both bounds
        runs = DiscreteFunction(0, (1, 1, 1, 0.5, 0.5, 3, 1, 1))
        mixed = DiscreteFunction(0, (1, 0.5, 1, 3, 1, 0.5, 1, 1.0))
        assert len(mixed.values) == len(runs.values)
        a, e_a, rel_a = lq_norm_with_error(runs, 1.7)
        b, e_b, rel_b = lq_norm_with_error(mixed, 1.7)
        assert e_a == e_b and abs(a - b) <= (rel_a + rel_b) * b
        assert math.ldexp(a, e_a) == pytest.approx((5 + 2 * 0.5 ** 1.7 + 3 ** 1.7) ** (1 / 1.7),
                                                   rel=1e-15)

    def test_pow4_examples(self):
        assert fourier_l4_pow4(indicator(0)) == 1
        assert fourier_l4_pow4(indicator(0, 1)) == 6
        assert fourier_l4_pow4(indicator(0, 1, 2)) == 19

    def test_pow4_exact_equals_energy(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            vals = sorted(set(int(v) for v in rng.integers(0, 12, size=rng.integers(1, 8))))
            f = DiscreteFunction.indicator(vals)
            pow4 = fourier_l4_pow4(f)
            assert type(pow4) is int and pow4 == energy_of_set(LatticeSet.from_values(vals))

    def test_pow4_quadruple_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = int(rng.integers(1, 12))
            f = DiscreteFunction(int(rng.integers(-5, 5)), tuple(rng.standard_normal(m)))
            quad = fourier_l4_pow4_quadruple(f)
            conv = fourier_l4_pow4(f)
            assert quad == pytest.approx(conv, rel=1e-10, abs=1e-12)

    def test_exact_pow4_pack_cap(self):
        # integer values near 2^997 at support 20000 pack ~4.0e7 bits per operand
        f = DiscreteFunction(0, (1e300,) * 20000)
        with pytest.raises(CapExceededError):
            fourier_l4_pow4(f)

    def test_quadruple_cap(self):
        f = DiscreteFunction(0, tuple(float(i + 1) for i in range(70)))
        with pytest.raises(CapExceededError):
            fourier_l4_pow4_quadruple(f)


class TestRatioReport:
    def test_delta_ratio_one(self):
        for q in (4 / 3, 1.5, 2.0):
            rep = ratio_report(indicator(0), q)
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

    def test_norm_overflow_rejected(self):
        # both norms are finite on their prescale but overflow float64
        with pytest.raises(ValueError, match="overflow"):
            ratio_report(DiscreteFunction(0, (1.7e308, 1.7e308)), 1.5)

    def test_abs_monotonicity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = int(rng.integers(2, 20))
            f = DiscreteFunction(0, tuple(rng.standard_normal(m)))
            if f.is_zero:
                continue
            q = float(rng.uniform(4 / 3, 2))
            f_abs = DiscreteFunction(f.offset, tuple(abs(v) for v in f.values))
            assert fourier_l4_pow4(f_abs) >= fourier_l4_pow4(f) - 1e-12
            assert lq_norm(f_abs, q) == pytest.approx(lq_norm(f, q), rel=1e-14)

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

    def test_fft_path_matches_sorted(self):
        # side-n interval energies are large enough to hit the dense path
        A = LatticeSet.from_range(150)
        keys = _lattice_keys(A)
        assert _energy_fft(keys) == _energy_sorted(keys) == energy_interval_formula(150)

    def test_object_keys(self):
        # 25^20 > 2^62, so the keys are Python ints in an object array
        diagonal = LatticeSet(20, 13, frozenset((a,) * 20 for a in range(13)))
        assert _lattice_keys(diagonal).dtype == object
        assert energy_of_set(diagonal) == energy_interval_formula(13)
        # {0, 2, 3}^3 padded with constant coordinates: E = E({0, 2, 3})^3
        cube = tensor_power(LatticeSet.from_values([0, 2, 3]), 3)
        padded = LatticeSet(20, 13, [p + [12] * 17 for p in cube.points.tolist()])
        assert energy_of_set(padded) == 15 ** 3
        rng = np.random.default_rng(20)
        for size in (1, 2, 30):
            A = LatticeSet(20, 13, frozenset(tuple(int(c) for c in rng.integers(0, 13, 20))
                                             for _ in range(size)))
            assert energy_of_set(A) == energy_bruteforce(A)

    @pytest.mark.parametrize("pad", [0, 16], ids=["int64", "object"])
    def test_sorted_blocks_merge(self, monkeypatch, pad):
        # {0, 1, 3}^4, padded to 20 coordinates in a side-13 cube for object keys
        base = LatticeSet.from_values([0, 1, 3])
        cube = tensor_power(base, 4)
        A = LatticeSet(4 + pad, 13, [p + [0] * pad for p in cube.points.tolist()])
        keys = _lattice_keys(A)
        assert (keys.dtype == object) == (pad > 0)
        want = energy_of_set(base) ** 4
        assert _energy_sorted(keys) == want
        # one key per row block, and a merge after every second block
        monkeypatch.setattr(discrete_core, "_SORT_BLOCK", 3 * len(keys) // 2)
        assert _energy_sorted(keys) == want

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
        A = LatticeSet(2, 3, [(0, 1), (2, 2)])
        assert tensor_power(A, 1) is A

    def test_tensor_requires_1d(self):
        A = LatticeSet(2, 2, [(0, 1)])
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

    def test_tensor_sixth_power_on_sorted_path(self, monkeypatch):
        A = LatticeSet.from_values([0, 5, 12])
        e = energy_of_set(A)
        # 729 points whose key span 25^6/2 exceeds the FFT cap
        monkeypatch.setattr(discrete_core, "_energy_fft", None)
        assert energy_of_set(tensor_power(A, 6)) == e ** 6 == 15 ** 6

    def test_lattice_validation(self):
        with pytest.raises(ValueError):
            LatticeSet(2, 3, frozenset({(0, 3)}))
        with pytest.raises(ValueError):
            LatticeSet(2, 3, frozenset({(0,)}))
        with pytest.raises(ValueError, match="outside"):
            LatticeSet(1, 3, frozenset({(-1,)}))
        with pytest.raises(ValueError, match="wrong dimension"):
            LatticeSet(2, 3, [(0, 1), (1, 1, 1)])

    def test_lattice_from_array(self):
        arr = np.array([[0, 2], [1, 1], [0, 2]])
        A = LatticeSet(2, 3, arr)
        assert A == LatticeSet(2, 3, frozenset({(0, 2), (1, 1)}))
        assert A.points.tolist() == [[1, 1], [0, 2]] and A.points.dtype == np.int64
        arr[1, 0] = 2  # A holds its own copy
        assert A.points.tolist() == [[1, 1], [0, 2]]
        with pytest.raises(ValueError, match="outside"):
            LatticeSet(2, 2, arr)
        with pytest.raises(ValueError, match="wrong dimension"):
            LatticeSet(3, 3, arr)
        with pytest.raises(ValueError, match="wrong dimension"):
            LatticeSet(1, 3, np.arange(3))

    def test_lattice_points_beyond_int64(self):
        big = 2 ** 70
        A = LatticeSet(1, big + 1, frozenset({(0,), (big,)}))
        assert A.points.tolist() == [[0], [big]] and A.points.dtype == object
        assert energy_of_set(A) == 6
        with pytest.raises(ValueError, match="outside"):
            LatticeSet(1, big, frozenset({(0,), (big,)}))
        # uint64 coordinates past int64 keep their values
        top = LatticeSet(1, 2 ** 64, np.array([[2 ** 64 - 1], [0]], dtype=np.uint64))
        assert top.points.tolist() == [[0], [2 ** 64 - 1]] and top.points.dtype == object


class TestTrivialBound:
    def test_examples(self):
        assert trivial_lower_bound(2) == pytest.approx(math.log2(6), rel=1e-14)
        assert trivial_lower_bound(3) == pytest.approx(math.log(19) / math.log(3), rel=1e-14)
        assert trivial_lower_bound(10) == pytest.approx(math.log10(670), rel=1e-14)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            trivial_lower_bound(1)


def test_float_path_matches_extended_precision(monkeypatch):
    # the two norm regimes must agree far beyond their error bounds
    rng = np.random.default_rng(9)
    f = DiscreteFunction(0, tuple(float(v) for v in rng.random(600) + 0.1))
    hp = ratio_report(f, 1.6)
    monkeypatch.setattr(discrete_core, "HP_SUPPORT_CAP", 100)
    fl = ratio_report(f, 1.6)
    assert fl.ratio == pytest.approx(hp.ratio, rel=1e-12)
    assert fl.err < 1e-9 and hp.err < fl.err
