import math
import tracemalloc

import numpy as np
import pytest
from mpmath import mp

from energylab import discrete_core
from energylab.certificates import evaluate_certificate
from energylab.discrete_core import (CapExceededError, DiscreteFunction, InvalidExponentError,
                                     LatticeSet, ZeroFunctionError, _energy_fft, _energy_sorted,
                                     energy_bruteforce,
                                     energy_interval_formula, energy_of_set, fourier_l4_pow4,
                                     fourier_l4_pow4_quadruple, lq_norm, lq_norm_with_error,
                                     ratio_report, tensor_power, trivial_lower_bound)


def indicator(*pts):
    return DiscreteFunction.indicator(pts)


def count_transforms(monkeypatch):
    """The numbers of np.fft.rfft and np.fft.irfft calls from now on."""
    calls = dict.fromkeys(("rfft", "irfft"), 0)
    for name in calls:
        def counting(*args, _inner=getattr(np.fft, name), _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    return calls


def faulty_rfft(fault):
    """np.fft.rfft with its output passed through fault(spectrum, N)."""
    rfft = np.fft.rfft

    def wrapped(a, n, *args, **kwargs):
        return fault(rfft(a, n, *args, **kwargs), n)
    return wrapped


def scaled(spec, size):
    # every bin times ((E + 2)/E)^(1/4): the Parseval sum reads E + 2, of the
    # right parity and in range, but ||Y||_2 is off by far more than D
    e = energy_interval_formula(150)
    return spec * ((e + 2) / e) ** 0.25


def moved(spec, size):
    # |Y_1|^2 + delta and |Y_2|^2 - delta keep ||Y||_2 and put the Parseval
    # sum at E + 1: 4 delta (a - b + delta) / N = 1
    a, b = np.abs(spec[1:3]) ** 2
    delta = (size / 2) / ((a - b) + math.sqrt((a - b) ** 2 + size))
    spec[1] *= math.sqrt((a + delta) / a)
    spec[2] *= math.sqrt((b - delta) / b)
    return spec


def concentrated(spec, size):
    # all of ||Y||_2^2 = N |A| in the zero bin: the sum reads N |A|^2 > |A|^3
    out = np.zeros_like(spec)
    out[0] = math.sqrt(size * 150)
    return out


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

    @pytest.mark.parametrize("bad", [1.5, -1.9, 1.7, math.nan, math.inf, "3", None, True,
                                     np.True_])
    def test_non_integral_offset_rejected(self, bad):
        # an offset is read as the integer it equals, never truncated
        with pytest.raises(ValueError, match=r"^offset .* is not an integer$"):
            DiscreteFunction(bad, [1.0])

    def test_integral_offsets_read_as_ints(self):
        for offset, expected in ((1.0, 1), (-3.0, -3), (np.int64(4), 4), (10 ** 30, 10 ** 30)):
            f = DiscreteFunction(offset, [0.0, 1.0])
            assert f.offset == expected + 1 and type(f.offset) is int

    def test_indicator_and_support(self):
        f = indicator(1, -1, 0, 1)
        assert f.offset == -1 and f.values.tolist() == [1.0, 1.0, 1.0]
        assert DiscreteFunction.indicator([]).is_zero

    def test_indicator_rejects_non_integral_points(self):
        assert indicator(2.0, 0) == indicator(0, 2)
        with pytest.raises(ValueError, match="support point 1.5 is not an integer"):
            indicator(0, 1.5)


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

    def test_one_forward_transform_per_certified_pow4(self, monkeypatch):
        # a ratio, a certificate and a lattice energy inside the Parseval
        # reach each take one rfft and no irfft
        calls = count_transforms(monkeypatch)
        f = DiscreteFunction(0, np.random.default_rng(3).standard_normal(3000))
        ratio_report(f, 1.5)
        assert calls == {"rfft": 1, "irfft": 0}
        evaluate_certificate("explicit", 3000, 1.5, f)
        assert calls == {"rfft": 2, "irfft": 0}
        assert energy_of_set(LatticeSet.from_range(200)) == energy_interval_formula(200)
        assert calls == {"rfft": 3, "irfft": 0}

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


# the largest interval on the Parseval route: N = 2^16, and the bound at
# |A|^3 first reaches 1/2 at 19209 points
PARSEVAL_REACH = 19208


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

    def test_interval_formula_divides_exactly(self):
        # 2n^3 + n = n(2n^2 + 1), and 2n^2 + 1 = 3 (mod 3) when 3 does not divide n
        for n in [*range(1, 10 ** 4), 2 ** 64 + 1, 2 ** 64 + 2, 3 ** 41, 10 ** 30 + 7]:
            assert 3 * energy_interval_formula(n) == 2 * n ** 3 + n

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
        keys = A._keys
        assert _energy_fft(keys) == _energy_sorted(keys) == energy_interval_formula(150)

    def test_object_keys(self):
        # 25^20 > 2^62, so the keys are Python ints in an object array
        diagonal = LatticeSet(20, 13, frozenset((a,) * 20 for a in range(13)))
        assert diagonal._keys.dtype == object
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

    @staticmethod
    def _kernels_run(monkeypatch, A):
        """energy_of_set(A) and the names of the kernels it called, in order."""
        ran = []
        for name in ("_energy_fft", "_energy_sorted"):
            def counting(keys, kernel=getattr(discrete_core, name), name=name):
                ran.append(name)
                return kernel(keys)
            monkeypatch.setattr(discrete_core, name, counting)
        return energy_of_set(A), ran

    def test_strip_routes_by_its_own_span(self, monkeypatch):
        # key span 1999 + 3999 + 1 = 5999, though the side-2000 cube's keys reach ~8e6
        strip = LatticeSet(2, 2000, [(x, y) for y in (0, 1) for x in range(2000)])
        energy, ran = self._kernels_run(monkeypatch, strip)
        assert ran == ["_energy_fft"]
        assert energy == energy_interval_formula(2000) * energy_interval_formula(2)

    def test_fft_fault_falls_back_to_sorting(self, monkeypatch):
        # on the Parseval route each fault passes every check but one, in
        # turn the ||Y||_2 check, the parity of E and E <= |A|^3; the sorted
        # path answers
        A = LatticeSet.from_range(150)
        for fault in (scaled, moved, concentrated):
            with monkeypatch.context() as patch:
                patch.setattr(np.fft, "rfft", faulty_rfft(fault))
                assert _energy_fft(A._keys) is None, fault.__name__
                energy, ran = self._kernels_run(patch, A)
                assert ran == ["_energy_fft", "_energy_sorted"]
                assert energy == energy_interval_formula(150)

    def test_counted_fault_returns_none(self, monkeypatch):
        # past the Parseval reach a count the transform got 0.75 wrong rounds
        # to the wrong integer and the counts no longer add up to |A|^2
        irfft = np.fft.irfft

        def faulty_irfft(*args, **kwargs):
            c = irfft(*args, **kwargs)
            c[1] += 0.75
            return c

        monkeypatch.setattr(np.fft, "irfft", faulty_irfft)
        assert _energy_fft(LatticeSet.from_range(PARSEVAL_REACH + 1)._keys) is None

    @pytest.mark.parametrize("n,want", [(PARSEVAL_REACH, {"rfft": 1, "irfft": 0}),
                                        (PARSEVAL_REACH + 1, {"rfft": 1, "irfft": 1})],
                             ids=["parseval", "counted"])
    def test_route_boundary(self, monkeypatch, n, want):
        # the largest interval whose bound at |A|^3 pins E takes one forward
        # transform; the next one counts r by a forward and an inverse one
        calls = count_transforms(monkeypatch)
        energy, ran = self._kernels_run(monkeypatch, LatticeSet.from_range(n))
        assert ran == ["_energy_fft"]
        assert energy == energy_interval_formula(n)
        assert calls == want

    def test_sparse_interval_subset_sorts(self, monkeypatch):
        # span ~5e5 > 1024^2/16: the sorted path is the faster one here
        values = np.random.default_rng(23).choice(500_000, size=1024, replace=False)
        A = LatticeSet.from_values(values.tolist())
        energy, ran = self._kernels_run(monkeypatch, A)
        assert ran == ["_energy_sorted"]
        _, r = np.unique(np.add.outer(values, values), return_counts=True)
        assert energy == int(np.dot(r, r))

    def test_object_keys_small_span_take_fft(self, monkeypatch):
        # {0..12}^2 in the first two of 20 coordinates: keys formed as Python
        # ints (25^20 > 2^62), whose offsets, of span 313, the set keeps in int32
        A = LatticeSet(20, 13, [(a, b) + (12,) * 18 for a in range(13) for b in range(13)])
        assert 25 ** 20 > 2 ** 62 and A._keys.dtype == np.int32
        energy, ran = self._kernels_run(monkeypatch, A)
        assert ran == ["_energy_fft"]
        assert energy == energy_interval_formula(13) ** 2

    @pytest.mark.parametrize("width", [np.int64, object], ids=["int64", "object"])
    def test_sorted_ranges(self, monkeypatch, width):
        # {0, 1, 3}^4 in two carry-free copies: in 1-D as the digits of base-7
        # numbers 2^40 apart, whose offsets need int64, and in the last four
        # of 20 coordinates of a side-13 cube, whose offsets need Python ints
        base = LatticeSet.from_values([0, 1, 3])
        cube = tensor_power(base, 4).points.tolist()
        if width is object:
            A = LatticeSet(20, 13, [[0] * 16 + p for p in cube])
        else:
            A = LatticeSet.from_values([sum(c * 7 ** i for i, c in enumerate(p)) << 40
                                        for p in cube])
        keys = A._keys
        assert keys.dtype == width
        want = energy_of_set(base) ** 4
        assert _energy_sorted(keys) == want
        # at most 3|A|/2 of the 3321 pairs per range: dozens of ranges, each
        # end found by bisection
        monkeypatch.setattr(discrete_core, "_SORT_BLOCK", 3 * len(keys) // 2)
        assert _energy_sorted(keys) == want

    @staticmethod
    def _range_widths(monkeypatch):
        """The key dtypes _range_energy is called with, in order."""
        widths = []

        def recording(keys, first, last, twice, kernel=discrete_core._range_energy):
            widths.append(keys.dtype)
            return kernel(keys, first, last, twice)
        monkeypatch.setattr(discrete_core, "_range_energy", recording)
        return widths

    def test_tensor_pair_sums_are_int32(self, monkeypatch):
        # {0, 5, 12}^6: twice the largest key offset is below 2 * 25^6 < 2^31
        base = LatticeSet.from_values([0, 5, 12])
        want = energy_bruteforce(base) ** 6
        widths = self._range_widths(monkeypatch)
        assert energy_of_set(tensor_power(base, 6)) == want
        assert widths and set(widths) == {np.dtype(np.int32)}

    @pytest.mark.parametrize("block", [None, 1], ids=["default", "one"])
    @pytest.mark.parametrize("twice_max, width", [
        (2 ** 31 - 4, np.int32), (2 ** 31 - 2, np.int32), (2 ** 31, np.int64),
    ], ids=["below", "edge", "past"])
    def test_sorted_width_boundaries(self, monkeypatch, twice_max, width, block):
        # offsets up to twice_max / 2 from a first point of 2^40: the int32 sort
        # holds every sum and bisection point only while 2 max + 1 < 2^31
        h = twice_max // 2
        A = LatticeSet.from_values([(1 << 40) + v for v in (0, 1, 2, 5, h // 2, h - 3, h - 2, h)])
        want = energy_bruteforce(A)
        if block is not None:
            monkeypatch.setattr(discrete_core, "_SORT_BLOCK", block)
        assert A._keys.dtype == width
        widths = self._range_widths(monkeypatch)
        assert _energy_sorted(A._keys) == want
        assert set(widths) == {np.dtype(width)}

    def test_object_keys_narrow_to_int64(self, monkeypatch):
        # {0, 1, 2}^2 in coordinates 0 and 7 of 20, side 13: keys formed as
        # Python ints, whose span 2 (25^7 + 1) is past int32 but well inside
        # int64, so the set keeps their offsets in int64
        A = LatticeSet(20, 13, [(a,) + (0,) * 6 + (b,) + (12,) * 12
                                for a in range(3) for b in range(3)])
        keys = A._keys
        assert 25 ** 20 > 2 ** 62 and keys.dtype == np.int64
        widths = self._range_widths(monkeypatch)
        assert _energy_sorted(keys) == energy_of_set(A) == energy_interval_formula(3) ** 2
        assert set(widths) == {np.dtype(np.int64)}

    def test_sorted_range_of_one_popular_sum(self, monkeypatch):
        # 2 * 50 is the sum of 51 pairs i <= j of {0..100}, about |A|/2, while a
        # range holds at most |A| = 101 pairs
        monkeypatch.setattr(discrete_core, "_SORT_BLOCK", 1)
        keys = LatticeSet.from_range(101)._keys
        assert _energy_sorted(keys) == energy_interval_formula(101)

    def test_sorted_memory_is_per_range(self, monkeypatch):
        # 2000 points of {0..12}^10 have about 2M pairs, nearly all with
        # distinct sums; holding every distinct sum at once (as a merge of
        # sorted blocks does) takes tens of MiB, while ranges of 2^16 pairs
        # need a few arrays of that length
        block = 1 << 16
        monkeypatch.setattr(discrete_core, "_SORT_BLOCK", block)
        A = LatticeSet(10, 13, np.random.default_rng(5).integers(0, 13, (2000, 10)))
        keys = A._keys
        tracemalloc.start()
        try:
            energy = _energy_sorted(keys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert energy == 7998008  # pinned E(A) of this set
        assert peak < 4 * 8 * block + 64 * A.size

    def test_range_gathers_int64_keys_by_int32_index(self):
        # one range of all 2001000 pairs i <= j of 2000 int64 keys 2^31 apart
        # (sums repeat, so few runs): the sums, an int32 index and a quarter
        # of the pairs' temporaries take 13 bytes per pair; int64 indices and
        # one repeat of the row keys for all pairs took 16
        m = 2000
        keys = np.arange(m, dtype=np.int64) << 31
        first, last = np.arange(m), np.full(m, m)
        tracemalloc.start()
        try:
            energy = discrete_core._range_energy(keys, first, last, 2 * keys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert energy == energy_interval_formula(m)
        assert peak < 14.5 * m * (m + 1) // 2

    def test_range_counts_runs_below_the_gather_peak(self):
        # one range of all 4501500 pairs of 3000 int64 keys of 40 bits whose
        # pair sums are all distinct (the Sidon set 2pk + (k^2 mod p), p =
        # 3001, scaled by 2^15 + 1): a run per sum is the most run bounds a
        # range can have.  Counting them must not peak above gathering the
        # sums (13 bytes per pair); holding the sorted sums, two bool arrays
        # and the int64 run bounds at once took 18.  The allowance is the
        # few Python objects of the enclosing call.
        m, p = 3000, 3001
        k = np.arange(m, dtype=np.int64)
        keys = (2 * p * k + k * k % p) * ((1 << 15) + 1)
        assert int(keys[-1]).bit_length() == 40
        first, last = np.arange(m), np.full(m, m)
        peaks = []
        for kernel, args in ((discrete_core._pair_sums, ()), (discrete_core._range_energy,
                                                                (2 * keys,))):
            tracemalloc.start()
            try:
                result = kernel(keys, first, last, *args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del result
        gather, whole = peaks
        assert gather < 13.5 * m * (m + 1) // 2
        assert whole <= gather + 4096
        # a Sidon set's energy is 2m^2 - m: only the trivial solutions
        assert discrete_core._range_energy(keys, first, last, 2 * keys) == 2 * m * m - m

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

    def test_lattice_sorted_input_is_copied(self):
        # colex-ordered distinct rows, as a non-contiguous column pair: stored
        # as a C-contiguous copy with the same rows
        arr = np.array([[1, 0, 9], [0, 1, 9], [1, 1, 9]])[:, :2]
        A = LatticeSet(2, 2, arr)
        assert A.points.tolist() == [[1, 0], [0, 1], [1, 1]] and A.points.flags.c_contiguous
        arr[0, 0] = 0
        assert A.points.tolist() == [[1, 0], [0, 1], [1, 1]]
        # the first point outside the cube is named, whichever check finds it
        with pytest.raises(ValueError, match=r"point \(0, 3\) outside \[0, 2\]\^2"):
            LatticeSet(2, 3, [(0, 1), (0, 3), (4, 0), (-1, 0)])

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

    @pytest.mark.parametrize("make", [
        lambda: LatticeSet(1, 3, [(0.5,)]),
        lambda: LatticeSet(2, 3, np.array([[1, 1.7]])),
        lambda: LatticeSet(1, 3, np.array([[1.5]], dtype=object)),
        lambda: LatticeSet(1, 3, [(math.nan,)]),
        lambda: LatticeSet(1, 3, [(math.inf,)]),
        lambda: LatticeSet.from_values([0, 0.7]),
    ], ids=["list", "float-array", "object-array", "nan", "inf", "from_values"])
    def test_lattice_rejects_non_integral_coordinates(self, make):
        with pytest.raises(ValueError, match=r"coordinate (0\.5|1\.7|1\.5|nan|inf|0\.7) "
                                             r"is not an integer"):
            make()

    @pytest.mark.parametrize("make", [
        lambda: LatticeSet.from_values([True, False]),
        lambda: LatticeSet(1, 2, [(np.True_,)]),
        lambda: LatticeSet(2, 2, np.array([[True, False]])),
        lambda: LatticeSet.from_values(np.array([False, True])),
        lambda: DiscreteFunction.indicator([True]),
    ], ids=["list", "numpy-scalar", "bool-array", "from_values-array", "indicator"])
    def test_bool_coordinates_rejected(self, make):
        # bool is an int subclass equal to 0 or 1, but it is not a coordinate
        with pytest.raises(ValueError, match=r"^(coordinate|support point) "
                                             r"(np\.)?(True|False)_? is not an integer$"):
            make()

    def test_lattice_reads_integral_values_as_ints(self):
        big = 2 ** 70
        assert LatticeSet(2, 3, [(1.0, 2)]).points.tolist() == [[1, 2]]
        assert LatticeSet(1, 3, np.array([[2.0], [0.0]])).points.dtype == np.int64
        assert LatticeSet.from_values(np.arange(3)) == LatticeSet.from_range(3)
        wide = LatticeSet(1, big + 1, np.array([[float(big)], [1.0]], dtype=object))
        assert wide.points.tolist() == [[1], [big]]
        assert all(type(v) is int for v in wide.points.ravel())


class TestTrivialBound:
    def test_examples(self):
        assert trivial_lower_bound(2) == pytest.approx(math.log2(6), rel=1e-14)
        assert trivial_lower_bound(3) == pytest.approx(math.log(19) / math.log(3), rel=1e-14)
        assert trivial_lower_bound(10) == pytest.approx(math.log10(670), rel=1e-14)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            trivial_lower_bound(1)
