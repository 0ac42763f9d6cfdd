"""Property tests: the exact ||f^||_4^4 kernel against the quadruple-sum
oracle and against the per-value, per-slot loop kernel kept here as a
reference (equal value and type), the FFT kernel above the precision cap
against the exact one, the float64 lq norm against a 300-bit oracle, FFT
lattice energies against the sorted pair-sum count and both against the
brute-force oracle, the canonical point array of lattice sets, scale
invariance of the ratio report, certificate JSON round trips, and the
optimizer's row-wise FFT energy and gradient against np.convolve and
finite differences."""

import json
import math
from contextlib import nullcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from energylab import discrete_core
from energylab.optimizer import _pow4_rows
from energylab.certificates import (EPS_SCAN, Certificate, GaussianScheduleParams,
                                    _sampled_gaussian, build_gaussian_certificate,
                                    build_perturbation_certificate, certificate_from_dict,
                                    certificate_json, certificate_to_dict, revalidate_certificate)
from energylab.discrete_core import (DiscreteFunction, LatticeSet, _autoconvolve,
                                     _energy_fft, _energy_sorted, _lattice_keys, _pow4_exact,
                                     energy_bruteforce, energy_interval_formula, energy_of_set,
                                     fourier_l4_pow4, fourier_l4_pow4_quadruple,
                                     fourier_l4_pow4_with_error, lq_norm_with_error,
                                     ratio_report)

# every finite float, plus signed values spread across 1e-300 .. 1e300
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda x, e: x * 10.0 ** e, st.floats(-1.0, 1.0), st.integers(-300, 300)))
INTEGER_FLOATS = st.integers(-10 ** 9, 10 ** 9).map(float)
SUBNORMALS = st.integers(-(2 ** 52 - 1), 2 ** 52 - 1).map(lambda k: math.ldexp(k, -1074))
# integer-valued, subnormal and +-1e300 values side by side
MIXED = st.one_of(FLOATS, INTEGER_FLOATS, SUBNORMALS, st.sampled_from([1e300, -1e300]))


def scaled_fraction(t, k) -> Fraction:
    """The exact value of t 2^k."""
    return Fraction(t) * Fraction(2) ** k


def values_of(scalars):
    return st.lists(scalars, min_size=1, max_size=40)


def float_path():
    """Every support above the precision cap: the float64 FFT regime."""
    return mock.patch.object(discrete_core, "HP_SUPPORT_CAP", 0)


def assert_within_own_bound(f):
    t, k, rel = fourier_l4_pow4_with_error(f)
    exact = Fraction(_pow4_exact(f.values))
    assert abs(scaled_fraction(t, k) - exact) <= Fraction(rel) * exact


@settings(max_examples=100, deadline=None)
# 39 * 31^2 > 2^15 = 2^(2b + bit_length(m) - 1): slots without headroom would overflow
@example(offset=0, values=[31.0] * 39)
@example(offset=0, values=[-31.0] * 39)
@example(offset=0, values=[31.0, -31.0] * 19 + [31.0])
@given(offset=st.integers(-5, 5),
       values=st.one_of(values_of(FLOATS), values_of(INTEGER_FLOATS), values_of(SUBNORMALS),
                        values_of(MIXED)))
def test_exact_pow4_matches_quadruple_oracle(offset, values):
    f = DiscreteFunction(offset, values)
    if f.is_zero:
        return
    oracle = fourier_l4_pow4_quadruple(f)
    assert _pow4_exact(f.values) == oracle
    if all(v.is_integer() for v in values):
        assert fourier_l4_pow4(f) == oracle
    t, k, rel = fourier_l4_pow4_with_error(f)
    assert abs(scaled_fraction(t, k) - oracle) <= Fraction(rel) * oracle


# The loop kernel, one Python step per value and per slot, kept as the
# reference for _pow4_exact, which must return the same int or Fraction on
# every input.
def reference_integer_scaled(values):
    """(ints, exp) with values[i] == ints[i] * 2**exp exactly."""
    parts = []
    for v in values.tolist():
        num, den = v.as_integer_ratio()  # den is a power of two
        parts.append((num, 1 - den.bit_length()))
    exp = min(e for n, e in parts if n)
    return [n << (e - exp) if n else 0 for n, e in parts], exp


def reference_pow4_exact(values):
    """sum_s (f*f)(s)^2 for a nonzero float64 array, exactly, as an int or
    Fraction.

    Kronecker substitution: the values, scaled to integers a_i, are packed
    into X = sum a_i 2^(w i), so X^2 holds c(s) = (a*a)(s) in its w-bit
    slots.  |c(s)| < m 2^(2b) for b-bit a_i, so w = 2b + bit_length(m) + 2
    leaves a sign bit and never carries into the next slot.
    """
    ints, exp = reference_integer_scaled(values)
    m = len(ints)
    width = (2 * max(abs(a) for a in ints).bit_length() + m.bit_length() + 2 + 7) // 8
    if 8 * width * m > discrete_core._PACK_BITS_CAP:
        raise discrete_core.CapExceededError(
            f"exact autoconvolution would pack {8 * width * m} bits, "
            f"cap {discrete_core._PACK_BITS_CAP}")
    # a negative a_i is stored as a_i + 2^w; the borrow takes 2^w back from slot i+1
    x = int.from_bytes(b"".join(a.to_bytes(width, "little", signed=True) for a in ints), "little")
    borrow = bytearray(width * (m + 1))
    for i, a in enumerate(ints):
        if a < 0:
            borrow[width * (i + 1)] = 1
    x -= int.from_bytes(borrow, "little")
    z = (x * x).to_bytes(width * (2 * m - 1), "little")
    half, full = 1 << (8 * width - 1), 1 << (8 * width)
    total = carry = 0
    for s in range(0, len(z), width):
        c = int.from_bytes(z[s:s + width], "little") + carry
        carry = c >= half  # slot holds c(s) + 2^w: a negative coefficient
        if carry:
            c -= full
        total += c * c
    if exp >= 0:
        return total << 4 * exp
    return Fraction(total, 1 << -4 * exp)


def assert_pow4_matches_reference(values):
    values = np.asarray(values, dtype=np.float64)
    expected = reference_pow4_exact(values)
    got = _pow4_exact(values)
    assert type(got) is type(expected) and got == expected


# every float64 at or above 2^53 is an integer; these reach 2^1023
BIG_INTEGER_FLOATS = st.builds(lambda x, sign: sign * x,
                               st.floats(2.0 ** 53, 1.7e308), st.sampled_from([1.0, -1.0]))


@settings(max_examples=300, deadline=None)
@example(values=[0.0, 1.0, 0.0, -0.0, 3.0, 0.0])
@example(values=[-5e-324, -1e300, -1.0])
@example(values=[2.0 ** 53, -(2.0 ** 1023), 1.0])
@example(values=[1.5] * 40)
@given(values=st.one_of(
    values_of(FLOATS), values_of(INTEGER_FLOATS), values_of(SUBNORMALS), values_of(MIXED),
    values_of(BIG_INTEGER_FLOATS),
    values_of(st.one_of(MIXED, st.just(0.0), st.just(-0.0))),  # zeros inside the support
    values_of(MIXED.map(lambda v: -abs(v)))))  # every value negative (or zero)
def test_exact_pow4_matches_reference(values):
    assume(any(values))
    assert_pow4_matches_reference(values)


@pytest.mark.parametrize("m", [1, 2, 2047, 2048])
@pytest.mark.parametrize("kind", ["normal", "wide", "integer"])
def test_exact_pow4_reference_fixed_cases(m, kind):
    rng = np.random.default_rng(m)
    values = {"normal": lambda: rng.standard_normal(m),
              "wide": lambda: rng.standard_normal(m) * 2.0 ** rng.integers(-60, 61, m),
              "integer": lambda: rng.integers(-2 ** 40, 2 ** 40, m).astype(np.float64)}[kind]()
    assert_pow4_matches_reference(values)


@pytest.mark.parametrize("eps", EPS_SCAN)
def test_exact_pow4_reference_perturbed_indicator(eps):
    assert_pow4_matches_reference(build_perturbation_certificate(300, float(eps)).f.values)


@pytest.mark.parametrize("values", [[1.0] * 40, [1e300, -1e-300, 3.0], [5e-324, 1.0]])
def test_exact_pow4_cap_matches_reference(values):
    # both kernels raise exactly when the pack would exceed the cap
    values = np.asarray(values)
    bits = 8 * len(values) * ((2 * max(abs(a) for a in reference_integer_scaled(values)[0])
                               .bit_length() + len(values).bit_length() + 2 + 7) // 8)
    for cap, raises in ((bits, False), (bits - 1, True)):
        with mock.patch.object(discrete_core, "_PACK_BITS_CAP", cap):
            for kernel in (reference_pow4_exact, _pow4_exact):
                with pytest.raises(discrete_core.CapExceededError) if raises else nullcontext():
                    kernel(values)


def assert_lq_within_own_bound(f, q):
    x, e, rel = lq_norm_with_error(f, q)
    with mp.workprec(300):
        value = mp.ldexp(x, e)
        qm = mp.mpf(q)
        exact = (abs(mp.mpf(a.numerator) / a.denominator) ** qm
                 for a in map(Fraction, f.values.tolist()) if a)
        oracle = mp.fsum(exact) ** (1 / qm)
        assert abs(value - oracle) <= mp.mpf(rel) * oracle


@settings(max_examples=150, deadline=None)
@example(values=[1e308, -1e308, 5e-324], q=1.0)
@example(values=[2.0 ** -1074] * 3, q=3.0)
@example(values=[1.0] * 20 + [1.5] + [1.0] * 19, q=1.4)  # the perturbed indicator
@given(values=st.one_of(values_of(FLOATS), values_of(MIXED)), q=st.floats(1.0, 3.0))
def test_lq_within_its_bound(values, q):
    # the tolerance is the returned bound itself
    f = DiscreteFunction(0, values)
    if not f.is_zero:
        assert_lq_within_own_bound(f, q)


@pytest.mark.parametrize("m", [2048, 2049, 30001])
def test_lq_fixed_cases(m):
    rng = np.random.default_rng(m)
    x = rng.standard_normal(m) * 10.0 ** rng.integers(-30, 30, m)
    assert_lq_within_own_bound(DiscreteFunction(0, tuple(float(v) for v in x)), 1.0 + rng.random())


@pytest.mark.parametrize("n,eps", [(3, 0.5), (301, 2.0 ** -20), (3000, 0.1)])
def test_lq_perturbed_indicator(n, eps):
    cert = build_perturbation_certificate(n, eps)
    assert_lq_within_own_bound(cert.f, cert.q)


def test_lq_bound_does_not_grow_with_support():
    # the rounding of 1/q, |ln T| u / q, is the bound's only term that
    # depends on the support m, through ln T <= ln m here (max f = 1)
    f = _sampled_gaussian(GaussianScheduleParams.from_n_eps(30001, 0.5))
    m, q = len(f.values), 1.5
    assert m > discrete_core.HP_SUPPORT_CAP
    _, _, rel = lq_norm_with_error(f, q)
    _, _, rel_small = lq_norm_with_error(DiscreteFunction(0, (1.0, 0.5, 0.25)), q)
    assert rel < 1e-13
    assert rel - rel_small <= (math.log(m) / q + 1.0) * 2.0 ** -53


@settings(max_examples=100, deadline=None)
@example(ks=[1, 1], e=-1074, q=1.5, float_regime=False)  # both norms round to 2 * 2^-1074
@example(ks=[1, 1], e=-1063, q=1.5, float_regime=False)  # values near 1e-320
@example(ks=[1, 1], e=1000, q=1.0, float_regime=True)  # squares overflow unscaled
@example(ks=[3, 1], e=-540, q=1.5, float_regime=True)  # squares underflow unscaled
@given(ks=st.lists(st.integers(1, 15), min_size=1, max_size=12),
       e=st.integers(-1074, 1000), q=st.floats(1.0, 3.0), float_regime=st.booleans())
def test_ratio_report_scale_invariant(ks, e, q, float_regime):
    # k * 2^e is exact in float64, so both functions have the same true ratio
    with float_path() if float_regime else nullcontext():
        base = ratio_report(DiscreteFunction(0, tuple(ks)), q)
        scaled = ratio_report(DiscreteFunction(0, tuple(math.ldexp(k, e) for k in ks)), q)
    bound = (base.err + scaled.err) * base.ratio / (1.0 - base.err)
    assert abs(scaled.ratio - base.ratio) <= bound


@settings(max_examples=10, deadline=None)
@given(n=st.sampled_from([41, 401]), eps=st.floats(0.05, 1.0))
def test_gaussian_certificate_round_trip(n, eps):
    cert = build_gaussian_certificate(GaussianScheduleParams.from_n_eps(n, eps))
    back = certificate_from_dict(json.loads(json.dumps(certificate_to_dict(cert))))
    assert revalidate_certificate(back).valid == cert.valid


# repeats, zeros of either sign, subnormals and +-1e300 among arbitrary floats
WITNESS_VALUES = st.one_of(MIXED, st.sampled_from([0.0, -0.0, 1.0, 0.1, 5e-324, 1e-310]))


@st.composite
def witness_values(draw):
    """1 to 64 values: arbitrary, a palindrome, or a palindrome with the
    sign of one of its zeros flipped."""
    values = draw(st.lists(WITNESS_VALUES, min_size=1, max_size=64))
    shape = draw(st.sampled_from(["any", "palindrome", "signed_zero"]))
    if shape == "palindrome":
        values = values[:31] + draw(st.lists(WITNESS_VALUES, max_size=1)) + values[30::-1]
    elif shape == "signed_zero":
        values = values[:31] + [0.0] + values[30::-1]
        i = draw(st.sampled_from([i for i, v in enumerate(values) if v == 0.0]))
        values[i] = -math.copysign(0.0, values[i])
    return values


@settings(max_examples=200, deadline=None)
@example(values=[1.0, 0.0, -0.0, 1.0], fields=[1.0] * 5, valid=True)
@example(values=[1.0, -0.0, 1.0], fields=[1.0] * 5, valid=False)
@example(values=[0.0], fields=[1.0] * 5, valid=False)
@given(values=witness_values(), fields=st.lists(FLOATS, min_size=5, max_size=5),
       valid=st.booleans())
def test_certificate_json_is_json_dumps(values, fields, valid):
    f = DiscreteFunction(-len(values) // 2, values)
    lhs, rhs, margin, err, q = fields
    cert = Certificate(kind="explicit", n=max(2, len(values)), q=q, f=f, lhs=lhs, rhs=rhs,
                       margin=margin, err=err, implied_t_bound=q, valid=valid)
    d = certificate_to_dict(cert)
    assert d["values"] == [repr(v) for v in f.values.tolist()]
    text = certificate_json(cert)
    assert text == json.dumps(d, indent=2)
    back = certificate_from_dict(json.loads(text))
    assert back.f.offset == f.offset and back.f.values.tobytes() == f.values.tobytes()


@settings(max_examples=150, deadline=None)
@example(values=[1e308, -1e308, 5e-324])
@example(values=[2.0 ** -1074] * 3)
@given(values=st.one_of(values_of(FLOATS), values_of(st.floats(-1e3, 1e3)),
                        values_of(MIXED)))
def test_fft_pow4_within_its_bound(values):
    # the tolerance is the returned bound itself
    f = DiscreteFunction(0, values)
    if f.is_zero:
        return
    with float_path():
        assert_within_own_bound(f)


@pytest.mark.parametrize("m", [2049, 4096])
@pytest.mark.parametrize("kind", ["normal", "wide", "spiky"])
def test_fft_pow4_fixed_cases(m, kind):
    rng = np.random.default_rng([m, len(kind)])
    x = rng.standard_normal(m)
    if kind == "wide":
        x *= 10.0 ** rng.integers(-30, 30, m)
    elif kind == "spiky":
        x *= 1e-8
        x[rng.integers(0, m, 5)] = 1e3 * rng.standard_normal(5)
    assert_within_own_bound(DiscreteFunction(0, tuple(float(v) for v in x)))


def test_fft_pow4_gaussian_witness():
    f = _sampled_gaussian(GaussianScheduleParams.from_n_eps(20001, 0.51))
    assert len(f.values) > discrete_core.HP_SUPPORT_CAP
    assert_within_own_bound(f)


def percival_delta(y) -> mp.mpf:
    """||y||_2^2 ((1+u)^(3L) (1+sqrt5 u)^(3L+1) (1+4u)^(3L) - 1), L = log2 N."""
    levels = (2 * len(y) - 2).bit_length()
    with mp.workprec(200):
        u = mp.mpf(2) ** -53
        bracket = ((1 + u) ** (3 * levels) * (1 + mp.sqrt(5) * u) ** (3 * levels + 1)
                   * (1 + 4 * u) ** (3 * levels) - 1)
        return mp.fsum(mp.mpf(float(v)) ** 2 for v in y) * bracket


@settings(max_examples=100, deadline=None)
@given(values=values_of(FLOATS).filter(lambda v: any(v)))
def test_autoconvolve_bound(values):
    x = np.array(values)
    c, e, delta = _autoconvolve(x)
    y = np.ldexp(x, -e)
    assert 1.0 <= np.max(np.abs(y)) < 2.0
    # delta is Percival's bound, and the FFT error lies within it
    pd = percival_delta(y)
    assert pd <= delta <= pd * (1 + 1e-9)
    yf = [Fraction(float(v)) for v in y]
    m = len(yf)
    for s, cs in enumerate(c):
        exact = sum(yf[i] * yf[s - i] for i in range(max(0, s - m + 1), min(s, m - 1) + 1))
        assert abs(Fraction(float(cs)) - exact) <= Fraction(delta)


def random_set(rng, d, n, size):
    cube = np.stack(np.meshgrid(*[np.arange(n)] * d, indexing="ij"), axis=-1).reshape(-1, d)
    idx = rng.choice(len(cube), size=size, replace=False)
    return LatticeSet(d, n, frozenset(tuple(int(c) for c in cube[i]) for i in idx))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 3), data=st.data())
def test_fft_energy_matches_sorted(seed, d, data):
    n = data.draw(st.integers(5, {1: 400, 2: 20, 3: 7}[d]))
    size = data.draw(st.integers(1, min(n ** d, 300)))
    A = random_set(np.random.default_rng(seed), d, n, size)
    keys = _lattice_keys(A)
    want = _energy_sorted(keys)
    assert _energy_fft(keys) == want
    assert energy_of_set(A) == want
    if size <= 120:
        assert energy_bruteforce(A) == want


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 6), data=st.data())
def test_sorted_energy_matches_bruteforce(seed, d, data):
    n = data.draw(st.integers(1, {1: 60, 2: 12, 3: 6, 4: 4, 5: 3, 6: 3}[d]))
    size = data.draw(st.integers(1, min(n ** d, 60)))
    A = random_set(np.random.default_rng(seed), d, n, size)
    assert _energy_sorted(_lattice_keys(A)) == energy_bruteforce(A)


@st.composite
def point_lists(draw):
    """(d, side, points): small cubes in d = 1..3, d = 20 at side 13 (object
    keys), and sides beyond 2^63.  Points are drawn from a short pool, so
    rows repeat."""
    kind = draw(st.sampled_from(["small", "wide", "huge"]))
    if kind == "wide":
        d, side = 20, 13
    else:
        d = draw(st.integers(1, 3))
        top = {1: 40, 2: 8, 3: 5}[d] if kind == "small" else 2 ** 70
        side = draw(st.integers(1 if kind == "small" else 2 ** 63 + 1, top))
    coords = st.lists(st.integers(0, side - 1), min_size=d, max_size=d)
    pool = draw(st.lists(coords, min_size=1, max_size=12))
    return d, side, draw(st.lists(st.sampled_from(pool), max_size=30))


@settings(max_examples=80, deadline=None)
@given(case=point_lists(), seed=st.integers(0, 2 ** 32 - 1))
def test_lattice_canonical_form(case, seed):
    d, side, points = case
    shuffled = [points[i] for i in np.random.default_rng(seed).permutation(len(points))]
    top = max((c for p in points for c in p), default=0)
    fits = top < 2 ** 63
    # the exact array of the points: int64, uint64 or Python ints
    dtype = np.int64 if fits else np.uint64 if top < 2 ** 64 else object
    A = LatticeSet(d, side, points)
    assert A == LatticeSet(d, side, shuffled)
    assert A == LatticeSet(d, side, np.array(points, dtype=dtype).reshape(-1, d))
    P = A.points
    assert P.shape == (len({tuple(p) for p in points}), d)
    assert not P.flags.writeable and P.flags.c_contiguous
    assert P.dtype == (np.int64 if fits else object)
    assert all(type(c) is int for row in P.tolist() for c in row)
    # colex order: the reversed rows are strictly increasing
    reversed_rows = [row[::-1] for row in P.tolist()]
    assert all(a < b for a, b in zip(reversed_rows, reversed_rows[1:]))
    assert {tuple(row) for row in P.tolist()} == {tuple(p) for p in points}
    keys = _lattice_keys(A).tolist()
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert energy_of_set(A) == energy_bruteforce(A)


@pytest.mark.parametrize("n", [64, 1000, 8191, 8192, 30000])
def test_fft_interval_energy(n):
    assert energy_of_set(LatticeSet.from_range(n)) == energy_interval_formula(n)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.integers(1, 64), rows=st.integers(1, 4))
def test_row_kernel_matches_convolve(data, m, rows):
    # signed rows, each scaled to max |x| = 1 so one step h suits every row
    X = np.array(data.draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m),
                                    min_size=rows, max_size=rows)))
    top = np.max(np.abs(X), axis=1)
    assume(np.all(top > 0))
    X /= top[:, None]
    e4, grad = _pow4_rows(X)

    def pow4(x):
        c = np.convolve(x, x)
        return float(np.dot(c, c))

    h = 1e-5
    for x, e, g in zip(X, e4, grad):
        assert e == pytest.approx(pow4(x), rel=1e-12)
        want = 4.0 * np.correlate(np.convolve(x, x), x, mode="valid")
        assert np.max(np.abs(g - want)) <= 1e-6 * np.max(np.abs(want))
        fd = np.empty(m)
        for i in range(m):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (pow4(xp) - pow4(xm)) / (2 * h)
        assert np.max(np.abs(g - fd)) <= 1e-6 * np.max(np.abs(fd))
