"""Property tests: the FFT ||f^||_4^4 within its own bound of the
quadruple-sum oracle and of the per-value, per-slot loop kernel kept here
as the exact reference, that bound against a 200-bit evaluation of its
formula, the integer kernel equal to both (value and type),
the certified ratio against the exact reference, the exact vectorized sum
against math.fsum bit for bit, the float64 lq norm against a 300-bit
oracle, the FFT energy counts within their Percival bound and the
Parseval energy sum within its own, FFT lattice
energies against the sorted pair-sum count and both against the
brute-force oracle, the one-call set parser against the
per-token one, the canonical point array of lattice sets, the blocked
ball builder against a scan of its whole bounding box,
scale invariance of the ratio report, certificate JSON round trips, the
numpy repr kernel against float.__repr__, and
the optimizer's row-wise FFT energy and gradient against np.convolve and
finite differences, and each of its rows bit for bit the same alone as in a
batch."""

import json
import math
import sys
import tempfile
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from energylab import certificates, cli, discrete_core, experiments
from energylab.optimizer import _pow4_corr_rows
from energylab.certificates import (_REPR_BLOCK_MIN, Certificate, GaussianScheduleParams,
                                    _sampled_gaussian, build_gaussian_certificate,
                                    build_perturbation_certificate, certificate_from_dict,
                                    certificate_json, certificate_to_dict, revalidate_certificate)
from energylab.discrete_core import (CapExceededError, DiscreteFunction, LatticeSet,
                                     _energy_fft, _energy_sorted,
                                     _pow4_int, energy_bruteforce,
                                     energy_interval_formula, energy_of_set,
                                     fourier_l4_pow4, fourier_l4_pow4_quadruple,
                                     fourier_l4_pow4_with_error, lq_norm_with_error,
                                     ratio_report)
from energylab.experiments import ball_lattice_set

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
    if all(v.is_integer() for v in values):
        assert fourier_l4_pow4(f) == oracle
    t, k, rel = fourier_l4_pow4_with_error(f)
    assert abs(scaled_fraction(t, k) - oracle) <= Fraction(rel) * oracle


# The loop kernel, one Python step per value and per slot: the exact oracle
# for the FFT kernel's bound at any support, and the reference for _pow4_int,
# which must return the same int on every integer-valued input.
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


def assert_within_own_bound(f):
    t, k, rel = fourier_l4_pow4_with_error(f)
    exact = Fraction(reference_pow4_exact(f.values))
    assert abs(scaled_fraction(t, k) - exact) <= Fraction(rel) * exact


def assert_pow4_matches_reference(values):
    values = np.asarray(values, dtype=np.float64)
    expected = reference_pow4_exact(values)
    got = _pow4_int(values)
    assert type(got) is int and got == expected


# every float64 at or above 2^53 is an integer; these reach 2^1023
BIG_INTEGER_FLOATS = st.builds(lambda x, sign: sign * x,
                               st.floats(2.0 ** 53, 1.7e308), st.sampled_from([1.0, -1.0]))
INTEGERS = st.one_of(INTEGER_FLOATS, BIG_INTEGER_FLOATS)


@settings(max_examples=300, deadline=None)
@example(values=[0.0, 1.0, 0.0, -0.0, 3.0, 0.0])
@example(values=[-1.0, -1e300, -1.0])
@example(values=[2.0 ** 53, -(2.0 ** 1023), 1.0])
@example(values=[-(2.0 ** 53)] * 40)
@given(values=st.one_of(
    values_of(INTEGER_FLOATS), values_of(BIG_INTEGER_FLOATS), values_of(INTEGERS),
    values_of(st.one_of(INTEGERS, st.just(0.0), st.just(-0.0))),  # zeros inside the support
    values_of(INTEGERS.map(lambda v: -abs(v)))))  # every value negative (or zero)
def test_exact_pow4_matches_reference(values):
    assume(any(values))
    assert_pow4_matches_reference(values)


@pytest.mark.parametrize("m", [1, 2, 2047, 2048])
@pytest.mark.parametrize("kind", ["normal", "wide", "integer"])
def test_exact_pow4_reference_fixed_cases(m, kind):
    # the FFT kernel at every kind, the integer kernel where it applies
    rng = np.random.default_rng(m)
    values = {"normal": lambda: rng.standard_normal(m),
              "wide": lambda: rng.standard_normal(m) * 2.0 ** rng.integers(-60, 61, m),
              "integer": lambda: rng.integers(-2 ** 40, 2 ** 40, m).astype(np.float64)}[kind]()
    assert_within_own_bound(DiscreteFunction(0, values))
    if kind == "integer":
        assert_pow4_matches_reference(values)


@pytest.mark.parametrize("eps", [Fraction(1, 2 ** j) for j in range(1, 21)])
def test_exact_pow4_reference_perturbed_indicator(eps):
    assert_within_own_bound(build_perturbation_certificate(300, float(eps)).f)


@pytest.mark.parametrize("values", [[1.0] * 40, [1e300, -3.0, 3.0], [-(2.0 ** 53), 0.0, 1.0]])
def test_exact_pow4_cap_matches_reference(values):
    # both kernels raise exactly when the pack would exceed the cap
    values = np.asarray(values)
    bits = 8 * len(values) * ((2 * max(abs(a) for a in reference_integer_scaled(values)[0])
                               .bit_length() + len(values).bit_length() + 2 + 7) // 8)
    for cap, raises in ((bits, False), (bits - 1, True)):
        with mock.patch.object(discrete_core, "_PACK_BITS_CAP", cap):
            for kernel in (reference_pow4_exact, _pow4_int):
                with pytest.raises(discrete_core.CapExceededError) if raises else nullcontext():
                    kernel(values)


# Nonnegative terms for _exact_sum: any float up to 2^1012 (so no sum of the
# at most 2^10 terms drawn below overflows), subnormals, and 2^k, its
# neighbours and its ties, spread over more than 2000 bits of exponent.
POWERS = st.integers(-1022, 1011).map(lambda k: math.ldexp(1.0, k))
SUM_TERMS = st.one_of(
    st.floats(0.0, 2.0 ** 1012), SUBNORMALS.map(abs), POWERS,
    POWERS.map(lambda x: math.nextafter(x, 0.0)), POWERS.map(lambda x: math.nextafter(x, 1.0)),
    POWERS.map(lambda x: x * (1.0 + 2.0 ** -52)), POWERS.map(lambda x: x * 2.0 ** -53))


@st.composite
def sum_arrays(draw):
    """Up to twice _EXACT_SUM_MIN terms, either drawn from a few SUM_TERMS or
    a tie: 2^k (1 + j 2^-52) plus half its ulp, cut into 2^s equal pieces
    among zeros, whose sum rounds to the even neighbour unless a term 2^-far
    times smaller tips it upwards."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(0, 2 * discrete_core._EXACT_SUM_MIN))
    if draw(st.booleans()):
        return rng.choice(np.array(draw(st.lists(SUM_TERMS, min_size=1, max_size=6))), m)
    k, j, s = draw(st.integers(-960, 1000)), draw(st.integers(0, 3)), draw(st.integers(0, 10))
    far = draw(st.sampled_from([None, 60, 150]))
    head = [math.ldexp(1.0 + j * 2.0 ** -52, k)] + [math.ldexp(1.0, k - 53 - s)] * 2 ** s
    if far:
        head.append(math.ldexp(1.0, k - far))
    return rng.permutation(np.array(head + [0.0] * max(m - len(head), 0)))


@settings(max_examples=300, deadline=None)
@example(terms=np.zeros(0), through_extraction=False)
@example(terms=np.zeros(600), through_extraction=False)
@example(terms=np.array([2.0 ** 1000] + [2.0 ** -1074] * 600), through_extraction=False)
@example(terms=np.array([1.0] + [2.0 ** -62] * 512), through_extraction=False)  # tie, down
@example(terms=np.array([1.0 + 2.0 ** -52] + [2.0 ** -62] * 512), through_extraction=False)
@example(terms=np.array([1.0] + [2.0 ** -62] * 512 + [2.0 ** -200]),  # tie tipped up
         through_extraction=False)
@example(terms=np.array([3.0]), through_extraction=True)
@given(terms=sum_arrays(), through_extraction=st.booleans())
def test_exact_sum_is_fsum(terms, through_extraction):
    # through_extraction sends arrays of any length through the extraction
    expected = math.fsum(terms.tolist()).hex()
    permuted = np.random.default_rng(len(terms)).permutation(terms)
    with (mock.patch.object(discrete_core, "_EXACT_SUM_MIN", 1) if through_extraction
          else nullcontext()):
        assert discrete_core._exact_sum(terms.copy()).hex() == expected
        assert discrete_core._exact_sum(permuted).hex() == expected


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
    _, _, rel = lq_norm_with_error(f, q)
    _, _, rel_small = lq_norm_with_error(DiscreteFunction(0, (1.0, 0.5, 0.25)), q)
    assert rel < 1e-13
    assert rel - rel_small <= (math.log(m) / q + 1.0) * 2.0 ** -53


@settings(max_examples=100, deadline=None)
@example(ks=[1, 1], e=-1074, q=1.5)  # both norms round to 2 * 2^-1074
@example(ks=[1, 1], e=-1063, q=1.5)  # values near 1e-320
@example(ks=[1, 1], e=1000, q=1.0)  # squares overflow unscaled
@example(ks=[3, 1], e=-540, q=1.5)  # squares underflow unscaled
@given(ks=st.lists(st.integers(1, 15), min_size=1, max_size=12),
       e=st.integers(-1074, 1000), q=st.floats(1.0, 3.0))
def test_ratio_report_scale_invariant(ks, e, q):
    # k * 2^e is exact in float64, so both functions have the same true ratio
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
    """1 to 64 values, or those repeated to a length the repr kernel writes:
    arbitrary, a palindrome, or a palindrome with the sign of one of its
    zeros flipped."""
    values = draw(st.lists(WITNESS_VALUES, min_size=1, max_size=64))
    if draw(st.booleans()):
        size = draw(st.integers(_REPR_BLOCK_MIN, 3 * _REPR_BLOCK_MIN))
        values = (values * size)[:size]
    half = values[:len(values) // 2]
    shape = draw(st.sampled_from(["any", "palindrome", "signed_zero"]))
    if shape == "palindrome":
        values = half + draw(st.lists(WITNESS_VALUES, max_size=1)) + half[::-1]
    elif shape == "signed_zero":
        values = half + [0.0] + half[::-1]
        i = draw(st.sampled_from([i for i, v in enumerate(values) if v == 0.0]))
        values[i] = -math.copysign(0.0, values[i])
    return values


@settings(max_examples=200, deadline=None)
@example(values=[1.0, 0.0, -0.0, 1.0], fields=[1.0, 1.0, 2.0, 1.0], q=1.0)  # valid
@example(values=[1.0, -0.0, 1.0], fields=[1.0] * 4, q=512.0)
@example(values=[0.0], fields=[1.0] * 4, q=1.5)
@example(values=[0.1, -0.0, 5e-324] * _REPR_BLOCK_MIN, fields=[1.0, 1.0, 2.0, 1.0], q=3.0)
@given(values=witness_values(), fields=st.lists(FLOATS, min_size=4, max_size=4),
       q=st.floats(1.0, 512.0))
def test_certificate_json_is_json_dumps(values, fields, q):
    f = DiscreteFunction(-len(values) // 2, values)
    lhs, rhs, margin, err = fields
    cert = Certificate(kind="explicit", n=max(2, len(values)), q=q, f=f, lhs=lhs, rhs=rhs,
                       margin=margin, err=err)
    reprs = [repr(v) for v in f.values.tolist()]
    oracle = {"kind": "explicit", "n": cert.n, "q": q, "offset": f.offset, "values": reprs,
              "lhs": lhs, "rhs": rhs, "margin": margin, "err": err, "implied_t_bound": 4.0 / q,
              "valid": margin > err >= sys.float_info.min}
    assert certificate_to_dict(cert) == oracle
    text = certificate_json(cert)
    assert text == json.dumps(oracle, indent=2)
    back = certificate_from_dict(json.loads(text))
    assert back.f.offset == f.offset and back.f.values.tobytes() == f.values.tobytes()


@st.composite
def double_arrays(draw):
    """0 to 5000 finite doubles from raw uint64 bit patterns: signs, exponents
    and significands uniform over every finite double, over the exponents of
    both notations and their edges (2^-15 .. 2^55), or powers of two and
    their neighbours (where the gap below is half the gap above), or short
    decimals (integers over 10^j, with trailing zeros); raw patterns drawn
    by Hypothesis first; half of them bitwise palindromes."""
    m = draw(st.integers(0, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["any", "notations", "powers", "short"]))
    if kind == "short":
        bits = (rng.integers(-10 ** 7, 10 ** 7, m) / 10.0 ** rng.integers(0, 9, m)).view(np.uint64)
    else:
        low, high = (0, 2047) if kind != "notations" else (1023 - 15, 1023 + 55)
        bits = ((rng.integers(0, 2, m, dtype=np.uint64) << np.uint64(63))
                | (rng.integers(low, high, m, dtype=np.uint64) << np.uint64(52))
                | rng.integers(0, 1 << 52, m, dtype=np.uint64))
        if kind == "powers":  # significand 0, 1 or all ones: 2^e and its neighbours
            bits = (bits & ~np.uint64((1 << 52) - 1)) | rng.choice(
                np.array([0, 1, (1 << 52) - 1], dtype=np.uint64), m)
    raw = draw(st.lists(st.integers(0, 2 ** 64 - 1), max_size=min(m, 20)))
    bits[:len(raw)] = raw
    if draw(st.booleans()):
        bits = np.concatenate([bits[:(m + 1) // 2], bits[:m // 2][::-1]])
    values = bits.view(np.float64)
    return np.where(np.isfinite(values), values, 1.5)


POWERS_OF_TWO = np.ldexp(1.0, np.arange(-1074, 1024))


@settings(max_examples=60, deadline=None)
@example(values=np.array([]))
@example(values=np.concatenate([POWERS_OF_TWO, np.nextafter(POWERS_OF_TWO, 0),
                                np.nextafter(POWERS_OF_TWO[:-1], np.inf)]))
@example(values=np.array([5e-324, -0.0, 0.0, 1e-4, 1e-5, 1e16, 1e15, 2.0 ** 53, 9007199254740993.0,
                          1.7976931348623157e308, 2.2250738585072014e-308, 0.1, 100.0, 1e22]))
@given(values=double_arrays())
def test_repr_block_is_joined_reprs(values):
    # _values_block with the crossover at 1 runs the kernel at every length
    expected = '",\n    "'.join(map(repr, values.tolist()))
    with mock.patch.object(certificates, "_REPR_BLOCK_MIN", 1):
        assert certificates._values_block(values) == expected


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
    assert_within_own_bound(f)


# The inputs where an l2 bound on the spectrum is weakest relative to
# sum (f*f)^2: spikes (a flat spectrum), a spike on a tiny floor, and
# alternating signs (the mass near the Nyquist bin, which has weight 1)
def spikes(m, at, heights=(1.0, 1.0), floor=0.0):
    x = np.full(m, floor)
    x[list(at)] = heights[:len(at)]
    return x


@pytest.mark.parametrize("values", [
    spikes(3001, (0, 3000)), spikes(3001, (0, 3000), (1.5, -0.75)),
    spikes(2 ** 15, (0, 2 ** 15 - 1)), spikes(2 ** 15, (0, 2 ** 15 - 1), (1.0, -1e-3)),
    spikes(4000, (1234,), floor=1e-8), spikes(4000, (0, 3999), floor=-1e-8),
    np.resize([1.0, -1.0], 5000), np.resize([1.0, -1.0], 5001),
    np.resize([3.0, -1.0, 2.0, -0.5], 4099)],
    ids=["spikes3000", "spikes3000-signed", "spikes32767", "spikes32767-signed",
         "floor", "floor-signed", "alternating-even", "alternating-odd", "alternating-4"])
def test_fft_pow4_weak_cases(values):
    assert_within_own_bound(DiscreteFunction(0, values))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 5000), bits=st.integers(0, 40),
       signed=st.booleans())
def test_fft_pow4_integer_arrays(seed, m, bits, signed):
    # integer values, where the exact oracle is cheap at thousands of entries
    rng = np.random.default_rng(seed)
    values = rng.integers(-(2 ** bits) if signed else 0, 2 ** bits, m, endpoint=True)
    assume(values.any())
    assert_within_own_bound(DiscreteFunction(0, values.astype(np.float64)))


def parseval_rel(y, t) -> mp.mpf:
    """(1 + r)^4 (1 + u)^6 - 1 with r = D / (low - D), D = rho_L sqrt(N) ||y||_2,
    rho_L = (1+u)^L (1+sqrt5 u)^L (1+4u)^L - 1 and low = (N t (1+u)^-6)^(1/4):
    the bound of the Parseval pow4 of y that returned t, N = 2^L."""
    levels = (2 * len(y) - 2).bit_length()
    with mp.workprec(200):
        u = mp.mpf(2) ** -53
        size = mp.mpf(2) ** levels
        rho = (1 + u) ** levels * (1 + mp.sqrt(5) * u) ** levels * (1 + 4 * u) ** levels - 1
        big_d = rho * mp.sqrt(size * mp.fsum(mp.mpf(float(v)) ** 2 for v in y))
        low = mp.root(size * mp.mpf(t) / (1 + u) ** 6, 4)
        r = big_d / (low - big_d)
        return (1 + r) ** 4 * (1 + u) ** 6 - 1


def assert_parseval_constant(f):
    # rel is the formula's value, rounded up by at most a part in 10^9
    t, k, rel = fourier_l4_pow4_with_error(f)
    pr = parseval_rel(np.ldexp(f.values, -(k // 4)), t)
    assert pr <= rel <= pr * (1 + 1e-9)


@settings(max_examples=100, deadline=None)
@given(values=values_of(FLOATS).filter(lambda v: any(v)))
def test_fft_pow4_bound_constant(values):
    assert_parseval_constant(DiscreteFunction(0, values))


@pytest.mark.parametrize("m", [1, 2, 3, 2049, 16384])
def test_fft_pow4_bound_constant_fixed_cases(m):
    assert_parseval_constant(DiscreteFunction(0, np.random.default_rng(m).standard_normal(m)))


def test_float_path_matches_extended_precision():
    # the certified ratio against one from the exact pow4 and a 200-bit lq sum
    rng = np.random.default_rng(9)
    f = DiscreteFunction(0, tuple(float(v) for v in rng.random(600) + 0.1))
    rep = ratio_report(f, 1.6)
    with mp.workprec(200):
        pow4 = reference_pow4_exact(f.values)
        l4hat = (mp.mpf(pow4.numerator) / pow4.denominator) ** mp.mpf(0.25)
        q = mp.mpf(1.6)
        lq = mp.fsum(mp.mpf(v) ** q for v in f.values.tolist()) ** (1 / q)
        assert abs(rep.ratio - l4hat / lq) <= mp.mpf(rep.err) * l4hat / lq
    assert rep.err < 1e-13


def percival_delta(y) -> mp.mpf:
    """||y||_2^2 ((1+u)^(3L) (1+sqrt5 u)^(3L+1) (1+4u)^(3L) - 1), L = log2 N."""
    levels = (2 * len(y) - 2).bit_length()
    with mp.workprec(200):
        u = mp.mpf(2) ** -53
        bracket = ((1 + u) ** (3 * levels) * (1 + mp.sqrt(5) * u) ** (3 * levels + 1)
                   * (1 + 4 * u) ** (3 * levels) - 1)
        return mp.fsum(mp.mpf(float(v)) ** 2 for v in y) * bracket


def returning_locals(code, names, call):
    """call() and the named locals of the frame of code as it returns."""
    seen = {}

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is code:
            seen.update((name, frame.f_locals[name]) for name in names)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(previous)
    return result, seen


def fft_counts_and_delta(keys):
    """_energy_fft(keys) on its counted route, its unrounded counts c (copied
    from its one irfft) and its bound delta (read from its frame as it
    returns).  A Parseval bound of 1/2 fails the route's gate, so these
    small sets are counted too."""
    seen = {}
    irfft = np.fft.irfft

    def copying_irfft(*args, **kwargs):
        out = irfft(*args, **kwargs)
        seen["c"] = out.copy()
        return out

    with (mock.patch.object(np.fft, "irfft", copying_irfft),
          mock.patch.object(discrete_core, "_pow4_bound", lambda size, norm2, total: (0.5, 0.0))):
        energy, frame = returning_locals(_energy_fft.__code__, ["delta"], lambda: _energy_fft(keys))
    span = int(keys[-1] - keys[0]) + 1
    return energy, seen["c"][:2 * span - 1], frame["delta"]


ENERGY_SETS = st.one_of(st.sets(st.integers(0, 300), min_size=1, max_size=80),
                        st.integers(1, 400).map(range))  # full intervals


def indicator_and_counts(keys):
    """The indicator y of the keys' offsets and its exact counts r = y*y."""
    y = np.zeros(int(keys[-1] - keys[0]) + 1)
    y[keys - keys[0]] = 1.0
    r = np.convolve(y.astype(np.int64), y.astype(np.int64))
    return y, r


@settings(max_examples=100, deadline=None)
@given(points=ENERGY_SETS)
def test_energy_fft_bound(points):
    keys = LatticeSet.from_values(points)._keys
    energy, c, delta = fft_counts_and_delta(keys)
    y, r = indicator_and_counts(keys)
    # delta is Percival's bound at ||1_K||_2^2 = |A|, and every FFT count lies within it
    pd = percival_delta(y)
    assert pd <= delta <= pd * (1 + 1e-9)
    assert len(c) == len(r)
    for cs, rs in zip(c.tolist(), r.tolist()):
        assert abs(Fraction(cs) - rs) <= Fraction(delta)
    assert energy == int(np.dot(r, r))


@settings(max_examples=100, deadline=None)
@given(points=ENERGY_SETS)
def test_energy_parseval_bound(points):
    keys = LatticeSet.from_values(points)._keys
    energy, frame = returning_locals(_energy_fft.__code__, ["total", "rel"],
                                     lambda: _energy_fft(keys))
    y, r = indicator_and_counts(keys)
    exact = int(np.dot(r, r))
    # rel is the Parseval pow4 bound at ||1_K||_2^2 = |A|, the sum lies
    # within it of E, and t rel / (1 - rel) bounds that distance below 1/2
    t, rel = frame["total"], frame["rel"]
    pr = parseval_rel(y, t)
    assert pr <= rel <= pr * (1 + 1e-9)
    distance = abs(Fraction(t) - exact)
    assert distance <= Fraction(rel) * exact
    assert distance <= Fraction(t) * Fraction(rel) / (1 - Fraction(rel)) < Fraction(1, 2)
    assert energy == exact


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
    keys = A._keys
    want = _energy_sorted(keys)
    assert _energy_fft(keys) == want
    # padded to 20 coordinates at n - 1, the keys are formed as Python ints
    # ((2n-1)^20 > 2^62), and their offsets are the same
    wide = LatticeSet(20, n, [p + [n - 1] * (20 - d) for p in A.points.tolist()])
    assert np.array_equal(wide._keys, keys) and wide._keys.dtype == keys.dtype
    assert _energy_fft(wide._keys) == want
    assert energy_of_set(A) == want
    if size <= 120:
        assert energy_bruteforce(A) == want


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 6), data=st.data())
def test_sorted_energy_matches_bruteforce(seed, d, data):
    n = data.draw(st.integers(1, {1: 60, 2: 12, 3: 6, 4: 4, 5: 3, 6: 3}[d]))
    size = data.draw(st.integers(1, min(n ** d, 60)))
    A = random_set(np.random.default_rng(seed), d, n, size)
    want = energy_bruteforce(A)
    # the set itself and the set moved 2^40 and 2^70 along every axis into a
    # cube that wide: in d >= 2 the wider base can take the keys' offsets to
    # int64 or Python ints (only the offsets are counted)
    for shift in (0, 1 << 40, 1 << 70):
        moved = LatticeSet(d, n + shift, [[c + shift for c in p] for p in A.points.tolist()])
        assert _energy_sorted(moved._keys) == want
        # at most |A| pairs per range: many ranges, each end found by bisection
        with mock.patch.object(discrete_core, "_SORT_BLOCK", 1):
            assert _energy_sorted(moved._keys) == want


# tokens the per-token path reads (or refuses) and the one-call path must
# leave to it: 19 digits and more, int64's ends, signs, underscores,
# non-ASCII digits, exponents, empty and blank tokens
ODD_TOKENS = ["999999999999999999", "1000000000000000000", "9223372036854775807",
              "-9223372036854775807", "-9223372036854775808", "9223372036854775808",
              "-0", "+5", "1_000", "\uff11", "1e3", "", " ", "-", "x", "007", "1 2"]


@st.composite
def set_texts(draw):
    """("inline" or "file", text): rows of comma-separated tokens, mostly
    plain decimals padded with spaces and tabs, joined by ";" (inline) or
    by LF or CRLF with comments and blank lines (file)."""
    kind = draw(st.sampled_from(["inline", "file"]))
    plain = draw(st.booleans())
    pad = st.sampled_from(["", " ", "\t", " \t "])
    value = st.integers(-10 ** 20, 10 ** 20).map(str)
    token = st.builds("".join, st.tuples(pad, value if plain else st.one_of(
        value, st.sampled_from(ODD_TOKENS)), pad))
    d = draw(st.integers(1, 4))
    widths = st.just(d) if plain else st.integers(0, 5)
    rows = draw(st.lists(widths.flatmap(
        lambda w: st.lists(token, min_size=w, max_size=w).map(",".join)), min_size=1, max_size=6))
    if not plain:
        junk = st.sampled_from(["", " ", "# note", ",", "0,"] if kind == "file" else ["", " ", ","])
        rows = draw(st.lists(st.one_of(st.sampled_from(rows), junk), min_size=1, max_size=8))
    if kind == "inline":  # one row and no ";" is the 1-dimensional form
        return kind, ";".join(rows) + draw(st.sampled_from(["", ";"]))
    return kind, draw(st.sampled_from(["\n", "\r\n"])).join(rows) + draw(
        st.sampled_from(["", "\n", "\r\n"]))


def _outcome(parse, arg):
    """parse(arg): the LatticeSet, or the InputError's message."""
    try:
        return parse(arg)
    except cli.InputError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@example(case=("inline", "999999999999999999,-999999999999999999"))
@example(case=("inline", "1000000000000000000,0"))
@example(case=("inline", "9223372036854775807,-9223372036854775807"))
@example(case=("inline", "-9223372036854775807;9223372036854775807;"))
@example(case=("inline", "9223372036854775808,0"))
@example(case=("file", "0\n-9223372036854775809"))
@example(case=("inline", "-0,0;1,-0"))
@example(case=("inline", "1_000,2"))
@example(case=("inline", "\uff11,2"))
@example(case=("inline", "0,,1"))
@example(case=("inline", "0,1,"))
@example(case=("inline", "1e3"))
@example(case=("inline", "0,1;2"))
@example(case=("file", "0,1\r\n2,3\r\n"))
@example(case=("file", "# header\n0,1\n\n2,3\n"))
@example(case=("file", "1000000000000000000,0\n1,1"))
@example(case=("file", "0,1\n2"))
@given(case=set_texts())
def test_plain_parse_matches_token_path(case):
    # the one-call path gives the per-token path's LatticeSet, or leaves the
    # input to it and its error message
    kind, text = case
    with tempfile.TemporaryDirectory() as tmp:
        if kind == "inline":
            parse, arg = cli.parse_inline_set, text
        else:
            parse, arg = cli.read_set_file, str(Path(tmp) / "set.txt")
            Path(arg).write_bytes(text.encode())
        fast = _outcome(parse, arg)
        with mock.patch.object(cli, "_plain_points", return_value=None):
            slow = _outcome(parse, arg)
    assert type(fast) is type(slow) and fast == slow


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
    keys = A._keys.tolist()
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert energy_of_set(A) == energy_bruteforce(A)


@st.composite
def keyed_sets(draw):
    """(d, side, points) with d <= 6: small cubes, whose keys fit int64, and
    sides up to 2^64, whose keys mostly do not."""
    d = draw(st.integers(1, 6))
    side = draw(st.one_of(st.integers(1, 12), st.integers(1, 2 ** 64)))
    coords = st.lists(st.integers(0, side - 1), min_size=d, max_size=d)
    return d, side, draw(st.lists(coords, max_size=120))


def one_dim(values):
    """The keyed_sets case of a 1-D set of nonnegative values."""
    return 1, max(values) + 1, [[v] for v in values]


def width_edge(h):
    """1-D points 2^40 onwards whose largest offset h puts 2 h + 1 near 2^31."""
    return one_dim([(1 << 40) + v for v in (0, 1, 2, 5, h // 2, h - 3, h - 2, h)])


@settings(max_examples=120, deadline=None)
@given(case=keyed_sets())
# 2 max + 1 just below 2^31, at 2^31 - 1 and past it; then at 2^63 - 1 and 2^63 + 1
@example(case=width_edge((2 ** 31 - 4) // 2))
@example(case=width_edge((2 ** 31 - 2) // 2))
@example(case=width_edge(2 ** 31 // 2))
@example(case=one_dim([0, 2 ** 62 - 1]))
@example(case=one_dim([0, 2 ** 62]))
def test_stored_keys(case):
    # the set keeps sum_i p_i (2n-1)^i of its colex-ordered points, less
    # their minimum, in the narrowest width that holds 2 max + 1
    d, side, points = case
    A = LatticeSet(d, side, points)
    base = 2 * side - 1
    want = [sum(c * base ** i for i, c in enumerate(p)) for p in A.points.tolist()]
    want = [k - min(want, default=0) for k in want]
    keys = A._keys
    assert keys.tolist() == want
    assert all(a < b for a, b in zip(want, want[1:]))
    assert not keys.flags.writeable and "_keys" not in repr(A)
    if want:
        top = 2 * want[-1] + 1
        assert keys.dtype == (np.int32 if top < 2 ** 31 else np.int64 if top < 2 ** 63
                              else object)
    assert energy_of_set(A) == energy_bruteforce(A)


@st.composite
def point_rows(draw):
    """(d, rows): integer rows of d coordinates, some past int64."""
    d = draw(st.integers(1, 4))
    coord = st.one_of(st.integers(-50, 50), st.integers(-2 ** 64, 2 ** 64))
    return d, draw(st.lists(st.lists(coord, min_size=d, max_size=d), max_size=20))


@settings(max_examples=100, deadline=None)
@given(case=point_rows())
@example(case=(2, []))  # the empty set a ball can be
@example(case=(3, [[5, -7, 2 ** 70]]))  # one point
@example(case=(2, [[-3, -9], [-1, -4], [-3, -4]]))  # negative coordinates
@example(case=(1, [[-2 ** 62], [2 ** 62]]))  # int64 points 2^63 apart
def test_translated_set(case):
    # the rows moved into their least enclosing cube [0, n-1]^d
    d, rows = case
    got = discrete_core._translated_set(
        discrete_core._int_array([c for p in rows for c in p]).reshape(-1, d))
    lo = [min(col) for col in zip(*rows)] or [0] * d
    side = max((max(col) - m for col, m in zip(zip(*rows), lo)), default=0) + 1
    want = LatticeSet(d, side, [[c - m for c, m in zip(p, lo)] for p in rows])
    assert (got.dim, got.side) == (d, side) and got == want


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 4), cap=st.integers(1, 40), radius=st.floats(0.1, 5.0),
       center=st.lists(st.one_of(st.integers(-10, 10).map(lambda k: k / 2),
                                 st.floats(-3.0, 3.0), st.floats(-1e19, 1e19),
                                 st.sampled_from([2.0 ** 63, -2.0 ** 63 - 2048])),
                       min_size=4, max_size=4))
# several blocks on the last axes, and the ball kept (2 points)
@example(d=3, cap=2, radius=1.0, center=[0.0, 0.0, 0.5, 0.0])
@example(d=4, cap=2, radius=1.0, center=[1e19, -2.0 ** 63, 7.0, -4.5])
def test_ball_blocks_match_box_scan(d, cap, radius, center):
    # with POINT_CAP small the builder forms its candidate sums in
    # several blocks of at most 4 * cap; its points, in order, or its refusal
    # are those of a scan of the whole box that sums the squared offsets
    # axis by axis as the builder does, each new axis's term added to the
    # partial sum of the axes before it
    center = tuple(center[:d])
    sizes, nonzero = [], np.nonzero

    def counted(a):
        sizes.append(a.size)
        return nonzero(a)
    with mock.patch.object(experiments, "POINT_CAP", cap), \
            mock.patch.object(experiments.np, "nonzero", counted):
        try:
            got = ball_lattice_set(d, radius, center).points.tolist()
        except CapExceededError:
            got = None
    assert max(sizes) <= 4 * cap
    sq, pts, counts = np.zeros(1), np.zeros((1, 0), dtype=np.int64), []
    for c in center:
        frac = c - math.trunc(c)
        off = np.arange(math.ceil(frac - radius), math.floor(frac + radius) + 1)
        sq = ((off - frac) ** 2 + sq[:, None]).T.ravel()
        pts = np.hstack([np.tile(pts, (off.size, 1)), np.repeat(off, len(pts))[:, None]])
        counts.append(np.count_nonzero(sq <= radius * radius))
    if counts[-1] > cap or max(counts[:-1], default=0) > 4 * cap:
        assert got is None
    else:
        inside = pts[sq <= radius * radius]
        if inside.size:
            inside -= inside.min(axis=0)
        assert got == inside.tolist()


@pytest.mark.parametrize("n", [64, 1000, 8191, 8192, 30000])
def test_fft_interval_energy(n):
    assert energy_of_set(LatticeSet.from_range(n)) == energy_interval_formula(n)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 2048), rows=st.integers(1, 16),
       zeros=st.floats(0.0, 1.0))
@example(seed=0, m=1024, rows=16, zeros=0.0)
def test_row_kernel_batch_independent(seed, m, rows, zeros):
    # every product in the kernel is a real one, rounded once: each row of a
    # batch gets, bit for bit, what it gets alone.  A complex product rounded
    # differently here once the batch spectrum held some 16k bins (8 rows
    # at m = 2048, 16 at m = 1024), so batches of up to 16 rows are drawn
    rng = np.random.default_rng(seed)
    X = rng.random((rows, m)) * (rng.random((rows, m)) >= zeros)
    e4, corr = _pow4_corr_rows(X)
    for i in range(rows):
        e_alone, corr_alone = _pow4_corr_rows(X[i:i + 1])
        assert e_alone[0] == e4[i] and np.array_equal(corr_alone[0], corr[i])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.integers(1, 64), rows=st.integers(1, 4))
def test_row_kernel_matches_convolve(data, m, rows):
    # signed rows, each scaled to max |x| = 1 so one step h suits every row
    X = np.array(data.draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m),
                                    min_size=rows, max_size=rows)))
    top = np.max(np.abs(X), axis=1)
    assume(np.all(top > 0))
    X /= top[:, None]
    e4, corr = _pow4_corr_rows(X)
    grad = 4.0 * corr

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
