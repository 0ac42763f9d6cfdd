"""Property tests: the exact ||f^||_4^4 kernel against the quadruple-sum
oracle, scale invariance of the ratio report, and certificate JSON round
trips."""

import json
import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import libmp, mp

from energylab.certificates import (GaussianScheduleParams, build_gaussian_certificate,
                                    certificate_from_dict, certificate_to_dict,
                                    revalidate_certificate)
from energylab.discrete_core import (DiscreteFunction, _pow4_exact, fourier_l4_pow4,
                                     fourier_l4_pow4_quadruple, fourier_l4_pow4_with_error,
                                     ratio_report)

INTS = st.integers(-10 ** 9, 10 ** 9)
FRACTIONS = st.fractions(max_denominator=10 ** 6)
# every finite float, plus signed values spread across 1e-300 .. 1e300
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda x, e: x * 10.0 ** e, st.floats(-1.0, 1.0), st.integers(-300, 300)))
# exact man * 2^exp, with mantissas wider than the 120-bit working precision
MPFS = st.builds(mp.ldexp, st.integers(-2 ** 130, 2 ** 130), st.integers(-400, 400))


def as_fraction(v) -> Fraction:
    if isinstance(v, mp.mpf):
        return Fraction(*libmp.to_rational(v._mpf_))
    return Fraction(v)


def values_of(scalars):
    return st.lists(scalars, min_size=1, max_size=40)


@settings(max_examples=100, deadline=None)
# 39 * 31^2 > 2^15 = 2^(2b + bit_length(m) - 1): slots without headroom would overflow
@example(offset=0, values=[31] * 39)
@example(offset=0, values=[-31] * 39)
@example(offset=0, values=[31, -31] * 19 + [31])
@given(offset=st.integers(-5, 5),
       values=st.one_of(values_of(INTS), values_of(FRACTIONS), values_of(FLOATS),
                        values_of(MPFS), values_of(st.one_of(INTS, FRACTIONS, FLOATS, MPFS))))
def test_exact_pow4_matches_quadruple_oracle(offset, values):
    f = DiscreteFunction(offset, tuple(values))
    exact = DiscreteFunction(f.offset, tuple(as_fraction(v) for v in f.values))
    oracle = fourier_l4_pow4_quadruple(exact)
    assert fourier_l4_pow4(exact) == oracle
    if f.is_zero:
        return
    assert _pow4_exact(f.values) == oracle
    value, rel = fourier_l4_pow4_with_error(f)
    assert abs(as_fraction(value) - oracle) <= Fraction(rel) * oracle


@settings(max_examples=100, deadline=None)
@example(ks=[1, 1], e=-1074, q=1.5)  # both norms round to 2 * 2^-1074
@example(ks=[1, 1], e=-1063, q=1.5)  # values near 1e-320
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
