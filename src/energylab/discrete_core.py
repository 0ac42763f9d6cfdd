"""Finitely supported functions on Z and exact additive energies of lattice sets.

A function holds its values as one read-only float64 array, so every norm
starts from exact inputs and its bound covers only the arithmetic done.
The L4 norm of the Fourier transform is always evaluated through the
autoconvolution identity  ||f^||_4^4 = ||f*f||_2^2 = sum_s (f*f)(s)^2,
which for an indicator function 1_A reduces to the additive energy E(A).
Both norms have one evaluation path at every support: float64 on the
values' exact power-of-two prescale y = f 2^-e, max|y| in [1, 2), with
sum_s (y*y)(s)^2 taken by Parseval from one forward FFT of y, each
returned as a scaled value, e and a relative bound for the arithmetic
done; sharing e, the two sides of a norm comparison are compared without
leaving float64 range (_norm_pair).
Only fourier_l4_pow4 on integer-valued f, which no certificate uses,
returns the exact integer instead.
Energies of lattice sets are exact integers: E(A) = sum_s r(s)^2 for the
representation function r(s) = #{(a,b) in A^2 : a+b = s}.  A dense set
rounds the same one-transform Parseval sum, ||1_A^||_4^4, wherever its
bound pins the integer, and takes the rounded counts of r from a second,
inverse transform past that; a sparse one sorts its pair sums in
arbitrary precision.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

FLOAT64_EPS = 2.0 ** -52

# The FFT energy path takes key spans up to _FFT_SPAN_CAP (transforms of at
# most 2^22 entries, 32 MiB each) and |A|^2/_FFT_SPAN_DENSITY: on random 1-D
# sets of 32 to 3000 points its one-transform route took 0.25-1.5 of the
# sorted path's time at span |A|^2/16 (0.22-0.49 at /32, 0.29-3.1 at /8;
# 2-vCPU Xeon), the two crossing between /9 (300 points) and /20 (3000).
# Other sets sort their pair sums one range of sum values at a time, each
# range holding at most _SORT_BLOCK pairs (32 MiB of int64) or |A| if that
# is more.
_FFT_SPAN_CAP = 1 << 21
_FFT_SPAN_DENSITY = 16
_SORT_BLOCK = 1 << 22


class InvalidExponentError(ValueError):
    """lq norm requested with exponent q < 1."""


class ZeroFunctionError(ValueError):
    """Operation undefined for the zero function."""


class CapExceededError(RuntimeError):
    """Input larger than the configured safety cap."""


# Largest packed operand of _pow4_int, the exact autoconvolution of
# integer-valued functions, in bits: 4 MiB per operand, so its square and
# unpacking stay a few times that.  The check runs before the packing.
_PACK_BITS_CAP = 1 << 25
QUADRUPLE_CAP = 64  # largest support of the O(m^3) quadruple-sum oracle
# Fewest terms that _exact_sum extracts with numpy: below it math.fsum over a
# list is faster (measured crossover about 400-600 terms on a 2-vCPU Xeon).
_EXACT_SUM_MIN = 512
BRUTEFORCE_CAP = 300  # most points of the brute-force energy oracle
POINT_CAP = 2_000_000  # most points of a set the package builds: a tensor power or a ball


@dataclass(frozen=True, eq=False)
class DiscreteFunction:
    """Real-valued function on Z carried as (offset, values).

    values is the constructor's input copied into one read-only C-contiguous
    float64 array; every value must be finite, and offset must equal an
    integer (1.0 does, 1.5 and True do not).  Canonical form: values is
    empty (the zero function, offset 0) or has nonzero first and last
    entries.  Equal when offset and values are; not hashable.
    """

    offset: int = 0
    values: np.ndarray = ()

    def __post_init__(self):
        offset = _integral(self.offset, "offset")
        try:
            arr = np.asarray(self.values, dtype=np.float64)
        except OverflowError as exc:  # an int beyond float64 range, such as 10**400
            raise ValueError(f"function values must be finite: {exc}") from None
        if arr.ndim != 1:
            raise ValueError(f"function values must be one-dimensional, got shape {arr.shape}")
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise ValueError(f"function values must be finite, got {float(arr[bad[0]])!r}")
        nonzero = np.flatnonzero(arr)
        lo, hi = (int(nonzero[0]), int(nonzero[-1]) + 1) if nonzero.size else (0, 0)
        vals = arr[lo:hi].copy()  # later changes to the input do not reach f
        vals.flags.writeable = False
        object.__setattr__(self, "offset", offset + lo if hi else 0)
        object.__setattr__(self, "values", vals)

    def __eq__(self, other):
        if not isinstance(other, DiscreteFunction):
            return NotImplemented
        return self.offset == other.offset and np.array_equal(self.values, other.values)

    __hash__ = None

    @classmethod
    def indicator(cls, support) -> "DiscreteFunction":
        pts = np.unique(np.array([_integral(a, "support point") for a in support],
                                 dtype=np.int64))
        if not pts.size:
            return cls()
        vals = np.zeros(int(pts[-1] - pts[0]) + 1)
        vals[pts - pts[0]] = 1.0
        return cls(int(pts[0]), vals)

    @property
    def is_zero(self) -> bool:
        return not self.values.size


# ---------------------------------------------------------------------------
# Float64 arithmetic
# ---------------------------------------------------------------------------

def _pow2_exponent(arr) -> int:
    """e with max|arr| * 2^-e in [1, 2), so that scaling by 2^-e is exact."""
    return math.frexp(float(np.max(np.abs(arr))))[1] - 1


def _norm2_upper(y) -> float:
    """An upper bound on ||y||_2^2 for a float64 array y of m entries: the m
    rounded squares summed in float64 in any order are within (m + 1) u of
    the exact sum (u = 2^-53); np.sum, unlike a BLAS dot, fixes that order."""
    return float(np.sum(y * y)) * (1.0 + (len(y) + 1) * FLOAT64_EPS / 2.0)


def _exact_sum(r) -> float:
    """math.fsum(r), bit for bit, for a float64 array r of nonnegative finite
    terms: their exact sum rounded once.  r is overwritten.

    Error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31
    (2008), Algorithm 3.2).  Each pass takes sigma = 2^(E + b) with
    max|r| < 2^E and 2^b > m + 2, splits every term into q = fl(fl(sigma +
    r) - sigma), a multiple of ulp(sigma)/2 = 2^-53 sigma (or of 2^-1074),
    and r - q, which is exact (the rounding error of sigma + r), and keeps
    the remainder as the next r.  Every |q| <= max|r| + 2^-53 sigma, so
    every partial sum of the q is such a multiple of magnitude below sigma:
    it holds in 53 bits, and np.sum adds the q exactly in any order.  The
    remainder is signed, hence max|r|; it is at most 2^-53 sigma, so each
    pass lowers E by at least 52 - b, and once sigma <= 2^-1022 the
    additions are exact (their grid is 2^-1074), q = r and the remainder is
    zero.  math.fsum then rounds the exact total of the few pass sums once,
    as it would have rounded the total of r.  Fewer than _EXACT_SUM_MIN
    terms, or a sigma beyond float64 range, go to math.fsum directly.
    """
    m = len(r)
    if m < _EXACT_SUM_MIN:
        return math.fsum(r.tolist())
    shift = (m + 2).bit_length()
    top = float(r.max())
    if math.frexp(top)[1] + shift > sys.float_info.max_exp - 1:
        return math.fsum(r.tolist())
    q = np.empty_like(r)
    parts = []
    while top:
        sigma = math.ldexp(1.0, math.frexp(top)[1] + shift)
        np.add(r, sigma, out=q)
        q -= sigma
        r -= q
        parts.append(float(q.sum()))
        top = max(float(r.max()), -float(r.min()))
    return math.fsum(parts)


# ---------------------------------------------------------------------------
# Norms with rounding bounds
# ---------------------------------------------------------------------------

def lq_norm_with_error(f: DiscreteFunction, q: float):
    """(x, e, rel) with ||f||_q = (sum |f(a)|^q)^(1/q) ~ x 2^e, relative
    bound rel, all in float64.

    y = f 2^-e, e = _pow2_exponent(f.values), is an exact power-of-two
    prescale with max|y| in [1, 2), so no power overflows (q <= 512) and
    T = _exact_sum(|y|^q) exceeds 1/2.  x = T ** fl(1/q).  With u = 2^-53
    the unit roundoff and S = sum |y|^q the true sum, term by term:

    - power: np.power is taken to be within 4 ulps, 8u;
    - sum: _exact_sum adds the nonnegative float64 terms exactly by
      error-free extraction and rounds the exact sum once with math.fsum,
      u (Shewchuk, Discrete Comput. Geom. 18 (1997));

    so T = S (1 + s) with |s| <= sigma = 9u (1 + 2^-40), and s contributes
    (1+s)^(1/q) - 1 <= sigma / (q (1 - sigma)) to the root.  The factor
    covers the products of the power and sum terms, the float64 evaluation
    of sigma, and the absolute errors below 2^-1074 of values that underflow
    in the prescale or in the power (T > 1/2, so they weigh below 2^-1000
    relative to T at any feasible support).

    - reciprocal: fl(1/q) = (1/q)(1 + d), |d| <= u, turns T^(1/q) into
      T^(1/q) exp(d ln T / q), which adds |ln T| u / q to first order;
    - root: the float64 pow is taken to be within 4 ulps, 8u, as np.power.

    The final factor 1 + 2^-40 covers the products of these relative terms
    (each below 2^-40 for 1 <= q <= 512 and any support below 2^60) and the
    float64 evaluation of the bound.  ln T <= ln n + q ln 2 for support n,
    so |ln T| u / q is the only term that grows with the support, by
    u ln n / q.  x >= 1 - 8u and x <= T^(1/q) < 2 n, so x is normal.
    """
    if not 1 <= q <= 512:
        raise InvalidExponentError(f"lq norm needs 1 <= q <= 512, got {q}")
    if f.is_zero:
        return 0.0, 0, 0.0
    e = _pow2_exponent(f.values)
    total = _exact_sum(np.power(np.abs(np.ldexp(f.values, -e)), q))
    u = FLOAT64_EPS / 2.0
    sigma = 9.0 * u * (1.0 + 2.0 ** -40)
    rel = (sigma / (q * (1.0 - sigma)) + (abs(math.log(total)) / q + 8.0) * u) * (1.0 + 2.0 ** -40)
    return total ** (1.0 / q), e, rel


def lq_norm(f: DiscreteFunction, q: float) -> float:
    x, e, _ = lq_norm_with_error(f, q)
    return float(np.ldexp(x, e))


def _pow4_int(values) -> int:
    """sum_s (f*f)(s)^2, exactly, for a nonzero integer-valued float64 array.

    Kronecker substitution: the integers a_i, of at most b bits, go into
    slot i of w bytes of X = P - N, where P holds the positive a_i and N the
    negative ones' magnitudes.  Then X^2 = sum_s c(s) 2^(8ws) with c = a*a,
    and |c(s)| < m 2^(2b) <= 2^(8w-2) for w = ceil((2b + bit_length(m) + 2)/8),
    so adding the bias B = 2^(8w-1) to every slot leaves each digit
    c(s) + B in [0, 2^(8w)): no slot borrows from the next.
    """
    ints = [int(v) for v in values.tolist()]
    m = len(ints)
    w = (2 * max(map(abs, ints)).bit_length() + m.bit_length() + 2 + 7) // 8
    if 8 * w * m > _PACK_BITS_CAP:
        raise CapExceededError(f"exact autoconvolution would pack {8 * w * m} bits, "
                               f"cap {_PACK_BITS_CAP}")
    zero = bytes(w)
    pos = b"".join(a.to_bytes(w, "little") if a > 0 else zero for a in ints)
    neg = b"".join((-a).to_bytes(w, "little") if a < 0 else zero for a in ints)
    x = int.from_bytes(pos, "little") - int.from_bytes(neg, "little")
    terms, bias = 2 * m - 1, 1 << 8 * w - 1
    biased = x * x + int.from_bytes((zero[1:] + b"\x80") * terms, "little")
    z = biased.to_bytes(w * terms, "little")
    return sum((int.from_bytes(z[i:i + w], "little") - bias) ** 2 for i in range(0, len(z), w))


def fourier_l4_pow4_with_error(f: DiscreteFunction):
    """(t, k, rel) with sum_s (f*f)(s)^2 ~ t 2^k and relative bound rel.

    k = 4e for the exact power-of-two prescale y = f 2^-e of
    _pow2_exponent, with max|y| in [1, 2), so t approximates
    T = sum_s (y*y)(s)^2 >= ||y||_2^4 >= 1 and no scale overflows or
    underflows.  With N = 2^L the least power of two >= 2m - 1, the cyclic
    autoconvolution of length N is y*y itself, so for Y = DFT_N(y),
    Y^2 = DFT_N(y*y) and Parseval gives

        T = (1/N) sum_k |Y_k|^4 = ||Y||_4^4 / N.

    One forward transform suffices: rfft(y, N) holds the bins k <= N/2,
    and Y_(N-k) = conj(Y_k), so the interior bins are weighted by 2.  With
    p_k = (re^2 + im^2)^2 of the computed bins, t = _exact_sum(w p) / N;
    the weights w and 1/N are exact powers of two.  The bound, with
    u = 2^-53 the unit roundoff:

    - transform: Percival's Theorem 5.1 (stated in _energy_fft) composes
      one bound per length-N transform, and one forward transform alone
      obeys it under the same assumptions (pocketfft treated as L radix-2
      levels, twiddle error beta = 4u): the computed spectrum Yc, the
      half spectrum extended by conjugate symmetry, satisfies

          ||Yc - Y||_2 <= rho_L ||Y||_2 = rho_L sqrt(N) ||y||_2,
          rho_L = (1+u)^L (1+sqrt5 u)^L (1+beta)^L - 1,

      its squared norm over the full spectrum being the weighted one over
      the half spectrum.  With R = L (u + beta + sqrt5 u), rho_L <=
      e^R - 1 <= R (1 + R), as R <= 1.
    - spectrum to pow4: by the triangle inequality in l4 and
      ||v||_4 <= ||v||_2, | ||Yc||_4 - ||Y||_4 | <= ||Yc - Y||_2 <= D :=
      rho_L sqrt(N) ||y||_2, so ||Yc||_4 / ||Y||_4 lies within r =
      D / ||Y||_4 of 1, and ||Yc||_4^4 = N T (1 + a), |a| <= (1 + r)^4 - 1.
    - roundings: fl(re^2) + fl(im^2), rounded, is |Yc_k|^2 within
      (1 +- u)^2, so its rounded square p_k is |Yc_k|^4 within (1 +- u)^5,
      and the exact sum, rounded once, adds a sixth factor: t =
      ||Yc||_4^4 (1 + b) / N with (1 - u)^6 <= 1 + b <= (1 + u)^6.

    So t / T lies in [(1 - r)^4 (1 - u)^6, (1 + r)^4 (1 + u)^6], and
    |t / T - 1| <= (1 + r)^4 (1 + u)^6 - 1 <= e^s - 1 <= s (1 + s) with
    s = 4r + 6u.  r is bounded by computed values: ||Y||_4 >= ||Yc||_4 - D
    and ||Yc||_4^4 = N t / (1 + b) >= N t (1 - 6u), so r <= D / (low - D)
    with low = (N t (1 - 6u))^(1/4), and D <= R (1 + R) sqrt(N n2) for
    n2 = _norm2_upper(y) >= ||y||_2^2.  low > D at every feasible N:
    ||Y||_4^4 = N T >= N ||y||_2^4, so D / ||Y||_4 <= rho_L N^(1/4), which
    is below 2^-20 for N <= 2^64.  The factor 1 + 2^-40 covers the float64
    evaluation of the bound (a few u relative to r and s) and the absolute
    errors below 2^-1074 of squares that underflow (N t >= N (1 - s), so
    they weigh below 2^-1000 relative to it).
    """
    if f.is_zero:
        return 0.0, 0, 0.0
    e = _pow2_exponent(f.values)
    y = np.ldexp(f.values, -e)
    size = 1 << (2 * len(y) - 2).bit_length()
    total = _parseval_sum(_spectrum_power(y, size), size)
    rel, _ = _pow4_bound(size, _norm2_upper(y), total)
    return total, 4 * e, rel


def _spectrum_power(y, size):
    """p_k = fl(fl(re^2) + fl(im^2)), the computed |Y_k|^2 of the bins
    k <= N/2 of Y = rfft(y, N), N = size."""
    parts = np.fft.rfft(y, size).view(np.float64)  # re, im of each bin
    np.square(parts, out=parts)
    return parts[0::2] + parts[1::2]


def _parseval_sum(p, size):
    """t = _exact_sum(w p^2) / N for the p of _spectrum_power, with the
    weight w_k = 2 on the interior bins, which stand for Y_(N-k) = conj(Y_k)
    too, and 1 on the others.  p is squared in place: a fresh array of the
    squares took a quarter more time at support 32768 (2-vCPU Xeon)."""
    np.square(p, out=p)
    p[1:-1] *= 2.0
    return _exact_sum(p) / size


def _pow4_bound(size, norm2, total):
    """(rel, D) of fourier_l4_pow4_with_error for the Parseval sum t = total
    of a length-N (N = size) transform of y with ||y||_2^2 <= norm2: D
    bounds ||Yc - Y||_2 over the full computed spectrum, and |t/T - 1| <= rel
    for T = ||y*y||_2^2."""
    u = FLOAT64_EPS / 2.0
    levels = size.bit_length() - 1
    big_r = levels * (u + 4.0 * u + math.sqrt(5.0) * u)
    big_d = big_r * (1.0 + big_r) * math.sqrt(size * norm2)
    low = math.sqrt(math.sqrt(size * total * (1.0 - 6.0 * u)))
    s = 4.0 * big_d / (low - big_d) + 6.0 * u
    return s * (1.0 + s) * (1.0 + 2.0 ** -40), big_d


def fourier_l4_pow4(f: DiscreteFunction):
    """||f^||_4^4 via the autoconvolution identity.

    Returns the exact int of _pow4_int when every value is an integer (an
    indicator 1_A gives its energy E(A)), the float t 2^k of
    fourier_l4_pow4_with_error otherwise.
    """
    if f.is_zero:
        return 0
    if np.array_equal(np.trunc(f.values), f.values):
        return _pow4_int(f.values)
    t, k, _ = fourier_l4_pow4_with_error(f)
    return float(np.ldexp(t, k))


def fourier_l4_pow4_quadruple(f: DiscreteFunction):
    """O(m^3) quadruple-sum oracle: sum f(a)f(b)f(c)f(a+b-c), exactly, as a
    Fraction.  Each value is taken as its exact Fraction and the products are
    summed over their common denominator."""
    m = len(f.values)
    if m > QUADRUPLE_CAP:
        raise CapExceededError(f"quadruple-sum oracle capped at support {QUADRUPLE_CAP}, got {m}")
    if m == 0:
        return Fraction(0)
    exact = [Fraction(x) for x in f.values.tolist()]
    den = math.lcm(*(x.denominator for x in exact))
    v = [int(x * den) for x in exact]
    total = 0
    for a in range(m):
        if v[a] == 0:
            continue
        for b in range(m):
            fab = v[a] * v[b]
            if fab == 0:
                continue
            for c in range(m):
                d = a + b - c
                if 0 <= d < m:
                    total += fab * v[c] * v[d]
    return Fraction(total, den ** 4)


@dataclass(frozen=True)
class RatioReport:
    """||f^||_4 versus ||f||_q with a rigorous relative bound on the ratio."""

    q: float
    l4hat: float
    lq: float
    ratio: float
    err: float


def _norm_pair(f: DiscreteFunction, q: float):
    """(a, b, e, rel_a, rel_b) with ||f^||_4 ~ a 2^e and ||f||_q ~ b 2^e.

    The one evaluation of both sides of every norm comparison, in float64
    on their common exact prescale 2^-e (k = 4e for the pow4 sum t).
    a = sqrt(sqrt(t)): t's bound rel4 becomes (1 + rel4)^(1/4) - 1 <=
    rel4 / (4 (1 - rel4)), and the two correctly rounded square roots add
    u/2 + u.  rel_a adds a further u/2 for the products of these terms and
    the float64 evaluation of the bound, enough while rel4 < 1/8: rel4 is
    about 4 r + 6u with r <= rho_L N^(1/4) (fourier_l4_pow4_with_error),
    below 2^-20 at any transform length N <= 2^64.  rel_b is
    lq_norm_with_error's bound.  A norm beyond float64 range is an error;
    neither can underflow to zero, as a >= 1 - rel4 and b >= 1 - 8u for
    nonzero f.
    """
    t, _, rel4 = fourier_l4_pow4_with_error(f)
    b, e, rel_b = lq_norm_with_error(f, q)
    a = math.sqrt(math.sqrt(t))
    if math.frexp(max(a, b))[1] + e > sys.float_info.max_exp:  # max(a, b) 2^e >= 2^1024
        raise ValueError(f"norms of f overflow float64 (l4hat {a:.6g}*2^{e}, "
                         f"lq {b:.6g}*2^{e}); rescale f")
    u = FLOAT64_EPS / 2.0
    return a, b, e, rel4 / (4.0 * (1.0 - rel4)) + 2.0 * u, rel_b


def ratio_report(f: DiscreteFunction, q: float) -> RatioReport:
    """||f^||_4 / ||f||_q as a / b on the common prescale of _norm_pair.

    The scale cancels, so err covers only the two bounds and the division:
    a/b = (A/B)(1 + alpha)/(1 + beta) with |alpha| <= rel_a, |beta| <= rel_b,
    so |(1 + alpha)/(1 + beta) - 1| <= (rel_a + rel_b)/(1 - rel_b), and the
    correctly rounded quotient adds u.  The factor 1 + 2^-40 covers their
    product and the float64 evaluation of err.  l4hat and lq are a 2^e and
    b 2^e.
    """
    if f.is_zero:
        raise ZeroFunctionError("ratio undefined for the zero function")
    if q < 1:
        raise InvalidExponentError(f"ratio_report needs q >= 1, got {q}")
    a, b, e, rel_a, rel_b = _norm_pair(f, q)
    u = FLOAT64_EPS / 2.0
    err = ((rel_a + rel_b) / (1.0 - rel_b) + u) * (1.0 + 2.0 ** -40)
    return RatioReport(q=float(q), l4hat=math.ldexp(a, e), lq=math.ldexp(b, e),
                       ratio=a / b, err=err)


# ---------------------------------------------------------------------------
# Lattice sets and exact energies
# ---------------------------------------------------------------------------

def _int_array(values: list) -> np.ndarray:
    """A flat list of integers as an int64 array, or as Python ints in an
    object array when some value does not fit in int64.  A value equal to
    an integer, such as 1.0, is read as that integer; any other value, a
    bool included, raises ValueError naming the first one."""
    if set(map(type, values)) - {int}:
        values = list(map(_integral, values))
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _integral(v, what: str = "coordinate") -> int:
    """v as the int it equals; a bool, though equal to 0 or 1, is refused."""
    try:
        if int(v) == v and not isinstance(v, (bool, np.bool_)):
            return int(v)
    except (TypeError, ValueError, OverflowError):  # None, "x", nan, inf
        pass
    raise ValueError(f"{what} {v!r} is not an integer")


@dataclass(frozen=True, eq=False)
class LatticeSet:
    """Finite set of d-dimensional integer points inside a side-n cube.

    points may be any iterable of length-d integer sequences or a (k, d)
    array; a coordinate that is not an integer (1.0 is one, 0.5 and True
    are not) raises ValueError.  It is range-checked as one array and
    stored as a read-only C-contiguous (k, d) array of its distinct rows in
    colexicographic order (the last coordinate most significant): int64, or
    Python ints in an object array when some coordinate does not fit.

    Every row has one key, sum_i p_i (2n-1)^i: no coordinate sum of two
    points reaches 2n - 1, so adding keys never carries, and the pair sums
    of the keys count the pairs with each sum vector.  Any base above n - 1
    orders the keys as colex orders the rows, so the constructor sorts and
    drops repeats by these keys, and keeps them, less their minimum, as the
    read-only _keys, strictly increasing from 0.  Energy is translation
    invariant, so the energy routes count these offsets as they are.  They
    are held in the narrowest of int32, int64 and Python ints (an object
    array) that holds 2 max + 1, so every pair sum, bound and bisection
    point of _energy_sorted fits that width.  _keys takes no part in
    equality or repr.
    Equal when dim, side and points are; not hashable."""

    dim: int
    side: int
    points: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.side < 1:
            raise ValueError("side must be >= 1")
        if isinstance(self.points, np.ndarray):
            shape = self.points.shape
            if len(shape) != 2 or shape[1] != self.dim:
                raise ValueError(f"point array of shape {shape} has wrong dimension "
                                 f"(expected {self.dim})")
            # other dtypes go through Python ints, as a list of rows would
            arr = (self.points if self.points.dtype == np.int64
                   else _int_array(self.points.ravel().tolist()).reshape(shape))
        else:
            rows = list(self.points)
            wrong = next((p for p in rows if len(p) != self.dim), None)
            if wrong is not None:
                raise ValueError(f"point {tuple(wrong)} has wrong dimension (expected {self.dim})")
            arr = _int_array([v for p in rows for v in p]).reshape(len(rows), self.dim)
        if arr.size and (arr.min() < 0 or arr.max() >= self.side):
            outside = np.flatnonzero((arr < 0).any(axis=1) | (arr >= self.side).any(axis=1))
            raise ValueError(f"point {tuple(arr[outside[0]].tolist())} outside "
                             f"[0, {self.side - 1}]^{self.dim}")
        base = 2 * self.side - 1
        dtype = np.int64 if base ** self.dim <= 1 << 62 else object
        radix = np.array([base ** i for i in range(self.dim)], dtype=dtype)
        keys = arr.astype(dtype, copy=False) @ radix
        if len(keys):
            keys -= keys.min()
            top = 2 * int(keys.max()) + 1
            if top < 1 << 63:
                keys = keys.astype(np.int32 if top < 1 << 31 else np.int64, copy=False)
        keys, first = np.unique(keys, return_index=True)
        # a gathered copy: later changes to the input do not reach the set
        arr = arr[first]
        for name, value in (("points", arr), ("_keys", keys)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if not isinstance(other, LatticeSet):
            return NotImplemented
        return ((self.dim, self.side) == (other.dim, other.side)
                and np.array_equal(self.points, other.points))

    __hash__ = None

    @classmethod
    def from_values(cls, values) -> "LatticeSet":
        """1-dimensional set from an iterable of integers in [0, n-1]."""
        arr = _int_array(list(values)).reshape(-1, 1)
        return cls(1, int(arr.max()) + 1 if arr.size else 1, arr)

    @classmethod
    def from_range(cls, n: int) -> "LatticeSet":
        if n < 1:
            raise ValueError("n must be >= 1")
        return cls(1, n, np.arange(n, dtype=np.int64).reshape(n, 1))

    @property
    def size(self) -> int:
        return len(self.points)


def _translated_set(points: np.ndarray) -> LatticeSet:
    """The set of the (k, d) integer array points (int64, or Python ints in
    an object array) translated into its least enclosing cube [0, n-1]^d;
    an empty array gives the empty set of side 1."""
    if not len(points):
        return LatticeSet(points.shape[1], 1, points)
    lo = points.min(axis=0)
    span = max(h - l for h, l in zip(points.max(axis=0).tolist(), lo.tolist()))
    if span >= 1 << 63:  # the translated coordinates would wrap in int64
        points, lo = points.astype(object), lo.astype(object)
    return LatticeSet(points.shape[1], span + 1, points - lo)


def energy_interval_formula(n: int) -> int:
    """E({0..n-1}) = (2n^3 + n)/3, exactly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (2 * n ** 3 + n) // 3


def energy_of_set(A: LatticeSet) -> int:
    """Exact E(A) = sum_s r(s)^2 over the sumset, arbitrary precision.

    Both paths take the pair sums of the set's keys (LatticeSet).  A set
    whose key span is at most _FFT_SPAN_CAP and |A|^2/_FFT_SPAN_DENSITY goes
    to _energy_fft, which rounds the Parseval sum of one forward transform
    of the indicator of its keys while its bound pins E (up to 11.7k points
    at the span cap, 19.2k for an interval) and counts r by a forward and an
    inverse transform past that; the others, and a transform that fails its
    check, sort and count the pair sums one range of sum values at a time.
    """
    if not A.size:
        return 0
    keys = A._keys
    m = len(keys)
    if int(keys[-1]) + 1 <= min(_FFT_SPAN_CAP, m * m // _FFT_SPAN_DENSITY):
        energy = _energy_fft(keys)
        if energy is not None:
            return energy
    return _energy_sorted(keys)


def _energy_fft(keys):
    """E(A) = ||1_K * 1_K||_2^2 from one or two transforms of y = 1_K, K the
    keys of A (LatticeSet._keys, int32 at any span this route takes), or
    None.

    With m the key span and N = 2^L the least power of two >= 2m - 1, the
    cyclic autoconvolution of length N is r = y*y itself, and ||y||_2^2 =
    |A| exactly.  Two routes, picked before any transform:

    Parseval.  E = ||Y||_4^4 / N for Y = DFT_N(y), so E is the T of
    fourier_l4_pow4_with_error (prescale 2^0), and its Parseval sum t from
    one rfft has |t/T - 1| <= rel (_pow4_bound at norm2 = |A|).  As t >=
    E (1 - rel), |t - E| <= t rel / (1 - rel), and round(t) = E once that
    is below 1/2; rel's factor 1 + 2^-40 also covers the three roundings of
    this product.  The route is taken when the same bound holds at the
    largest energy a set can have, |A|^3 (r(s) <= |A| and sum_s r(s) =
    |A|^2): with rel_3 the bound at t = |A|^3, t <= E (1 + rel(t)) and rel
    falling as t grows give t <= t_3 = |A|^3 (1 + rel_3), and t rel / (1 -
    rel) grows with t, so t_3 rel_3 / (1 - rel_3) < 1/2 makes every set of
    |A| points pass.  In place of a count check the result is used only when
    the computed spectrum is plausible, the computed ||Yc||_2 = (sum_k w_k
    p_k)^(1/2) being within D of ||Y||_2 = (N |A|)^(1/2) (plus its own
    rounding, (N/2 + 8) u relative: two for each p_k, N/2 + 1 for the two
    np.sum in any order and their sum, one for the root and slack for the
    products), and when the
    integer does what every energy does: |A|^2 <= E <= |A|^3 and E = sum_s
    r(s)^2 = sum_s r(s) = |A|^2 = |A| (mod 2).

    Counted.  Past that reach (intervals above about 19.2k points),
    c = irfft(rfft(y, N)^2, N)[:2m-1] approximates r, and the rounded counts
    are exact when delta < 1/2 for delta >= max_s |c(s) - r(s)|.  The bound
    is C. Percival's (Math. Comp. 72 (2003), Theorem 5.1; cf. Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 24.1) for a
    cyclic convolution of length N by two forward transforms, a pointwise
    product and an inverse transform in arithmetic with unit roundoff
    u = 2^-53:

        ||c - y*y||_inf <= ||y||_2^2 ((1+u)^(3L) (1+sqrt5 u)^(3L+1) (1+beta)^(3L) - 1).

    Assumptions: N is a power of two, so the 1/N of the inverse is exact and
    the transform has L levels; numpy's pocketfft computes the same real
    transforms with radix-4/radix-2 passes, treated here as L radix-2
    levels; beta, the error of its precomputed twiddle factors, is taken
    generously as 4u.  With S = 3L(u + beta) + (3L+1) sqrt5 u, the bracket is
    at most e^S - 1 <= S(1 + S), as 1 + a <= e^a and S <= 1.  The factor
    1 + 2^-40 covers the float64 evaluation of the bound itself and the
    absolute 2^-1074-sized errors of underflow inside the transforms
    (|A| >= 1, so those are below 2^-1000 delta for any feasible m).  The
    rounded counts must also add up to |A|^2.
    """
    m = int(keys[-1]) + 1
    count = len(keys)
    indicator = np.zeros(m)
    indicator[keys] = 1.0
    size = 1 << (2 * m - 2).bit_length()
    u = FLOAT64_EPS / 2.0
    top = float(count) ** 3
    rel, big_d = _pow4_bound(size, count, top)
    if top * (1.0 + rel) * rel / (1.0 - rel) < 0.5:
        p = _spectrum_power(indicator, size)
        norm = math.sqrt(float(np.sum(p)) + float(np.sum(p[1:-1])))
        slack = (big_d + (len(p) + 7) * u * norm) * (1.0 + 2.0 ** -40)
        if not abs(norm - math.sqrt(size * count)) <= slack:
            return None  # a NaN or infinite spectrum included
        total = _parseval_sum(p, size)
        rel, _ = _pow4_bound(size, count, total)
        energy = round(total)
        pinned = total * rel / (1.0 - rel) < 0.5
        if pinned and count * count <= energy <= count ** 3 and (energy - count) % 2 == 0:
            return energy
        return None
    spec = np.fft.rfft(indicator, size)
    spec *= spec
    c = np.fft.irfft(spec, size)[:2 * m - 1]
    levels = size.bit_length() - 1
    big_s = 3 * levels * (u + 4.0 * u) + (3 * levels + 1) * math.sqrt(5.0) * u
    delta = big_s * (1.0 + big_s) * count * (1.0 + 2.0 ** -40)
    r = np.rint(c, out=c).astype(np.int64)
    if not (delta < 0.5 and int(r.sum()) == count ** 2):
        return None
    # sum r^2 < |A|^3 <= _FFT_SPAN_CAP^3 = 2^63: int64 holds it
    return int(np.dot(r, r))


def _energy_sorted(keys) -> int:
    """E(A) = sum_s r(s)^2 from the keys K of A (LatticeSet._keys), by
    sorting their pair sums one range of sum values at a time.

    Each range [lo, hi) takes the largest hi that leaves at most
    max(_SORT_BLOCK, |A|) pairs i <= j with keys[i] + keys[j] in it, found by
    bisection on the sum value; no sum has more than |A| such pairs, so every
    range is nonempty.  Row i's partners in the range are the j >= i between
    two searchsorted bounds.  Ranges are disjoint, so their sums of r^2
    simply add, and memory stays O(_SORT_BLOCK + |A|).
    """
    top = 2 * int(keys[-1]) + 1
    m = len(keys)
    block = max(_SORT_BLOCK, m)
    doubled = 2 * keys

    def past(x, first):  # row i's first partner j >= first[i] with sum >= x
        return np.maximum(np.searchsorted(keys, x - keys), first)

    energy = 0
    lo = 0
    first = np.arange(m)  # row i's first partner with sum >= lo
    while lo < top:
        hi = bad = top
        if int((past(top, first) - first).sum()) > block:
            hi = lo + 1
            while bad - hi > 1:
                mid = (hi + bad) // 2
                if int((past(mid, first) - first).sum()) <= block:
                    hi = mid
                else:
                    bad = mid
        last = past(hi, first)
        d0, d1 = np.searchsorted(doubled, (lo, hi))
        energy += _range_energy(keys, first, last, doubled[d0:d1])
        lo, first = hi, last
    return energy


def _range_energy(keys, first, last, twice) -> int:
    """sum_s r(s)^2 over one range of sum values, whose pairs i <= j are
    keys[i] + keys[j] for first[i] <= j < last[i] and whose doubled keys are
    twice.  The sums from _pair_sums are sorted in place and counted in
    runs of equal sums: r(s) = 2 run(s) - [s in twice], so sum_s r(s)^2 =
    4 sum run^2 - 4 sum_twice run + |twice|.  The run edges (one bool per
    pair) and the doubled keys' positions are taken before the sums are
    freed, and the squared run lengths are added a quarter of the runs at a
    time, so counting never holds more than gathering the sums did."""
    sums = _pair_sums(keys, first, last)
    sums.sort()
    edge = np.empty(len(sums) + 1, dtype=bool)  # where a run starts, and the end
    edge[0] = edge[-1] = True
    np.not_equal(sums[1:], sums[:-1], out=edge[1:-1])
    diagonal = np.searchsorted(sums, twice)
    del sums
    bounds = np.flatnonzero(edge)
    del edge
    diagonal = np.searchsorted(bounds, diagonal)  # the runs of the doubled keys
    quarter = len(bounds) // 4 + 1
    squares = 0
    for r0 in range(0, len(bounds) - 1, quarter):
        run = np.diff(bounds[r0:r0 + quarter + 1])
        # a run is at most |A| long and a range holds < 2^31 pairs, so
        # sum run^2 < 2^31 |A|: int64 holds it below 2^32 points
        squares += int(np.dot(run, run))
    on_diagonal = int((bounds[diagonal + 1] - bounds[diagonal]).sum())
    return 4 * squares - 4 * on_diagonal + len(twice)


def _pair_sums(keys, first, last) -> np.ndarray:
    """The sums keys[i] + keys[j], first[i] <= j < last[i], row by row.  They
    are formed in the keys' own width, which LatticeSet picks from the
    set's span, a quarter of the pairs at a time (keys[j] taken by an int32
    index, plus keys[i] repeated), so the temporaries stay a fraction of the
    sums."""
    counts = last - first
    starts = np.cumsum(counts) - counts  # each row's first pair
    sums = np.empty(int(counts.sum()), dtype=keys.dtype)
    # a range holds at most max(_SORT_BLOCK, |A|) < 2^31 pairs: int32
    # indexes every pair and every key
    shift = (first - starts).astype(np.int32)  # j less the pair's index
    rows = [0, *np.searchsorted(starts, np.arange(1, 4) * (len(sums) // 4)).tolist(), len(keys)]
    for r0, r1 in zip(rows, rows[1:]):
        if r0 == r1:
            continue
        c, p0 = counts[r0:r1], starts[r0]
        cols = np.repeat(shift[r0:r1], c)
        cols += np.arange(p0, p0 + len(cols), dtype=np.int32)
        np.add(keys.take(cols), np.repeat(keys[r0:r1], c), out=sums[p0:p0 + len(cols)])
    return sums


def energy_bruteforce(A: LatticeSet) -> int:
    """Independent oracle: enumerate (a1,a2,a3) and membership-test a1+a2-a3."""
    npts = A.size
    if npts > BRUTEFORCE_CAP:
        raise CapExceededError(f"brute-force oracle capped at {BRUTEFORCE_CAP} points, got {npts}")
    if npts == 0:
        return 0
    d, n = A.dim, A.side
    base = 3 * n - 2  # a1+a2-a3 coordinates live in [-(n-1), 2(n-1)]
    # pair sums of keys < 2 base^d; past int64 they are Python ints
    dtype = np.int64 if base ** d < 2 ** 62 else object
    radix = np.array([base ** i for i in range(d)], dtype=dtype)
    keys = np.sort((A.points.astype(dtype) + (n - 1)) @ radix)
    pair_sums = (keys[:, None] + keys[None, :]).ravel()
    total = 0
    for k3 in keys:
        target = pair_sums - k3
        idx = np.searchsorted(keys, target)
        idx = np.minimum(idx, npts - 1)
        total += int(np.count_nonzero(keys[idx] == target))
    return total


def tensor_power(A: LatticeSet, d: int) -> LatticeSet:
    """Cartesian power A^d; satisfies E(A^d) = E(A)^d."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if d == 1:
        return A
    if A.dim != 1:
        raise ValueError("tensor_power needs a 1-dimensional base set")
    if A.size ** d > POINT_CAP:
        raise CapExceededError(f"|A|^d = {A.size ** d} exceeds cap {POINT_CAP}")
    index = np.indices((A.size,) * d).reshape(d, -1).T  # every d-tuple of row indices
    return LatticeSet(d, A.side, A.points[:, 0][index])


def trivial_lower_bound(n: int) -> float:
    """log_n((2n^3+n)/3), the bound attained by the full cube."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return math.log(energy_interval_formula(n)) / math.log(n)
