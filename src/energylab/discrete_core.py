"""Finitely supported functions on Z and exact additive energies of lattice sets.

A function holds its values as one read-only float64 array, so every norm
starts from exact inputs and its bound covers only the arithmetic done.
The L4 norm of the Fourier transform is always evaluated through the
autoconvolution identity  ||f^||_4^4 = ||f*f||_2^2 = sum_s (f*f)(s)^2,
which for an indicator function 1_A reduces to the additive energy E(A).
Both norms are evaluated in float64 on the values' exact power-of-two
prescale y = f 2^-e, max|y| in [1, 2), and returned as a scaled value, e
and a relative bound for the arithmetic done; sharing e, the two sides of a
norm comparison are compared without leaving float64 range (_norm_pair).
Energies of lattice sets are counted exactly in arbitrary precision via the
representation function r(s) = #{(a,b) in A^2 : a+b = s}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Support length above which ||f^||_4^4 is one float64 FFT autoconvolution
# with a proved bound instead of the exact big-integer one.
HP_SUPPORT_CAP = 2048

FLOAT64_EPS = 2.0 ** -52

# Longest key span of the FFT energy path: its transforms then hold at most
# 2^22 entries (32 MiB each).  Sparser sets (large dimension) and sets of
# fewer than 64 points sort and count their pair sums instead, in blocks of at
# most _SORT_BLOCK sums (32 MiB of int64).
_FFT_SPAN_CAP = 1 << 21
_SORT_BLOCK = 1 << 22


class InvalidExponentError(ValueError):
    """lq norm requested with exponent q < 1."""


class ZeroFunctionError(ValueError):
    """Operation undefined for the zero function."""


class CapExceededError(RuntimeError):
    """Input larger than the configured safety cap."""


# Largest packed operand of the exact autoconvolution, in bits.  Float64
# values at the precision cap (support 2048) pack into at most ~8.6e6 bits
# (exponent spread 2^-1074..2^1024); only integer-valued input above the cap,
# which fourier_l4_pow4 still sums exactly, can need more.  It also bounds
# the support at 2^20 (32 m bits at least beyond that), which keeps the
# unpacking's uint16-limb Gram entries, sums of 2m-1 products below 2^32,
# under 2^53: exact in float64 and, summed k at a time, in int64.  The check
# runs before the pack buffers are allocated.
_PACK_BITS_CAP = 1 << 25


@dataclass(frozen=True, eq=False)
class DiscreteFunction:
    """Real-valued function on Z carried as (offset, values).

    values is the constructor's input copied into one read-only C-contiguous
    float64 array; every value must be finite.  Canonical form: values is
    empty (the zero function, offset 0) or has nonzero first and last
    entries.  Equal when offset and values are; not hashable.
    """

    offset: int = 0
    values: np.ndarray = ()

    def __post_init__(self):
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
        object.__setattr__(self, "offset", int(self.offset) + lo if hi else 0)
        object.__setattr__(self, "values", vals)

    def __eq__(self, other):
        if not isinstance(other, DiscreteFunction):
            return NotImplemented
        return self.offset == other.offset and np.array_equal(self.values, other.values)

    __hash__ = None

    @classmethod
    def indicator(cls, support) -> "DiscreteFunction":
        pts = np.unique(np.array([int(a) for a in support], dtype=np.int64))
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


def _autoconvolve(x):
    """FFT autoconvolution with a proved rounding bound: (c, e, delta).

    y = x * 2^-e is an exact power-of-two prescale with max|y| in [1, 2), so
    no product or sum below overflows or loses a normal value to underflow.
    c = irfft(rfft(y, N)^2, N)[:2m-1] with N the least power of two >= 2m-1,
    so c approximates y*y and x*x ~ c * 2^(2e).  delta >= max_s |c(s) - (y*y)(s)|.

    The bound is C. Percival's (Math. Comp. 72 (2003), Theorem 5.1; cf.
    Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 24.1)
    for a cyclic convolution of length N = 2^L by two forward transforms, a
    pointwise product and an inverse transform in arithmetic with unit
    roundoff u = 2^-53:

        ||c - y*y||_inf <= ||y||_2^2 ((1+u)^(3L) (1+sqrt5 u)^(3L+1) (1+beta)^(3L) - 1).

    Assumptions: N is a power of two, so the 1/N of the inverse is exact and
    the transform has L levels; numpy's pocketfft computes the same real
    transforms with radix-4/radix-2 passes, treated here as L radix-2
    levels; beta, the error of its precomputed twiddle factors, is taken
    generously as 4u.  With S = 3L(u + beta) + (3L+1) sqrt5 u, the bracket is
    at most e^S - 1 <= S(1 + S), as 1 + a <= e^a and S <= 1.  The
    factor 1 + 2^-40 covers the float64 evaluation of the bound itself and
    the absolute 2^-1074-sized errors of values flushed by the prescale or by
    underflow inside the transforms (||y||_2^2 >= 1, so those are below
    2^-1000 delta for any feasible m).  x is taken as exact: it is the
    function's own float64 values (or a 0/1 indicator).
    """
    m = len(x)
    e = _pow2_exponent(x)
    y = np.ldexp(x, -e)
    size = 1 << (2 * m - 2).bit_length()
    spec = np.fft.rfft(y, size)
    spec *= spec
    c = np.fft.irfft(spec, size)[:2 * m - 1]
    u = FLOAT64_EPS / 2.0
    levels = size.bit_length() - 1
    big_s = 3 * levels * (u + 4.0 * u) + (3 * levels + 1) * math.sqrt(5.0) * u
    # m rounded squares summed in float64 in any order are within (m + 1) u
    # of the exact sum; np.sum, unlike a BLAS dot, fixes that order
    norm2 = float(np.sum(y * y)) * (1.0 + (m + 1) * u)
    delta = big_s * (1.0 + big_s) * norm2 * (1.0 + 2.0 ** -40)
    return c, e, delta


# ---------------------------------------------------------------------------
# Norms with rounding bounds
# ---------------------------------------------------------------------------

def lq_norm_with_error(f: DiscreteFunction, q: float):
    """(x, e, rel) with ||f||_q = (sum |f(a)|^q)^(1/q) ~ x 2^e, relative
    bound rel, all in float64.

    y = f 2^-e, e = _pow2_exponent(f.values), is an exact power-of-two
    prescale with max|y| in [1, 2), so no power overflows (q <= 512) and
    T = fsum(|y|^q) exceeds 1/2.  x = T ** fl(1/q).  With u = 2^-53 the unit
    roundoff and S = sum |y|^q the true sum, term by term:

    - power: np.power is taken to be within 4 ulps, 8u;
    - sum: math.fsum returns the exact sum of the nonnegative float64 terms
      rounded once, u (Shewchuk, Discrete Comput. Geom. 18 (1997));

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
    total = math.fsum(np.power(np.abs(np.ldexp(f.values, -e)), q))
    u = FLOAT64_EPS / 2.0
    sigma = 9.0 * u * (1.0 + 2.0 ** -40)
    rel = (sigma / (q * (1.0 - sigma)) + (abs(math.log(total)) / q + 8.0) * u) * (1.0 + 2.0 ** -40)
    return total ** (1.0 / q), e, rel


def lq_norm(f: DiscreteFunction, q: float) -> float:
    x, e, _ = lq_norm_with_error(f, q)
    return float(np.ldexp(x, e))


def _integer_scaled(values):
    """(index, negative, mant, e, exp) for the nonzero values[index]:
    |values[index]| == mant * 2**(e - 53) exactly, with mant the 53-bit
    integer significand (int64 in [2^52, 2^53)), e the frexp exponent and
    negative the signs.

    exp = min(0, the lowest set-bit exponent of any value), so every
    a = mant * 2**(e - 53 - exp) is an integer, of bit length e - exp; a
    negative power only drops trailing zero bits of mant.
    """
    index = values.nonzero()[0]
    frac, e = np.frexp(values[index])
    signed = np.ldexp(frac, 53).astype(np.int64)
    # signed & -signed is 2^z for z trailing zero bits; its frexp exponent is z + 1
    low = np.frexp(signed & -signed)[1]
    exp = min(0, int(np.minimum.reduce(e + low)) - 54)
    return index, np.signbit(frac), np.abs(signed), e, exp


def _pow4_exact(values):
    """sum_s (f*f)(s)^2 for a nonzero float64 array, exactly, as an int or
    Fraction.

    Kronecker substitution: the values, scaled to integers a_i = |f_i| 2^-exp
    of at most b bits (_integer_scaled), are packed into X = P - N, where P
    holds the positive a_i and N the negative ones' magnitudes, each in slot
    i of w bits: X = sum sign_i a_i 2^(w i).  Then X^2 = sum_s c(s) 2^(w s)
    with c = a*a signed, and |c(s)| < m 2^(2b), so w >= 2b + bit_length(m) + 2
    leaves headroom below 2^(w-1).

    Packing: each a_i is one 64-bit word, mant << (o mod 8), written at byte
    o // 8 for its bit offset o, into a buffer whose rows carry 8 spare bytes
    on each side of the slot, so no two words overlap and no value needs a
    Python step.  mant's lowest bit lands e - 53 - exp >= -52 bits into the
    slot; any bits before the slot are trailing zeros of mant, which the
    left spare bytes take.

    Unpacking: adding the bias B = 2^(w-1) to every slot makes each slot of
    Z = X^2 + sum_s B 2^(w s) the digit u_s = c(s) + B in [0, 2^w), so no
    slot borrows from the next.  Z's bytes, read as a (2m-1, k) array L of
    uint16 limbs (the last limb of an odd-byte slot padded with a zero
    byte), give c(s) = sum_j L_sj 2^(16 j) - B, so B is taken off the last
    limb's column, and sum_s c(s)^2 = sum_jl (L^T L)_jl 2^(16 (j + l)): the
    Gram matrix of the limbs, summed along its 2k-1 anti-diagonals.  Each
    Gram entry sums 2m-1 products of magnitude below 2^32.  The pack cap
    keeps m <= 2^20 (a larger m needs w >= 32 and 32 m > _PACK_BITS_CAP), so
    every entry and every partial sum is an integer of magnitude below 2^53
    (2^44 up to support 2048): float64 and BLAS hold it exactly in any
    summation order, and the k-term anti-diagonal sums fit in int64.
    """
    index, negative, mant, e, exp = _integer_scaled(values)
    m = len(values)
    width = (2 * (int(np.maximum.reduce(e)) - exp) + m.bit_length() + 2 + 7) // 8
    if 8 * width * m > _PACK_BITS_CAP:
        raise CapExceededError(
            f"exact autoconvolution would pack {8 * width * m} bits, cap {_PACK_BITS_CAP}")
    row = width + 16
    buf = np.zeros(2 * m * row, dtype=np.uint8)  # P's m rows, then N's
    # bit offset of mant: 64 spare bits, then e - 53 - exp into its slot
    at = (index + m * negative) * (8 * row) + (e + (11 - exp))
    words = np.ndarray(len(buf) - 7, "<i8", buf, 0, (1,))  # words[o] = buf[o:o+8], unaligned
    byte, bit = np.divmod(at, 8)
    words[byte] = mant << bit
    packed = memoryview(buf.reshape(2, m, row)[:, :, 8:8 + width].tobytes())
    x = int.from_bytes(packed[:m * width], "little") - int.from_bytes(packed[m * width:], "little")
    terms, k = 2 * m - 1, (width + 1) // 2
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * terms, "little")
    z = np.frombuffer((x * x + bias).to_bytes(width * terms, "little"), dtype=np.uint8)
    limbs = np.zeros((terms, 2 * k), dtype=np.uint8)
    limbs[:, :width] = z.reshape(terms, width)
    limbs = limbs.view("<u2").astype(np.float64)
    limbs[:, -1] -= 1 << 8 * width - 16 * k + 15  # B on the last limb's scale
    gram = np.zeros((k, 2 * k), dtype=np.int64)
    gram[:, :k] = limbs.T @ limbs
    # row j shifted right by j: column d sums the anti-diagonal j + l = d
    diagonals = gram.ravel()[:k * (2 * k - 1)].reshape(k, 2 * k - 1).sum(axis=0)
    total = sum(v << 16 * d for d, v in enumerate(diagonals.tolist()))
    if exp >= 0:
        return total << 4 * exp
    return Fraction(total, 1 << -4 * exp)


def fourier_l4_pow4_with_error(f: DiscreteFunction):
    """(t, k, rel) with sum_s (f*f)(s)^2 ~ t 2^k and relative bound rel.

    k = 4e for the exact power-of-two prescale y = f 2^-e of
    _pow2_exponent, with max|y| in [1, 2), so t approximates
    sum (y*y)^2 >= ||y||_2^4 >= 1 and no scale overflows or underflows.
    Up to support HP_SUPPORT_CAP the sum is computed exactly (_pow4_exact)
    and t is its quotient by 2^k, one int/int true division, which Python
    rounds correctly: rel = u = 2^-53.  Above it, c = _autoconvolve(values)
    is one float64 FFT autoconvolution of y with a proved bound
    delta >= max_s |c(s) - (y*y)(s)| (Percival 2003, stated in
    _autoconvolve).  Then |sum c^2 - sum (y*y)^2| <= 2 delta ||c||_1 +
    (2m-1) delta^2, and the squares and the compensated sum t = fsum(c^2)
    add a rounding each.
    """
    if f.is_zero:
        return 0.0, 0, 0.0
    m = len(f.values)
    u = FLOAT64_EPS / 2.0
    if m <= HP_SUPPORT_CAP:
        k = 4 * _pow2_exponent(f.values)
        num, den = _pow4_exact(f.values).as_integer_ratio()
        return (num << max(-k, 0)) / (den << max(k, 0)), k, u
    c, e, delta = _autoconvolve(f.values)
    total = math.fsum(c * c)  # >= 1: sum (y*y)^2 >= ||y||_2^4 >= max|y|^4
    # a float64 sum of 2m-1 nonnegative terms is within 2m u of the exact sum
    l1 = float(np.sum(np.abs(c))) * (1.0 + 2 * m * u)
    abs_err = 2.0 * delta * l1 + (2 * m - 1) * delta * delta + 2.0 * u * total
    return total, 4 * e, abs_err / total * (1.0 + 2.0 ** -40)


def fourier_l4_pow4(f: DiscreteFunction):
    """||f^||_4^4 via the autoconvolution identity.

    Returns the exact int when every value is an integer (an indicator 1_A
    gives its energy E(A)), the float t 2^k of fourier_l4_pow4_with_error
    otherwise.
    """
    if f.is_zero:
        return 0
    if np.array_equal(np.trunc(f.values), f.values):
        return _pow4_exact(f.values)
    t, k, _ = fourier_l4_pow4_with_error(f)
    return float(np.ldexp(t, k))


def fourier_l4_pow4_quadruple(f: DiscreteFunction, cap: int = 64):
    """O(m^3) quadruple-sum oracle: sum f(a)f(b)f(c)f(a+b-c), exactly, as a
    Fraction.  Each value is taken as its exact Fraction and the products are
    summed over their common denominator."""
    m = len(f.values)
    if m > cap:
        raise CapExceededError(f"quadruple-sum oracle capped at support {cap}, got {m}")
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
    the float64 evaluation of the bound, enough while rel4 < 1/8 (it is
    about 2 m times the bracket S of _autoconvolve, so at any m < 2^40).
    rel_b is lq_norm_with_error's bound.
    """
    t, _, rel4 = fourier_l4_pow4_with_error(f)
    b, e, rel_b = lq_norm_with_error(f, q)
    u = FLOAT64_EPS / 2.0
    return math.sqrt(math.sqrt(t)), b, e, rel4 / (4.0 * (1.0 - rel4)) + 2.0 * u, rel_b


def ratio_report(f: DiscreteFunction, q: float) -> RatioReport:
    """||f^||_4 / ||f||_q as a / b on the common prescale of _norm_pair.

    The scale cancels, so err covers only the two bounds and the division:
    a/b = (A/B)(1 + alpha)/(1 + beta) with |alpha| <= rel_a, |beta| <= rel_b,
    so |(1 + alpha)/(1 + beta) - 1| <= (rel_a + rel_b)/(1 - rel_b), and the
    correctly rounded quotient adds u.  The factor 1 + 2^-40 covers their
    product and the float64 evaluation of err.  l4hat and lq are a 2^e and
    b 2^e; one that underflows to zero or overflows float64 is an error.
    """
    if f.is_zero:
        raise ZeroFunctionError("ratio undefined for the zero function")
    if q < 1:
        raise InvalidExponentError(f"ratio_report needs q >= 1, got {q}")
    a, b, e, rel_a, rel_b = _norm_pair(f, q)
    with np.errstate(over="ignore"):  # reported just below
        l4f, lqf = float(np.ldexp(a, e)), float(np.ldexp(b, e))
    if not (0.0 < l4f < math.inf and 0.0 < lqf < math.inf):
        raise ValueError(f"norms of f underflow or overflow float64 (l4hat {a:.6g}*2^{e}, "
                         f"lq {b:.6g}*2^{e}); rescale f")
    u = FLOAT64_EPS / 2.0
    err = ((rel_a + rel_b) / (1.0 - rel_b) + u) * (1.0 + 2.0 ** -40)
    return RatioReport(q=float(q), l4hat=l4f, lq=lqf, ratio=a / b, err=err)


# ---------------------------------------------------------------------------
# Lattice sets and exact energies
# ---------------------------------------------------------------------------

def _int_array(rows) -> np.ndarray:
    """Integer rows as an int64 array, or as Python ints in an object array
    when some value does not fit in int64."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


@dataclass(frozen=True, eq=False)
class LatticeSet:
    """Finite set of d-dimensional integer points inside a side-n cube.

    points may be any iterable of length-d integer sequences or a (k, d)
    integer array.  It is range-checked as one array and stored as a
    read-only C-contiguous (k, d) array of its distinct rows in
    colexicographic order (the last coordinate most significant): int64, or
    Python ints in an object array when some coordinate does not fit.  For
    any base b > n - 1 the keys sum_i p_i b^i are then strictly increasing,
    so _lattice_keys needs no sort.  Equal when dim, side and points are;
    not hashable."""

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
            rows = self.points if self.points.dtype == np.int64 else self.points.tolist()
        else:
            rows = list(self.points)
            wrong = next((p for p in rows if len(p) != self.dim), None)
            if wrong is not None:
                raise ValueError(f"point {tuple(wrong)} has wrong dimension (expected {self.dim})")
        arr = _int_array(rows).reshape(len(rows), self.dim)  # a copy of any input array
        outside = np.flatnonzero((arr < 0).any(axis=1) | (arr >= self.side).any(axis=1))
        if outside.size:
            raise ValueError(f"point {tuple(arr[outside[0]].tolist())} outside "
                             f"[0, {self.side - 1}]^{self.dim}")
        arr = arr[np.lexsort(arr.T)]
        keep = np.ones(len(arr), dtype=bool)
        keep[1:] = (arr[1:] != arr[:-1]).any(axis=1)
        arr = arr[keep]
        arr.flags.writeable = False
        object.__setattr__(self, "points", arr)

    def __eq__(self, other):
        if not isinstance(other, LatticeSet):
            return NotImplemented
        return ((self.dim, self.side) == (other.dim, other.side)
                and np.array_equal(self.points, other.points))

    __hash__ = None

    @classmethod
    def from_values(cls, values) -> "LatticeSet":
        """1-dimensional set from an iterable of integers in [0, n-1]."""
        arr = _int_array([int(v) for v in values]).reshape(-1, 1)
        return cls(1, int(arr.max()) + 1 if arr.size else 1, arr)

    @classmethod
    def from_range(cls, n: int) -> "LatticeSet":
        if n < 1:
            raise ValueError("n must be >= 1")
        return cls(1, n, np.arange(n, dtype=np.int64).reshape(n, 1))

    @property
    def size(self) -> int:
        return len(self.points)


def energy_interval_formula(n: int) -> int:
    """E({0..n-1}) = (2n^3 + n)/3, exactly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    num = 2 * n ** 3 + n
    if num % 3:
        raise ArithmeticError(f"2n^3 + n = {num} is not divisible by 3 at n={n}")
    return num // 3


def energy_of_set(A: LatticeSet) -> int:
    """Exact E(A) = sum_s r(s)^2 over the sumset, arbitrary precision.

    Both paths count the pair sums of the keys sum_i p_i (2n-1)^i: no
    coordinate sum reaches 2n-1, so adding keys never carries, and r(s)
    counts the pairs with each sum vector.  Dense sets of at least 64 points
    go through one FFT autoconvolution of the indicator of their keys; sparse
    ones, whose key span exceeds _FFT_SPAN_CAP or |A|^2, and small ones sort
    and count the pair sums.
    """
    if not A.size:
        return 0
    keys = _lattice_keys(A)
    d, n, m = A.dim, A.side, len(keys)
    if m >= 64:
        span = (n - 1) * ((2 * n - 1) ** d - 1) // (2 * n - 2) + 1  # largest key + 1
        if span <= min(_FFT_SPAN_CAP, m * m):
            energy = _energy_fft(keys)
            if energy is not None:
                return energy
    return _energy_sorted(keys)


def _lattice_keys(A: LatticeSet):
    """The keys sum_i p_i (2n-1)^i of the points of A, strictly increasing
    since the points are in colex order, as an int64 array when every pair
    sum fits (keys < (2n-1)^d / 2 <= 2^61), else as Python ints in an object
    array."""
    base, d = 2 * A.side - 1, A.dim
    dtype = np.int64 if base ** d <= 1 << 62 else object
    radix = np.array([base ** i for i in range(d)], dtype=dtype)
    return A.points.astype(dtype, copy=False) @ radix


def _energy_fft(keys):
    """E(A) from r = 1_K * 1_K, K the increasing int64 keys of A, or None.

    The rounded FFT counts are exact when the bound delta < 1/2, and they
    must add up to |A|^2.
    """
    lo = int(keys[0])
    indicator = np.zeros(int(keys[-1]) - lo + 1)
    indicator[keys - lo] = 1.0
    c, _, delta = _autoconvolve(indicator)  # max 1, so the prescale is 2^0
    r = np.rint(c, out=c).astype(np.int64)
    if not (delta < 0.5 and int(r.sum()) == len(keys) ** 2):
        return None
    # sum r^2 < |A|^3 <= _FFT_SPAN_CAP^3 = 2^63: int64 holds it
    return int(np.dot(r, r))


def _distinct_counts(sorted_sums, weights):
    """(distinct values, total weight of each) of a sorted array; weights
    is one weight per entry, or one weight for every entry."""
    starts = np.flatnonzero(np.concatenate(([True], sorted_sums[1:] != sorted_sums[:-1])))
    if np.ndim(weights):
        counts = np.add.reduceat(weights, starts)
    else:
        counts = np.diff(np.append(starts, sorted_sums.size))
        counts *= weights
    return sorted_sums[starts], counts


def _merge_counts(parts):
    """One (distinct values, counts) pair for a list of them.  It empties
    the list, and each input is freed once it is no longer needed."""
    if len(parts) == 1:
        return parts.pop()
    sums = np.concatenate([s for s, _ in parts])
    counts = np.concatenate([c for _, c in parts])
    parts.clear()
    order = np.argsort(sums, kind="stable")  # merges the sorted runs
    sums = sums[order]
    counts = counts[order]
    del order
    return _distinct_counts(sums, counts)


def _energy_sorted(keys) -> int:
    """E(A) = sum_s r(s)^2 from the increasing keys K of A, by sorting their
    pair sums.

    r(s) = 2c(s) + [s in 2K], where c(s) counts the pairs i < j with
    keys[i] + keys[j] = s.  Those sums are written row by row into one
    buffer of at most max(_SORT_BLOCK, |A|) entries; whenever the next row
    does not fit, the buffer is sorted in place and reduced to its distinct
    sums with twice their counts.  The doubled keys enter once each.  The
    reduced blocks are merged whenever they hold _SORT_BLOCK more entries
    than the last merge left, so memory stays O(_SORT_BLOCK + |A+A|).
    Object keys (Python ints) go through the same code.
    """
    m = len(keys)
    parts = [(2 * keys, np.ones(m, dtype=np.int64))]
    held, merged = m, 0
    buf = np.empty(min(max(_SORT_BLOCK, m), m * (m - 1) // 2), dtype=keys.dtype)
    pos = 0
    for i in range(m):
        row = m - 1 - i  # the sums keys[i] + keys[j], j > i; none in the last row
        if pos and (row == 0 or pos + row > buf.size):
            block = buf[:pos]
            block.sort()
            parts.append(_distinct_counts(block, 2))
            held += parts[-1][0].size
            pos = 0
            if held > merged + _SORT_BLOCK:
                parts = [_merge_counts(parts)]
                held = merged = parts[0][0].size
        np.add(keys[i], keys[i + 1:], out=buf[pos:pos + row])
        pos += row
    r = _merge_counts(parts)[1]
    # E(A) <= |A|^3 < 2^63 below 2^21 points (2^42 pair sums): int64 holds it
    return int(np.dot(r, r))


def energy_bruteforce(A: LatticeSet, cap: int = 300) -> int:
    """Independent oracle: enumerate (a1,a2,a3) and membership-test a1+a2-a3."""
    npts = A.size
    if npts > cap:
        raise CapExceededError(f"brute-force oracle capped at {cap} points, got {npts}")
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


def tensor_power(A: LatticeSet, d: int, cap: int = 2_000_000) -> LatticeSet:
    """Cartesian power A^d; satisfies E(A^d) = E(A)^d."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if d == 1:
        return A
    if A.dim != 1:
        raise ValueError("tensor_power needs a 1-dimensional base set")
    if A.size ** d > cap:
        raise CapExceededError(f"|A|^d = {A.size ** d} exceeds cap {cap}")
    index = np.indices((A.size,) * d).reshape(d, -1).T  # every d-tuple of row indices
    return LatticeSet(d, A.side, A.points[:, 0][index])


def trivial_lower_bound(n: int) -> float:
    """log_n((2n^3+n)/3), the bound attained by the full cube."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return math.log(energy_interval_formula(n)) / math.log(n)
