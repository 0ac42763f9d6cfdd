"""Finitely supported functions on Z and exact additive energies of lattice sets.

The L4 norm of the Fourier transform is always evaluated through the
autoconvolution identity  ||f^||_4^4 = ||f*f||_2^2 = sum_s (f*f)(s)^2,
which for an indicator function 1_A reduces to the additive energy E(A).
Energies of lattice sets are counted exactly in arbitrary precision via the
representation function r(s) = #{(a,b) in A^2 : a+b = s}.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp

from . import precision
from .precision import FLOAT64_EPS, hp_unit, to_mpf, working

# Largest bin table used for the dense representation-count path; sparser
# sumsets (large dimension) go through a hash map keyed by the sum vector.
_BINCOUNT_CAP = 1 << 22

_EXACT_SCALAR = (int, Fraction)


class InvalidExponentError(ValueError):
    """lq norm requested with exponent q < 1."""


class ZeroFunctionError(ValueError):
    """Operation undefined for the zero function."""


class CapExceededError(RuntimeError):
    """Input larger than the configured safety cap."""


# Largest packed operand of the exact autoconvolution, in bits.  Float64
# values at support HP_SUPPORT_CAP pack into at most ~8.6e6 bits (exponent
# spread 2^-1074..2^1024); only mpf or Fraction values can need more.
_PACK_BITS_CAP = 1 << 25


def _normalize_scalar(v):
    if isinstance(v, (float, np.floating)):  # np.float64 subclasses float; coerce
        v = float(v)
        if math.isfinite(v):
            return v
    elif isinstance(v, (bool, np.integer)):
        return int(v)
    elif isinstance(v, (int, Fraction)):
        return v
    elif isinstance(v, mp.mpf):
        if mp.isfinite(v):
            return v
    else:
        raise TypeError(f"unsupported value type {type(v)!r}")
    raise ValueError(f"function values must be finite, got {v!r}")


@dataclass(frozen=True)
class DiscreteFunction:
    """Real-valued function on Z carried as (offset, values).

    Canonical form: values is empty (the zero function, offset 0) or has
    nonzero first and last entries.  Values may be int, float, Fraction or
    mpf and must be finite.
    """

    offset: int = 0
    values: tuple = ()

    def __post_init__(self):
        vals = [_normalize_scalar(v) for v in self.values]
        lo, hi = 0, len(vals)
        while lo < hi and vals[lo] == 0:
            lo += 1
        while hi > lo and vals[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            object.__setattr__(self, "offset", 0)
            object.__setattr__(self, "values", ())
        else:
            object.__setattr__(self, "offset", int(self.offset) + lo)
            object.__setattr__(self, "values", tuple(vals[lo:hi]))

    @classmethod
    def delta(cls, at: int = 0, height=1) -> "DiscreteFunction":
        return cls(at, (height,))

    @classmethod
    def indicator(cls, support) -> "DiscreteFunction":
        pts = sorted(set(int(a) for a in support))
        if not pts:
            return cls()
        lo, hi = pts[0], pts[-1]
        vals = [0] * (hi - lo + 1)
        for a in pts:
            vals[a - lo] = 1
        return cls(lo, tuple(vals))

    @property
    def is_zero(self) -> bool:
        return not self.values

    def support(self) -> range:
        return range(self.offset, self.offset + len(self.values))

    def __call__(self, a: int):
        i = a - self.offset
        if 0 <= i < len(self.values):
            return self.values[i]
        return 0

    def abs(self) -> "DiscreteFunction":
        return DiscreteFunction(self.offset, tuple(abs(v) for v in self.values))

    def scaled(self, c) -> "DiscreteFunction":
        return DiscreteFunction(self.offset, tuple(c * v for v in self.values))

    def shifted(self, s: int) -> "DiscreteFunction":
        return DiscreteFunction(self.offset + int(s), self.values)

    def float_values(self) -> np.ndarray:
        return np.array([float(v) for v in self.values], dtype=np.float64)


def add(f: DiscreteFunction, g: DiscreteFunction) -> DiscreteFunction:
    """Pointwise sum."""
    if f.is_zero:
        return g
    if g.is_zero:
        return f
    lo = min(f.offset, g.offset)
    hi = max(f.offset + len(f.values), g.offset + len(g.values))
    vals = [f(a) + g(a) for a in range(lo, hi)]
    return DiscreteFunction(lo, tuple(vals))


# ---------------------------------------------------------------------------
# Norms with rounding bounds
# ---------------------------------------------------------------------------

def lq_norm_with_error(f: DiscreteFunction, q: float):
    """(sum |f(a)|^q)^(1/q) together with a relative rounding bound."""
    if q < 1:
        raise InvalidExponentError(f"lq norm needs q >= 1, got {q}")
    if f.is_zero:
        return mp.mpf(0), 0.0
    n = len(f.values)
    if n <= precision.HP_SUPPORT_CAP:
        with working():
            qm = to_mpf(float(q))
            total = mp.mpf(0)
            for v in f.values:
                if v == 0:
                    continue
                total += abs(to_mpf(v)) ** qm
            value = total ** (1 / qm)
        u = hp_unit()
    else:
        arr = np.abs(f.float_values())
        total = math.fsum(np.power(arr, q))
        value = total ** (1.0 / q)
        u = FLOAT64_EPS
    # per term: input (2u) amplified by q, power 4u; nonnegative sum (n+1)u;
    # root divides by q and rounds twice; doubled for safety
    rel = 2.0 * ((2.0 * q + 4.0 + n + 1.0) / q + 2.0) * u
    return value, rel


def lq_norm(f: DiscreteFunction, q: float) -> float:
    if q < 1:
        raise InvalidExponentError(f"lq norm needs q >= 1, got {q}")
    if f.is_zero:
        return 0.0
    value, _ = lq_norm_with_error(f, q)
    return float(value)


def _integer_scaled(values):
    """(ints, exp, den) with values[i] == ints[i] * 2**exp / den exactly."""
    parts = []
    for v in values:
        if isinstance(v, int):
            parts.append((v, 0, 1))
        elif isinstance(v, Fraction):
            parts.append((v.numerator, 0, v.denominator))
        elif isinstance(v, float):
            num, den = v.as_integer_ratio()  # den is a power of two
            parts.append((num, 1 - den.bit_length(), 1))
        else:
            sign, man, exp, _ = v._mpf_
            parts.append((-man if sign else man, exp, 1))
    exp = min(e for n, e, _ in parts if n)
    den = math.lcm(*(d for _, _, d in parts))
    return [(n << (e - exp)) * (den // d) if n else 0 for n, e, d in parts], exp, den


def _pow4_exact(values):
    """sum_s (f*f)(s)^2 for nonzero values, exactly, as an int or Fraction.

    Kronecker substitution: the values, scaled to integers a_i, are packed
    into X = sum a_i 2^(w i), so X^2 holds c(s) = (a*a)(s) in its w-bit
    slots.  |c(s)| < m 2^(2b) for b-bit a_i, so w = 2b + bit_length(m) + 2
    leaves a sign bit and never carries into the next slot.
    """
    ints, exp, den = _integer_scaled(values)
    m = len(ints)
    width = (2 * max(abs(a) for a in ints).bit_length() + m.bit_length() + 2 + 7) // 8
    if 8 * width * m > _PACK_BITS_CAP:
        raise CapExceededError(
            f"exact autoconvolution would pack {8 * width * m} bits, cap {_PACK_BITS_CAP}")
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
    exp4 = 4 * exp
    if den == 1 and exp4 >= 0:
        return total << exp4
    return Fraction(total << max(exp4, 0), den ** 4 << max(-exp4, 0))


def fourier_l4_pow4_with_error(f: DiscreteFunction):
    """sum_s (f*f)(s)^2 with a relative rounding bound.

    Up to support HP_SUPPORT_CAP the sum is computed exactly (_pow4_exact)
    and rounded once to the working precision, so the bound is hp_unit().
    Above it, float64 np.convolve is used and the bound uses the
    magnitude-sum envelope |f|*|f|: each convolution coefficient c(s)
    carries |error| <= (m+6) u (|f|*|f|)(s), and the final square sum adds
    (N+3) u of the envelope's square sum.
    """
    if f.is_zero:
        return mp.mpf(0), 0.0
    m = len(f.values)
    if m <= precision.HP_SUPPORT_CAP:
        with working():
            # the only rounding: int or Fraction to WORKING_PREC bits, < 1 ulp
            return +mp.mpmathify(_pow4_exact(f.values)), hp_unit()
    arr = f.float_values()
    conv = np.convolve(arr, arr)
    nonneg = bool(np.all(arr >= 0))
    env = conv if nonneg else np.convolve(np.abs(arr), np.abs(arr))
    total = math.fsum(conv * conv)
    mag = math.fsum(env * env)
    u = FLOAT64_EPS
    if total <= 0:
        return total, math.inf
    coef_rel = (m + 6.0) * u
    nterms = 2 * m - 1
    abs_err = (coef_rel * (2.0 + coef_rel) + (nterms + 3.0) * u) * mag
    rel = 2.0 * float(abs_err / total)
    return total, rel


def fourier_l4_pow4(f: DiscreteFunction):
    """||f^||_4^4 via the autoconvolution identity.

    Returns an exact int/Fraction when f has exact values, a float otherwise.
    """
    if f.is_zero:
        return 0
    if all(isinstance(v, _EXACT_SCALAR) for v in f.values):
        return _pow4_exact(f.values)
    value, _ = fourier_l4_pow4_with_error(f)
    return float(value)


def fourier_l4_pow4_quadruple(f: DiscreteFunction, cap: int = 64):
    """O(m^3) quadruple-sum oracle: sum f(a)f(b)f(c)f(a+b-c)."""
    m = len(f.values)
    if m > cap:
        raise CapExceededError(f"quadruple-sum oracle capped at support {cap}, got {m}")
    if m == 0:
        return 0
    v = f.values
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
    return total


@dataclass(frozen=True)
class RatioReport:
    """||f^||_4 versus ||f||_q with a rigorous relative bound on the ratio."""

    q: float
    l4hat: float
    lq: float
    ratio: float
    err: float


def _norm_pair(f: DiscreteFunction, q: float):
    """(||f^||_4, ||f||_q, rel_lhs, rel_rhs) at working precision.

    The one evaluation of both sides of every norm comparison.  rel_lhs is a
    quarter of the pow4 bound plus the root and conversion roundings;
    rel_rhs is the lq bound plus its conversions.
    """
    pow4, rel4 = fourier_l4_pow4_with_error(f)
    lqv, relq = lq_norm_with_error(f, q)
    with working():
        lhs = to_mpf(pow4) ** mp.mpf("0.25")
        rhs = to_mpf(lqv)
    return lhs, rhs, rel4 / 4.0 + 4.0 * hp_unit(), relq + 2.0 * hp_unit()


def _float64_rel(x: float) -> float:
    """Relative bound on the rounding that produced the float64 x: the unit
    roundoff in the normal range, the subnormal spacing over |x| below it."""
    return FLOAT64_EPS if abs(x) >= sys.float_info.min else 2.0 ** -1074 / abs(x)


def ratio_report(f: DiscreteFunction, q: float) -> RatioReport:
    if f.is_zero:
        raise ZeroFunctionError("ratio undefined for the zero function")
    if q < 1:
        raise InvalidExponentError(f"ratio_report needs q >= 1, got {q}")
    lhs, rhs, rel_lhs, rel_rhs = _norm_pair(f, q)
    l4f, lqf = float(lhs), float(rhs)
    ratio = l4f / lqf
    # the division and both float64 conversions, doubled for the second-order
    # terms of the quotient (8 FLOAT64_EPS in the normal range)
    err = rel_lhs + rel_rhs + 2.0 * (2.0 * FLOAT64_EPS + _float64_rel(l4f) + _float64_rel(lqf))
    return RatioReport(q=float(q), l4hat=l4f, lq=lqf, ratio=ratio, err=err)


# ---------------------------------------------------------------------------
# Lattice sets and exact energies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeSet:
    """Finite set of d-dimensional integer points inside a side-n cube."""

    dim: int
    side: int
    points: frozenset

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.side < 1:
            raise ValueError("side must be >= 1")
        object.__setattr__(self, "points", frozenset(tuple(int(c) for c in p) for p in self.points))
        for p in self.points:
            if len(p) != self.dim:
                raise ValueError(f"point {p} has wrong dimension (expected {self.dim})")
            if any(c < 0 or c >= self.side for c in p):
                raise ValueError(f"point {p} outside [0, {self.side - 1}]^{self.dim}")

    @classmethod
    def from_points(cls, points, side: int | None = None) -> "LatticeSet":
        pts = [tuple(int(c) for c in p) for p in points]
        if not pts:
            return cls(1, side or 1, frozenset())
        dim = len(pts[0])
        if side is None:
            side = max(max(p) for p in pts) + 1
        return cls(dim, side, frozenset(pts))

    @classmethod
    def from_values(cls, values) -> "LatticeSet":
        """1-dimensional set from an iterable of integers in [0, n-1]."""
        pts = [(int(v),) for v in values]
        return cls.from_points(pts) if pts else cls(1, 1, frozenset())

    @classmethod
    def from_range(cls, n: int) -> "LatticeSet":
        if n < 1:
            raise ValueError("n must be >= 1")
        return cls(1, n, frozenset((i,) for i in range(n)))

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
    """Exact E(A) = sum_s r(s)^2 over the sumset, arbitrary precision."""
    pts = sorted(A.points)
    if not pts:
        return 0
    d, n = A.dim, A.side
    base = 2 * n - 1
    if len(pts) >= 64 and base ** d <= _BINCOUNT_CAP:
        return _energy_bincount(pts, d, base)
    return _energy_hashmap(pts)


def _energy_hashmap(pts) -> int:
    counts: dict = {}
    npts = len(pts)
    for i in range(npts):
        a = pts[i]
        for j in range(i, npts):
            b = pts[j]
            s = tuple(x + y for x, y in zip(a, b))
            counts[s] = counts.get(s, 0) + (1 if i == j else 2)
    return sum(v * v for v in counts.values())


def _energy_bincount(pts, d, base) -> int:
    radix = base ** np.arange(d, dtype=np.int64)
    keys = np.asarray(pts, dtype=np.int64) @ radix
    nbins = int(base ** d)
    counts = np.zeros(nbins, dtype=np.int64)
    chunk = max(1, 2_000_000 // len(keys))
    for i0 in range(0, len(keys), chunk):
        sums = (keys[i0:i0 + chunk, None] + keys[None, :]).ravel()
        counts += np.bincount(sums, minlength=nbins)
    nz = counts[counts > 0]
    if len(keys) < (1 << 21):  # sum of squares then fits in int64
        return int(np.dot(nz, nz))
    return sum(int(v) ** 2 for v in nz)


def energy_bruteforce(A: LatticeSet, cap: int = 300) -> int:
    """Independent oracle: enumerate (a1,a2,a3) and membership-test a1+a2-a3."""
    pts = sorted(A.points)
    npts = len(pts)
    if npts > cap:
        raise CapExceededError(f"brute-force oracle capped at {cap} points, got {npts}")
    if npts == 0:
        return 0
    d, n = A.dim, A.side
    base = 3 * n - 2  # a1+a2-a3 coordinates live in [-(n-1), 2(n-1)]
    if base ** d < 2 ** 62:
        radix = base ** np.arange(d, dtype=np.int64)
        arr = np.asarray(pts, dtype=np.int64) + (n - 1)
        keys = np.sort(arr @ radix)
        pair_sums = (keys[:, None] + keys[None, :]).ravel()
        total = 0
        for k3 in keys:
            target = pair_sums - k3
            idx = np.searchsorted(keys, target)
            idx = np.minimum(idx, npts - 1)
            total += int(np.count_nonzero(keys[idx] == target))
        return total
    # high dimension fallback: plain set membership
    member = set(pts)
    total = 0
    for a1 in pts:
        for a2 in pts:
            s = tuple(x + y for x, y in zip(a1, a2))
            for a3 in pts:
                if tuple(x - y for x, y in zip(s, a3)) in member:
                    total += 1
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
    vals = sorted(p[0] for p in A.points)
    return LatticeSet(d, A.side, frozenset(itertools.product(vals, repeat=d)))


def trivial_lower_bound(n: int) -> float:
    """log_n((2n^3+n)/3), the bound attained by the full cube."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return math.log(energy_interval_formula(n)) / math.log(n)
