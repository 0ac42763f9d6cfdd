"""Lower-bound witnesses for the additive-energy exponent.

A witness is a pair (f, q) with f supported on an interval of length n and
||f^||_4 > ||f||_q proved beyond the rounding bound; by the duality
t_n = 4/q_n it certifies the strict bound t_n > 4/q.  Two constructions are
built here: the eps-perturbed interval indicator f = 1_I + eps*delta_0 at
q = 4/log_n((2n^3+n)/3), and the sampled truncated Gaussian on the schedule
A = k^(2-eps/10), M = floor(k^(1-eps/100)).
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .continuum import (ASYMPTOTIC_LOG_BASE, GaussianSpec, gaussian_l4hat, gaussian_lq,
                        truncated_gaussian_l4hat_pow4, truncated_gaussian_lq)
from .discrete_core import (FLOAT64_EPS, CapExceededError, DiscreteFunction, _norm_pair,
                            energy_interval_formula, lq_norm)

CERTIFICATE_KINDS = ("gaussian", "perturbation", "explicit")

# Longest support of a witness either construction builds: 2^23 + 1 values.
SUPPORT_CAP = (1 << 23) + 1


@dataclass(frozen=True)
class Certificate:
    """Witness record: lhs = ||f^||_4, rhs = ||f||_q, margin = lhs - rhs,
    and err, a bound on the rounding error of margin.

    valid and implied_t_bound are computed from these numbers, never
    stored: valid is margin > err > 0 with err a normal float, in which case
    t_n > implied_t_bound = 4/q holds strictly.  For a certificate built by
    evaluate_certificate this is proved; for one read from JSON it states
    what the stored numbers claim, and revalidate_certificate proves it
    again from the stored function.  q lies in [1, 512], the range of
    lq_norm_with_error, so every certificate can be re-evaluated.
    """

    kind: str
    n: int
    q: float
    f: DiscreteFunction
    lhs: float
    rhs: float
    margin: float
    err: float

    def __post_init__(self):
        if self.kind not in CERTIFICATE_KINDS:
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not 1 <= self.q <= 512:
            raise ValueError(f"certificate field 'q' must lie in [1, 512], got {self.q!r}")
        if len(self.f.values) > self.n:
            raise ValueError(
                f"support length {len(self.f.values)} does not fit an interval of length {self.n}")

    @property
    def implied_t_bound(self) -> float:
        return 4.0 / self.q

    @property
    def valid(self) -> bool:
        return self.margin > self.err >= sys.float_info.min


def evaluate_certificate(kind: str, n: int, q: float, f: DiscreteFunction) -> Certificate:
    """Evaluate both norms of a candidate witness.

    _norm_pair gives ||f^||_4 ~ a 2^e and ||f||_q ~ b 2^e with relative
    bounds rel_a, rel_b on the true scaled values A, B.  Since
    |a - A| <= rel_a A <= rel_a a / (1 - rel_a), likewise for b, and the
    float64 gap = a - b is within u |gap| of a - b,

        |gap - (A - B)| <= rel_a a/(1 - rel_a) + rel_b b/(1 - rel_b) + u |gap|,

    times 1 + 2^-40 for the second-order terms and the float64 evaluation
    of err, so gap > err > 0 proves A > B.  lhs, rhs, margin and err are
    a, b, gap and err times 2^e: exact in the normal float64 range, so they
    need no storage term, and rounded once if they leave it.

    Certificate.valid, margin > err >= 2^-1022 on the stored fields, implies
    gap > err > 0.  ldexp rounds only below the normal range, to at most
    2^-1022, and never overflows here (_norm_pair keeps max(a, b) 2^e below
    2^1024), so the stored margin, above 2^-1022, is gap 2^e exactly.  The
    stored err is err 2^e exactly if that is normal, or 2^-1022 rounded up
    from just below it, so gap 2^e = margin > stored err >= err 2^e, and
    err > 0 as its stored value is.  An err rounded below the normal range
    makes the certificate not valid.
    """
    a, b, e, rel_a, rel_b = _norm_pair(f, q)
    u = FLOAT64_EPS / 2.0
    gap = a - b
    err = (rel_a * a / (1.0 - rel_a) + rel_b * b / (1.0 - rel_b) + u * abs(gap)) \
        * (1.0 + 2.0 ** -40)
    lhs, rhs, margin, err_f = np.ldexp([a, b, gap, err], e).tolist()
    return Certificate(kind=kind, n=n, q=float(q), f=f, lhs=lhs, rhs=rhs,
                       margin=margin, err=err_f)


# ---------------------------------------------------------------------------
# Perturbed interval indicator
# ---------------------------------------------------------------------------

def _centered_interval(n: int) -> tuple[int, int]:
    # I = {-floor((n-1)/2), ..., floor(n/2)}, an interval of length n around 0
    return -((n - 1) // 2), n // 2


def interval_overlap_sum(n: int) -> int:
    """sum_{a in I} (1_I * 1_I)(a), computed by convolution; it equals
    ceil(3n^2/4), which acceptance criterion 5 checks."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lo, hi = _centered_interval(n)
    conv = np.convolve(np.ones(n, dtype=np.int64), np.ones(n, dtype=np.int64))
    return int(conv[(lo - 2 * lo):(hi - 2 * lo) + 1].sum())


def build_perturbation_certificate(n: int, eps=0.5) -> Certificate:
    """Witness f = 1_I + eps*delta_0 at q = 4/log_n((2n^3+n)/3).

    q = 4 ln n / ln E(I) is evaluated in float64, and both norms, the margin
    and err come from evaluate_certificate at that q, as for every other
    witness, so revalidating the certificate reproduces it.  The certified
    bound 4/q = log_n E(I) does not depend on eps, only the margin does;
    eps = 1/2 has the largest margin in {2^-j : j = 1..20} at every n in
    [3, 2048] and at 4096, 10^4 and 10^5.  At eps = 0, the equality
    boundary ||1_I^||_4 = E(I)^(1/4) = ||1_I||_q, the margin is a rounding
    error within err and the certificate is not valid.  1 + eps is exact
    for eps = 2^-j; any other eps, 0.1 say, is stored and certified as the
    float64 fl(1 + eps).
    """
    if n < 3:
        raise ValueError("perturbation certificate needs n >= 3 "
                         "(the gap 3n^2 - (4/3)(2n^2+1) closes below that)")
    if not (math.isfinite(eps) and 0 <= eps <= 1):
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    if n > SUPPORT_CAP:
        raise CapExceededError(f"support {n} exceeds support cap {SUPPORT_CAP}")
    lo, _ = _centered_interval(n)
    values = [1.0] * n
    values[-lo] = 1.0 + float(eps)
    f = DiscreteFunction(lo, values)

    q = 4.0 * math.log(n) / math.log(energy_interval_formula(n))
    return evaluate_certificate("perturbation", n, q, f)


# ---------------------------------------------------------------------------
# Sampled truncated Gaussian
# ---------------------------------------------------------------------------

def _check_eps(eps: float) -> None:
    if not 0 < eps <= 1:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")


@dataclass(frozen=True)
class GaussianScheduleParams:
    """Schedule eps -> (k, A, M, q) for the Gaussian witness at window length n."""

    eps: float
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("n must be >= 3")
        _check_eps(self.eps)

    @classmethod
    def from_n_eps(cls, n: int, eps: float) -> "GaussianScheduleParams":
        return cls(eps=float(eps), n=n)

    @property
    def k(self) -> int:
        return (self.n - 1) // 2  # schedule assumes n = 2k+1 odd; even n floors k

    @property
    def a_param(self) -> float:
        return float(self.k) ** (2.0 - self.eps / 10.0)

    @property
    def m_trunc(self) -> int:
        return min(int(math.floor(float(self.k) ** (1.0 - self.eps / 100.0))), self.k)

    @property
    def q(self) -> float:
        return 4.0 / (3.0 - (1.0 + self.eps) * math.log(ASYMPTOTIC_LOG_BASE) / math.log(self.n))


def _sampled_gaussian(params: GaussianScheduleParams) -> DiscreteFunction:
    # the stored float64 samples are the witness, so their rounding needs no bound
    m = params.m_trunc
    grid = np.arange(-m, m + 1, dtype=np.float64)
    return DiscreteFunction(-m, np.exp(-(grid * grid) / params.a_param))


def build_gaussian_certificate(params: GaussianScheduleParams) -> Certificate:
    """Witness f(m) = exp(-m^2/A) on |m| <= M at the schedule's q.

    Validity is not guaranteed at small n; the certificate records margin and
    err either way.
    """
    support = 2 * params.m_trunc + 1
    if support > SUPPORT_CAP:
        raise CapExceededError(f"support {support} exceeds support cap {SUPPORT_CAP}")
    f = _sampled_gaussian(params)
    return evaluate_certificate("gaussian", params.n, params.q, f)


@dataclass(frozen=True)
class DiscretizationReport:
    """Continuum-vs-discrete measurements for one Gaussian schedule point.

    Deviations come in two forms: raw relative deviations, and the same
    quantities divided by the k^{-1/2} rate they are bounded by, recorded as
    *_ratio ("deviation ratios").  truncation_deficit is the absolute
    ||g^||_4 - ||g_M^||_4 and truncation_deficit_rel its relative form;
    truncation_bound is exp(-k^{eps/20}).
    """

    params: GaussianScheduleParams
    g_l4hat: float
    g_lq: float
    gm_l4hat: float
    gm_lq: float
    f_l4hat: float
    f_lq: float
    truncation_deficit: float
    truncation_deficit_rel: float
    truncation_bound: float
    cell_deviation: float
    l4_deviation: float
    lq_deviation: float
    cell_ratio: float
    l4_ratio: float
    lq_ratio: float
    parity_lq_gap: float


def continuum_discretization_report(params: GaussianScheduleParams) -> DiscretizationReport:
    """Measure how the sampled truncated Gaussian tracks its continuum source."""
    a, m, q, k = params.a_param, params.m_trunc, params.q, params.k
    spec = GaussianSpec(a)
    g_l4 = gaussian_l4hat(spec)
    g_lq = gaussian_lq(spec, q)
    gm_l4 = truncated_gaussian_l4hat_pow4(a, m) ** 0.25
    gm_lq = truncated_gaussian_lq(a, q, m)

    f = _sampled_gaussian(params)
    l4_scaled, lq_scaled, e, _, _ = _norm_pair(f, q)
    f_l4, f_lq = float(np.ldexp(l4_scaled, e)), float(np.ldexp(lq_scaled, e))
    # same function under the half-open truncation [-M, M): drop the +M sample
    f_half = DiscreteFunction(f.offset, f.values[:-1])
    parity_gap = abs(f_lq - lq_norm(f_half, q))

    # per-cell relative variation of g over [m, m+1) for m in [-M, M-1]
    cell_dev = float(np.max(np.abs(np.diff(f.values)) / f.values[:-1]))

    rate = k ** -0.5
    dev_l4 = abs(gm_l4 / f_l4 - 1.0)
    dev_lq = abs(gm_lq / f_lq - 1.0)
    deficit = g_l4 - gm_l4
    return DiscretizationReport(
        params=params,
        g_l4hat=g_l4, g_lq=g_lq, gm_l4hat=gm_l4, gm_lq=gm_lq,
        f_l4hat=f_l4, f_lq=f_lq,
        truncation_deficit=deficit,
        truncation_deficit_rel=deficit / g_l4,
        truncation_bound=math.exp(-float(k) ** (params.eps / 20.0)),
        cell_deviation=cell_dev,
        l4_deviation=dev_l4,
        lq_deviation=dev_lq,
        cell_ratio=cell_dev / rate,
        l4_ratio=dev_l4 / rate,
        lq_ratio=dev_lq / rate,
        parity_lq_gap=parity_gap,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

# The separator between two value strings of the indented JSON list.
_SEP = '",\n    "'
# Fewest values that _values_block formats with the _repr_block kernel:
# below it map(repr) is faster (measured crossover about 500 values, and
# 1000 for palindromes, which both paths format half of; 2-vCPU Xeon).
_REPR_BLOCK_MIN = 1024
_REPR_CHUNK = 4096  # rows per kernel pass


def _mirror(head: list, m: int) -> list:
    """head, then its first m - len(head) entries in reverse order: the
    palindrome of length m whose first ceil(m/2) entries are head, or head
    itself if it has m entries."""
    return head + head[:m - len(head)][::-1]


def _u(x) -> np.uint64:
    return np.uint64(x)


_M32 = _u(0xFFFFFFFF)
_M52 = _u((1 << 52) - 1)
_M63 = _u((1 << 63) - 1)
# _PREFIX_MASK[:, n]: the first n bytes of a 24-byte row set, one
# little-endian word per row; _ASCII_PREFIX[:, n] holds "0" in them
_PREFIX_MASK = np.array([[(1 << 8 * min(max(n - 8 * j, 0), 8)) - 1 for n in range(25)]
                         for j in range(3)], dtype=np.uint64)
_ASCII_PREFIX = _PREFIX_MASK & _u(0x3030303030303030)
# after the sign byte: nothing, or "0." and z - 1 zeros for z = 1 - decpt
_LEAD = np.array([0] + [int.from_bytes(b"\0" + b"0." + b"0" * (z - 1), "little")
                        for z in range(1, 5)], dtype=np.uint64)
_SEP_WORD = _u(int.from_bytes(_SEP.encode(), "little"))


def _floor_log(x: Fraction, base: int) -> int:
    """floor(log_base x) for a positive rational x, exactly."""
    k = math.floor(math.log(x.numerator, base) - math.log(x.denominator, base))
    while Fraction(base) ** k > x:
        k -= 1
    while Fraction(base) ** (k + 1) <= x:
        k += 1
    return k


@functools.cache
def _key_tables() -> tuple:
    """Schubfach's h, g1 and g0 (g = g1 2^63 + g0) as uint64 rows, k, and
    whether they are filled in, per key = biased exponent << 1 | irregular
    spacing: a memo of constants that _fill_keys fills on first use."""
    return (np.zeros((3, 4096), dtype=np.uint64), np.zeros(4096, dtype=np.int64),
            np.zeros(4096, dtype=bool))


def _fill_keys(keys: set) -> None:
    """Schubfach's constants for the doubles 2^q c, q = key // 2 - 1075:
    k = floor(log10 2^q), or floor(log10 (3/4) 2^q) at a power of two above
    the lowest binade (key odd, where the gap below is half the gap above),
    g = floor(10^-k 2^(125 - f)) + 1 with f = floor(log2 10^-k), so that
    2^125 < g <= 2^126, and h = q + f + 2, from Python ints exactly."""
    consts, ks, ready = _key_tables()
    for key in keys:
        q = (key >> 1) - 1075
        k = _floor_log(Fraction(3, 4) * Fraction(2) ** q if key & 1 else Fraction(2) ** q, 10)
        f = _floor_log(Fraction(10) ** -k, 2)
        g = math.floor(Fraction(10) ** -k * Fraction(2) ** (125 - f)) + 1
        consts[:, key] = (q + f + 2, g >> 63, g & ((1 << 63) - 1))
        ks[key] = k
        ready[key] = True


def _mulhi(ah, al, bh, bl):
    """floor(a b / 2^64) of a = ah 2^32 + al < 2^63 and b = bh 2^32 + bl
    < 2^60, whose middle products then add up below 2^64."""
    mid = (al * bl) >> _u(32)
    mid += ah * bl
    mid += al * bh
    mid >>= _u(32)
    mid += ah * bh
    return mid


def _shortest(bits):
    """(d, k) with d 10^k the shortest decimal that rounds to v, and of
    those the closest to v (ties to even d), for the positive normal
    doubles v of raw bits; 10^15 <= d < 10^17.

    This is R. Giulietti's Schubfach ("The Schubfach way to render doubles",
    2020) as in Java's DoubleToDecimal.  With c the 53-bit significand and
    cp = 4 c 2^h, vb, vbl and vbr are v and the ends of its rounding
    interval, times 4 10^-k, each rounded to odd from g cp / 2^127: the
    interval ends add -+g 2^(h+1) to g cp (g 2^h below a power of two).
    g < 2^126 and cp < 2^60 (h <= 5) at every key, so g1 cp and g0 cp,
    g = g1 2^63 + g0, are 128-bit words hi:lo computed exactly."""
    frac = bits & _M52
    irregular = (frac == _u(0)) & (bits >= _u(2 << 52))
    key = ((bits >> _u(52)).astype(np.intp) << 1) | irregular
    consts, ks, ready = _key_tables()
    if not ready[key].all():
        _fill_keys(set(key[~ready[key]].tolist()))
    consts = consts.take(key, axis=1)
    h, g = consts[0], consts[1:]
    c = frac | _u(1 << 52)
    cp = c << (h + _u(2))
    # [vbl, vb, vbr] x [g1, g0] x values: the low and high words
    lo = np.empty((3, 2, len(c)), dtype=np.uint64)
    hi = np.empty((3, 2, len(c)), dtype=np.uint64)
    hi[1] = _mulhi(g >> _u(32), g & _M32, cp >> _u(32), cp & _M32)
    lo[1] = g * cp
    up = h + _u(1)
    down = up - irregular
    np.subtract(lo[1], g << down, out=lo[0])
    hi[0] = hi[1] - (g >> (_u(64) - down)) - (lo[1] < lo[0])
    np.add(lo[1], g << up, out=lo[2])
    hi[2] = hi[1] + (g >> (_u(64) - up)) + (lo[2] < lo[1])
    # Java's rop: (g1 cp 2^63 + g0 cp) / 2^127, the low bit set if inexact
    z = (lo[:, 0] >> _u(1)) + hi[:, 1]
    vbl, vb, vbr = (hi[:, 0] + (z >> _u(63))) | (((z & _M63) + _M63) >> _u(63))
    odd = c & _u(1)  # an odd c's interval excludes its ends
    lower = vbl + odd
    upper = vbr - odd
    # s or s + 1, whichever alone lies in the interval, else the closer; a
    # multiple of 10 if exactly one of the two around s does
    s = vb >> _u(2)
    uin = lower <= (s << _u(2))
    win = ((s + _u(1)) << _u(2)) <= upper
    nearest = ((vb & _u(3)) + (s & _u(1))) >= _u(3)
    d = s + np.where(uin != win, win, nearest)
    s10 = (s // _u(10)) * _u(10)
    upin = lower <= (s10 << _u(2))
    wpin = ((s10 + _u(10)) << _u(2)) <= upper
    return np.where(upin != wpin, s10 + _u(10) * wpin, d), ks.take(key)


def _digit_bytes(x):
    """The 8 decimal digits of each x < 10^8 as byte values, the leading one
    in the lowest byte: x splits in lanes of 32, 16 and then 8 bits, where
    (v * 10486) >> 20 and (v * 103) >> 10 are v // 100 and v // 10 of each
    lane."""
    hi = (x * _u(109951163)) >> _u(40)  # x // 10000 below 5 10^8
    v = hi | ((x - hi * _u(10000)) << _u(32))
    t = ((v * _u(10486)) >> _u(20)) & _u(0x0000007F0000007F)
    v = t | ((v - t * _u(100)) << _u(16))
    t = ((v * _u(103)) >> _u(10)) & _u(0x000F000F000F000F)
    return t | ((v - t * _u(10)) << _u(8))


@functools.cache
def _tails() -> np.ndarray:
    """Little-endian words: nothing, ".", ".0", then "e-324" ... "e+308"."""
    tails = [b"", b".", b".0"] + [f"e{e:+03d}".encode() for e in range(-324, 309)]
    return np.array([int.from_bytes(t, "little") for t in tails], dtype=np.uint64)


def _repr_rows(bits) -> np.ndarray:
    """(m, 4) little-endian words: row i holds repr of the finite double of
    raw bits[i] in bytes 1-23, its sign or NUL in byte 0 and NUL in the
    unused bytes, then the separator."""
    m = len(bits)
    mag = bits & _M63
    normal = mag >= _u(1 << 52)
    if normal.all():
        d, k = _shortest(mag)
    else:  # zeros stay d = 0; subnormals take repr's digits
        d = np.zeros(m, dtype=np.uint64)
        k = np.zeros(m, dtype=np.int64)
        d[normal], k[normal] = _shortest(mag[normal])
        for i in np.flatnonzero(~normal & (mag != _u(0))).tolist():
            mantissa, _, e = repr(float(mag[i:i + 1].view(np.float64)[0])).partition("e")
            digits = mantissa.replace(".", "")
            d[i] = int(digits) * 10 ** (17 - len(digits))
            k[i] = int(e) - 16
    # 18 digits, the leading one nonzero (unless d = 0), in three words
    big = d >= _u(10 ** 16)
    d *= np.where(big, _u(10), _u(100))
    decpt = k + 16 + big  # d 10^k = 0.digits 10^decpt
    w = np.empty((3, m), dtype=np.uint64)
    w[0] = d // _u(10 ** 10)
    d -= w[0] * _u(10 ** 10)
    w[1] = d // _u(100)
    d -= w[1] * _u(100)
    w[:2] = _digit_bytes(w[:2])
    w[2] = (d * _u(103)) >> _u(10)  # d // 10 below 179
    w[2] |= (d - w[2] * _u(10)) << _u(8)
    # nd digits up to the last nonzero one, from the float32 exponent of each
    # word's top set bit (a byte holds at most 9, so rounding stays in it)
    top = w.astype(np.float32).view(np.int32) >> 23
    top += np.array([[-119], [64 - 119], [128 - 119]], dtype=np.int32)
    nd = top.max(axis=0) >> 3  # 1 for d = 0, which prints as 0.0
    decpt[w[0] == _u(0)] = 1
    # repr's layout: exponent form unless -4 < decpt <= 16
    expo = (decpt <= -4) | (decpt > 16)
    lead = ~expo & (decpt > 0)
    z = np.where(expo | lead, 0, 1 - decpt)
    # digits [0, split) go from byte 1, digits [split, used) after a gap for
    # the point, or after "0." and z - 1 zeros (split = 0)
    used = np.where(lead, np.maximum(nd, decpt), nd)
    w |= _ASCII_PREFIX.take(used, axis=1)
    pointed = (expo | lead).any()
    if pointed:
        split = np.where(lead, decpt, expo.astype(np.int64))
        low = w & _PREFIX_MASK.take(split, axis=1)
        w ^= low
    sh = ((z + 2) << 3).astype(np.uint64)
    row = w << sh
    row[1:] |= (w[:2] >> (_u(56) - sh)) >> _u(8)
    row[0] |= _LEAD.take(z) | ((bits >> _u(63)) * _u(ord("-")))
    if pointed:
        row[0] |= low[0] << _u(8)
        row[1:] |= (low[1:] << _u(8)) | (low[:2] >> _u(56))
        # "." or ".0" in the gap, or the exponent after the digits (and the
        # point at byte 2 if the mantissa has several digits)
        tail = _tails().take(np.where(expo, decpt + 326, np.where(lead, 1 + (nd <= decpt), 0)))
        at = np.where(expo, used + 1 + (nd > 1), split + 1)
        sh = ((at & 7) << 3).astype(np.uint64)
        word = at >> 3
        lo = tail << sh
        hi = (tail >> (_u(56) - sh)) >> _u(8)
        row[0] |= np.where(word == 0, lo, _u(0)) | ((expo & (nd > 1)) * _u(ord(".") << 16))
        row[1] |= np.where(word == 1, lo, np.where(word == 0, hi, _u(0)))
        row[2] |= np.where(word == 2, lo, np.where(word == 1, hi, _u(0)))
    out = np.empty((m, 4), dtype="<u8")
    out[:, :3] = row.T
    out[:, 3] = _SEP_WORD
    return out


def _repr_block(bits: np.ndarray, m: int) -> str:
    """The reprs of the finite doubles of raw bits, then those of the
    first m - len(bits) of them again in reverse order, joined by _SEP,
    for 1 <= len(bits) <= m <= 2 len(bits), with no Python object per
    value.

    Each pass formats up to _REPR_CHUNK values as fixed rows of four words
    (_repr_rows), whose NUL padding one bytes.translate drops; the rows
    that come back mirrored are emitted again from the same pass in
    reverse order.  Digits come from _shortest on uint64 arrays,
    except for subnormals, which take repr's digits one at a time.  The
    kernel never mixes uint64 with signed arrays: numpy >= 1.24 (which
    pyproject allows) promotes uint64 with int64 to float64 and would drop
    bits silently, so every constant is an np.uint64 and every signed
    array is cast explicitly first."""
    head = len(bits)
    forward, mirrored = [], []
    for a in range(0, head, _REPR_CHUNK):
        rows = _repr_rows(bits[a:a + _REPR_CHUNK])
        forward.append(rows.tobytes().translate(None, b"\0").decode("ascii"))
        r = min(a + _REPR_CHUNK, m - head) - a  # rows that come back mirrored
        if r > 0:
            mirrored.append(rows[r - 1::-1].tobytes().translate(None, b"\0").decode("ascii"))
    pieces = forward + mirrored[::-1]
    pieces[-1] = pieces[-1][:-len(_SEP)]  # no separator after the last value
    return "".join(pieces)


def _values_block(values: np.ndarray) -> str:
    """'",\n    "'.join(map(repr, values)) for finite float64 values,
    formatting only the first half of a bitwise palindrome (-0.0 and 0.0
    differ) and mirroring it.  Every Gaussian witness is one, since f(-k)
    and f(k) come from the same float operations.  The kernel formats from
    _REPR_BLOCK_MIN values on, map(repr) below."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits = values.view(np.uint64)
    m = len(bits)
    head = (m + 1) // 2 if np.array_equal(bits, bits[::-1]) else m
    if m < _REPR_BLOCK_MIN:
        return _SEP.join(_mirror(list(map(repr, values[:head].tolist())), m))
    return _repr_block(bits[:head], m)


def _certificate_fields(cert: Certificate, values: list) -> dict:
    return {
        "kind": cert.kind,
        "n": cert.n,
        "q": cert.q,
        "offset": cert.f.offset,
        "values": values,
        "lhs": cert.lhs,
        "rhs": cert.rhs,
        "margin": cert.margin,
        "err": cert.err,
        "implied_t_bound": cert.implied_t_bound,
        "valid": cert.valid,
    }


def certificate_to_dict(cert: Certificate) -> dict:
    block = _values_block(cert.f.values)
    return _certificate_fields(cert, block.split(_SEP) if block else [])


def certificate_json(cert: Certificate) -> str:
    """Exactly json.dumps(certificate_to_dict(cert), indent=2).

    With indent, json.dumps runs CPython's pure-Python encoder, one step
    per value; here the value strings, which are float reprs and need no
    escaping, go in as one block (_values_block) between the encoded other
    fields."""
    if not len(cert.f.values):
        return json.dumps(_certificate_fields(cert, []), indent=2)
    head, tail = json.dumps(_certificate_fields(cert, [0]), indent=2).split("\n    0\n")
    return f'{head}\n    "{_values_block(cert.f.values)}"\n{tail}'


def _exact_float(i: int, s) -> float:
    """The float64 number that the string s (value i) names: the number
    whose shortest repr s is, or s's exact decimal value if that is a
    float64 number.  Anything else would be rounded, and the certificate
    revalidated against another function, so it raises, as it does for a
    value that is not a string.  Decimal compares exactly without expanding
    a huge exponent such as 1e-999999999."""
    if type(s) is not str:
        raise ValueError(f"certificate value {i} ({s!r}) is not a string")
    x = float(s)
    if not (math.isfinite(x) and (repr(x) == s or Decimal(s) == Decimal(x))):
        raise ValueError(f"certificate value {i} ({s!r}) is not a finite float64 number")
    return x


def _exact_floats(strs: list) -> list[float]:
    """[_exact_float(i, s) for i, s in enumerate(strs)], with the common
    case, every s the shortest repr of a finite float, checked by comparing
    the written block of the parsed values with the joined strings (no s
    that parses as a float contains the separator's quote, so the blocks
    agree only value by value); any other list takes the per-value path,
    which accepts the same values and reports the first bad one."""
    try:
        xs = list(map(float, strs))
        arr = np.array(xs, dtype=np.float64)
        if np.isfinite(arr).all() and _values_block(arr) == _SEP.join(strs):
            return xs
    except (TypeError, ValueError, OverflowError):
        pass
    return [_exact_float(i, s) for i, s in enumerate(strs)]


def certificate_from_dict(d: dict) -> Certificate:
    for name in ("kind", "n", "q", "offset", "values", "lhs", "rhs", "margin", "err",
                 "implied_t_bound", "valid"):
        if name not in d:
            raise ValueError(f"certificate field {name!r} is missing")
    strs = d["values"]
    if not isinstance(strs, list):
        raise ValueError(f"certificate values must be a list, got {type(strs).__name__}")
    m = len(strs)
    # a palindrome reads its first half only; a bad value there is also
    # the first bad value of the whole list.  strs[:(m - 1) // 2:-1] is the
    # second half reversed, so no reversed copy of the whole list is made.
    symmetric = strs[:m // 2] == strs[:(m - 1) // 2:-1]
    head = _exact_floats(strs[:(m + 1) // 2] if symmetric else strs)
    vals = _mirror(head, m)
    f = DiscreteFunction(d["offset"], vals)
    n = d["n"]
    if type(n) is not int:
        raise ValueError(f"certificate field 'n' must be an integer, got {n!r}")
    number = {name: _finite_number(name, d[name])
              for name in ("q", "lhs", "rhs", "margin", "err")}
    cert = Certificate(kind=d["kind"], n=n, f=f, **number)
    # the verdict follows from the numbers: a stored one must be that value,
    # of that JSON type (true/false, a float)
    for name in ("implied_t_bound", "valid"):
        stored, derived = d[name], getattr(cert, name)
        if type(stored) is not type(derived) or stored != derived:
            raise ValueError(f"certificate field {name!r} is {stored!r}, "
                             f"but the stored numbers give {derived!r}")
    return cert


def _finite_number(name: str, v) -> float:
    """A certificate's number field v as a float: a finite int or float, not
    a bool, nor a string such as "1e999" or "nan" that float() would read."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            x = float(v)
        except OverflowError:  # an int beyond float64 range
            x = math.inf
        if math.isfinite(x):
            return x
    raise ValueError(f"certificate field {name!r} must be a finite number, got {v!r}")


def revalidate_certificate(cert: Certificate) -> Certificate:
    """Re-run the norm evaluation on the stored function values."""
    return evaluate_certificate(cert.kind, cert.n, cert.q, cert.f)
