"""Lower-bound witnesses for the additive-energy exponent.

A witness is a pair (f, q) with f supported on an interval of length n and
||f^||_4 > ||f||_q proved beyond the rounding bound; by the duality
t_n = 4/q_n it certifies the strict bound t_n > 4/q.  Two constructions are
built here: the eps-perturbed interval indicator f = 1_I + eps*delta_0 at
q = 4/log_n((2n^3+n)/3), and the sampled truncated Gaussian on the schedule
A = k^(2-eps/10), M = floor(k^(1-eps/100)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from mpmath import mp

from .continuum import (ASYMPTOTIC_LOG_BASE, GaussianSpec, gaussian_l4hat, gaussian_lq,
                        truncated_gaussian_l4hat_pow4, truncated_gaussian_lq)
from .discrete_core import (CapExceededError, DiscreteFunction, _norm_pair,
                            energy_interval_formula, fourier_l4_pow4, lq_norm)
from . import precision
from .precision import FLOAT64_EPS, hp_unit, to_mpf, working

CERTIFICATE_KINDS = ("gaussian", "perturbation", "explicit")

# eps grid scanned when no eps is given: {2^-j : j = 1..20}
EPS_SCAN = tuple(Fraction(1, 2 ** j) for j in range(1, 21))

GAUSSIAN_SUPPORT_CAP = 1 << 22


class InvalidCertificateError(RuntimeError):
    """Certificate does not establish margin > err > 0."""


@dataclass(frozen=True)
class Certificate:
    """Witness record: lhs = ||f^||_4, rhs = ||f||_q, margin = lhs - rhs.

    valid means margin > err > 0 was established at working precision, in
    which case t_n > implied_t_bound = 4/q holds strictly.
    """

    kind: str
    n: int
    q: float
    f: DiscreteFunction
    lhs: float
    rhs: float
    margin: float
    err: float
    implied_t_bound: float
    valid: bool

    def __post_init__(self):
        if self.kind not in CERTIFICATE_KINDS:
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if len(self.f.values) > self.n:
            raise ValueError(
                f"support length {len(self.f.values)} does not fit an interval of length {self.n}")


def evaluate_certificate(kind: str, n: int, q: float, f: DiscreteFunction) -> Certificate:
    """Evaluate both norms of a candidate witness and decide validity."""
    lhs_mp, rhs_mp, rel_lhs, rel_rhs = _norm_pair(f, q)
    with working():
        margin_mp = lhs_mp - rhs_mp
        lhs_f, rhs_f = float(lhs_mp), float(rhs_mp)
        # plus the float64 storage rounding of the fields themselves
        err = float(rel_lhs * lhs_mp + rel_rhs * rhs_mp) \
            + 4.0 * FLOAT64_EPS * (abs(lhs_f) + abs(rhs_f))
        valid = bool(margin_mp > err > 0.0)
        margin_f = float(margin_mp)
    return Certificate(kind=kind, n=n, q=float(q), f=f, lhs=lhs_f, rhs=rhs_f,
                       margin=margin_f, err=err, implied_t_bound=4.0 / float(q),
                       valid=valid)


# ---------------------------------------------------------------------------
# Perturbed interval indicator
# ---------------------------------------------------------------------------

def _centered_interval(n: int) -> tuple[int, int]:
    # I = {-floor((n-1)/2), ..., floor(n/2)}, an interval of length n around 0
    return -((n - 1) // 2), n // 2


def interval_overlap_sum(n: int) -> int:
    """sum_{a in I} (1_I * 1_I)(a), computed by convolution; equals ceil(3n^2/4)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lo, hi = _centered_interval(n)
    conv = np.convolve(np.ones(n, dtype=np.int64), np.ones(n, dtype=np.int64))
    total = int(conv[(lo - 2 * lo):(hi - 2 * lo) + 1].sum())
    expected = -((-3 * n * n) // 4)
    if total != expected:
        raise ArithmeticError(f"overlap sum {total} != ceil(3n^2/4) = {expected} at n={n}")
    return total


def build_perturbation_certificate(n: int, eps=None) -> Certificate:
    """Witness f = 1_I + eps*delta_0 at q = 4/log_n((2n^3+n)/3).

    With eps omitted, scans eps over {2^-j : j=1..20} and keeps the
    maximum-margin valid certificate (ties broken toward smaller eps).
    eps = 0 is the equality boundary: margin is exactly 0 and the
    certificate is not valid.
    """
    if n < 3:
        raise ValueError("perturbation certificate needs n >= 3 "
                         "(the gap 3n^2 - (4/3)(2n^2+1) closes below that)")
    if eps is not None:
        e = Fraction(eps)
        if not 0 <= e <= 1:
            raise ValueError(f"eps must lie in [0, 1], got {eps}")
        return _perturbation_certificate(n, e)
    best = None
    best_key = None
    for e in EPS_SCAN:
        cert = _perturbation_certificate(n, e)
        key = (cert.valid, cert.margin, -e)
        if best_key is None or key > best_key:
            best, best_key = cert, key
    return best


def _perturbation_certificate(n: int, eps: Fraction) -> Certificate:
    lo, _ = _centered_interval(n)
    values = [Fraction(1)] * n
    values[-lo] += eps
    f = DiscreteFunction(lo, tuple(values))

    energy = energy_interval_formula(n)
    with working():
        log_e = mp.log(energy)
        log_n = mp.log(n)
        q_mp = 4 * log_n / log_e
        implied = float(log_e / log_n)
        q = float(q_mp)
        if eps == 0:
            # ||1_I||_q^4 = n^{4/q} = E(I) exactly at this q; equality witness
            lhs = float(mp.mpf(energy) ** mp.mpf("0.25"))
            return Certificate(kind="perturbation", n=n, q=q, f=f, lhs=lhs, rhs=lhs,
                               margin=0.0, err=0.0, implied_t_bound=implied, valid=False)
        lhs_mp = to_mpf(fourier_l4_pow4(f)) ** mp.mpf("0.25")
        sum_q = (n - 1) + (1 + to_mpf(eps)) ** q_mp
        rhs_mp = sum_q ** (1 / q_mp)
        margin_mp = lhs_mp - rhs_mp
        u = hp_unit()
        # lhs: Fraction conversion + fourth root; rhs: the scalar chain
        # log/div/power/root amplifies to ~30u, doubled for safety
        err = float(6.0 * u * lhs_mp + 60.0 * u * rhs_mp) \
            + 4.0 * FLOAT64_EPS * float(lhs_mp + rhs_mp)
        valid = bool(margin_mp > err > 0.0)
        lhs_f, rhs_f, margin_f = float(lhs_mp), float(rhs_mp), float(margin_mp)
    return Certificate(kind="perturbation", n=n, q=q, f=f, lhs=lhs_f, rhs=rhs_f,
                       margin=margin_f, err=err, implied_t_bound=implied, valid=valid)


# ---------------------------------------------------------------------------
# Sampled truncated Gaussian
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianScheduleParams:
    """Schedule eps -> (k, A, M, q) for the Gaussian witness at window length n."""

    eps: float
    n: int
    k: int
    a_param: float
    m_trunc: int
    q: float

    def __post_init__(self):
        if not 0 < self.eps <= 1:
            raise ValueError(f"eps must lie in (0, 1], got {self.eps}")
        if self.k < 1:
            raise ValueError("k must be >= 1 (n >= 3)")
        if self.m_trunc > self.k:
            raise ValueError("truncation M must not exceed k")
        if not self.q > 4.0 / 3.0:
            raise ValueError(f"schedule q must exceed 4/3, got {self.q}")

    @classmethod
    def from_n_eps(cls, n: int, eps: float) -> "GaussianScheduleParams":
        if n < 3:
            raise ValueError("n must be >= 3")
        k = (n - 1) // 2  # schedule assumes n = 2k+1 odd; even n floors k
        a_param = float(k) ** (2.0 - eps / 10.0)
        m_trunc = min(int(math.floor(float(k) ** (1.0 - eps / 100.0))), k)
        q = 4.0 / (3.0 - (1.0 + eps) * math.log(ASYMPTOTIC_LOG_BASE) / math.log(n))
        return cls(eps=float(eps), n=n, k=k, a_param=a_param, m_trunc=m_trunc, q=q)


def _sampled_gaussian(params: GaussianScheduleParams) -> DiscreteFunction:
    m = params.m_trunc
    if 2 * m + 1 <= precision.HP_SUPPORT_CAP:
        with working():
            a = to_mpf(params.a_param)
            vals = tuple(mp.exp(-mp.mpf(i * i) / a) for i in range(-m, m + 1))
    else:
        grid = np.arange(-m, m + 1, dtype=np.float64)
        vals = tuple(np.exp(-(grid * grid) / params.a_param))
    return DiscreteFunction(-m, vals)


def build_gaussian_certificate(params: GaussianScheduleParams,
                               support_cap: int = GAUSSIAN_SUPPORT_CAP) -> Certificate:
    """Witness f(m) = exp(-m^2/A) on |m| <= M at the schedule's q.

    Validity is not guaranteed at small n; the certificate records margin and
    err either way.
    """
    if params.m_trunc > support_cap:
        raise CapExceededError(f"truncation {params.m_trunc} exceeds support cap {support_cap}")
    f = _sampled_gaussian(params)
    return evaluate_certificate("gaussian", params.n, params.q, f)


def smallest_valid_gaussian_n(eps: float, n_max: int = 301) -> int | None:
    """Scan odd n upward for the first validating Gaussian certificate."""
    for n in range(3, n_max + 1, 2):
        cert = build_gaussian_certificate(GaussianScheduleParams.from_n_eps(n, eps))
        if cert.valid:
            return n
    return None


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
    lhs_mp, rhs_mp, _, _ = _norm_pair(f, q)
    f_l4, f_lq = float(lhs_mp), float(rhs_mp)
    # same function under the half-open truncation [-M, M): drop the +M sample
    f_half = DiscreteFunction(f.offset, f.values[:-1])
    parity_gap = abs(f_lq - lq_norm(f_half, q))

    # per-cell relative variation of g over [m, m+1) for m in [-M, M-1]
    grid = np.arange(-m, m + 1, dtype=np.float64)
    gv = np.exp(-(grid * grid) / a)
    cell_dev = float(np.max(np.abs(np.diff(gv)) / gv[:-1]))

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
# Bounds and serialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundsContribution:
    """A certified strict lower bound t_n > t_lower."""

    n: int
    t_lower: float
    strict: bool
    source: str


def certificate_to_bound(cert: Certificate) -> BoundsContribution:
    if not cert.valid:
        raise InvalidCertificateError(
            f"certificate margin {cert.margin!r} does not exceed err {cert.err!r}")
    if cert.q <= 4.0 / 3.0:
        raise InvalidCertificateError(
            f"q = {cert.q} <= 4/3 would imply t_n > 3, impossible")
    return BoundsContribution(n=cert.n, t_lower=4.0 / cert.q, strict=True, source=cert.kind)


def _value_to_str(v) -> str:
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    with working():
        return mpmath.nstr(to_mpf(v), 40)


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "kind": cert.kind,
        "n": cert.n,
        "q": cert.q,
        "offset": cert.f.offset,
        "values": [_value_to_str(v) for v in cert.f.values],
        "lhs": cert.lhs,
        "rhs": cert.rhs,
        "margin": cert.margin,
        "err": cert.err,
        "implied_t_bound": cert.implied_t_bound,
        "valid": cert.valid,
    }


def certificate_from_dict(d: dict) -> Certificate:
    with working():
        vals = tuple(mp.mpf(s) for s in d["values"])
    f = DiscreteFunction(int(d["offset"]), vals)
    return Certificate(kind=d["kind"], n=int(d["n"]), q=float(d["q"]), f=f,
                       lhs=float(d["lhs"]), rhs=float(d["rhs"]),
                       margin=float(d["margin"]), err=float(d["err"]),
                       implied_t_bound=float(d["implied_t_bound"]),
                       valid=bool(d["valid"]))


def revalidate_certificate(cert: Certificate) -> Certificate:
    """Re-run the norm evaluation on the stored function values."""
    return evaluate_certificate(cert.kind, cert.n, cert.q, cert.f)
