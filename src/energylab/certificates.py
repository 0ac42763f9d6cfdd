"""Lower-bound witnesses for the additive-energy exponent.

A witness is a pair (f, q) with f supported on an interval of length n and
||f^||_4 > ||f||_q proved beyond the rounding bound; by the duality
t_n = 4/q_n it certifies the strict bound t_n > 4/q.  Two constructions are
built here: the eps-perturbed interval indicator f = 1_I + eps*delta_0 at
q = 4/log_n((2n^3+n)/3), and the sampled truncated Gaussian on the schedule
A = k^(2-eps/10), M = floor(k^(1-eps/100)).
"""

from __future__ import annotations

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

# eps grid scanned when no eps is given: {2^-j : j = 1..20}
EPS_SCAN = tuple(Fraction(1, 2 ** j) for j in range(1, 21))

GAUSSIAN_SUPPORT_CAP = 1 << 22


@dataclass(frozen=True)
class Certificate:
    """Witness record: lhs = ||f^||_4, rhs = ||f||_q, margin = lhs - rhs.

    valid means margin > err > 0 was established in float64 on the common
    prescale of both norms (see evaluate_certificate), in which case
    t_n > implied_t_bound = 4/q holds strictly; the stored margin and err
    then satisfy margin > err > 0 too, with err a normal float.
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
    """Evaluate both norms of a candidate witness and decide validity.

    _norm_pair gives ||f^||_4 ~ a 2^e and ||f||_q ~ b 2^e with relative
    bounds rel_a, rel_b on the true scaled values A, B.  Since
    |a - A| <= rel_a A <= rel_a a / (1 - rel_a), likewise for b, and the
    float64 gap = a - b is within u |gap| of a - b,

        |gap - (A - B)| <= rel_a a/(1 - rel_a) + rel_b b/(1 - rel_b) + u |gap|,

    times 1 + 2^-40 for the second-order terms and the float64 evaluation
    of err.  gap > err > 0 proves A > B.  lhs, rhs, margin and err are
    a, b, gap and err times 2^e: exact in the normal float64 range, so they
    need no storage term, and rounded once if they leave it.  valid also
    asks that the stored err be normal and below the stored margin, so a
    reader who checks margin > err > 0 on the stored fields agrees with it;
    an err rounded below the normal range makes the certificate not valid.
    """
    a, b, e, rel_a, rel_b = _norm_pair(f, q)
    u = FLOAT64_EPS / 2.0
    gap = a - b
    err = (rel_a * a / (1.0 - rel_a) + rel_b * b / (1.0 - rel_b) + u * abs(gap)) \
        * (1.0 + 2.0 ** -40)
    lhs, rhs, margin, err_f = np.ldexp([a, b, gap, err], e).tolist()
    valid = gap > err > 0.0 and margin > err_f >= sys.float_info.min
    return Certificate(kind=kind, n=n, q=float(q), f=f, lhs=lhs, rhs=rhs,
                       margin=margin, err=err_f, implied_t_bound=4.0 / float(q),
                       valid=bool(valid))


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

    q = 4 ln n / ln E(I) is evaluated in float64, and both norms, the margin
    and err come from evaluate_certificate at that q, as for every other
    witness, so revalidating the certificate reproduces it.  With eps
    omitted, scans eps over {2^-j : j=1..20} and keeps the maximum-margin
    valid certificate (ties broken toward smaller eps).  eps = 0 is the
    equality boundary ||1_I^||_4 = E(I)^(1/4) = ||1_I||_q: the margin is a
    rounding error within err, and the certificate is not valid.  The values are
    float64: 1 + eps is exact for the scanned eps, and any other eps (such
    as 0.1) is stored, and certified, as the rounded fl(1 + eps).
    """
    if n < 3:
        raise ValueError("perturbation certificate needs n >= 3 "
                         "(the gap 3n^2 - (4/3)(2n^2+1) closes below that)")
    if eps is not None:
        if not (math.isfinite(eps) and 0 <= eps <= 1):
            raise ValueError(f"eps must lie in [0, 1], got {eps}")
        return _perturbation_certificate(n, Fraction(eps))
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
    values = [1.0] * n
    values[-lo] = 1.0 + float(eps)  # exact for every eps in EPS_SCAN
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
    k: int
    a_param: float
    m_trunc: int
    q: float

    def __post_init__(self):
        _check_eps(self.eps)
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
        _check_eps(eps)  # before the schedule: NaN must not reach math.floor
        k = (n - 1) // 2  # schedule assumes n = 2k+1 odd; even n floors k
        a_param = float(k) ** (2.0 - eps / 10.0)
        m_trunc = min(int(math.floor(float(k) ** (1.0 - eps / 100.0))), k)
        q = 4.0 / (3.0 - (1.0 + eps) * math.log(ASYMPTOTIC_LOG_BASE) / math.log(n))
        return cls(eps=float(eps), n=n, k=k, a_param=a_param, m_trunc=m_trunc, q=q)


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
    if params.m_trunc > GAUSSIAN_SUPPORT_CAP:
        raise CapExceededError(
            f"truncation {params.m_trunc} exceeds support cap {GAUSSIAN_SUPPORT_CAP}")
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
# Serialization
# ---------------------------------------------------------------------------

def _mirror(head: list, m: int) -> list:
    """The palindrome of length m whose first ceil(m/2) entries are head."""
    return head + head[:m // 2][::-1]


def _value_reprs(values: np.ndarray) -> list[str]:
    """[repr(v) for v in values], reading only the first half of a bitwise
    palindrome (-0.0 and 0.0 differ).  Every Gaussian witness is one, since
    f(-k) and f(k) come from the same float operations."""
    m = len(values)
    if values.tobytes() != values[::-1].tobytes():
        return list(map(repr, values.tolist()))
    return _mirror(list(map(repr, values[:(m + 1) // 2].tolist())), m)


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "kind": cert.kind,
        "n": cert.n,
        "q": cert.q,
        "offset": cert.f.offset,
        "values": _value_reprs(cert.f.values),
        "lhs": cert.lhs,
        "rhs": cert.rhs,
        "margin": cert.margin,
        "err": cert.err,
        "implied_t_bound": cert.implied_t_bound,
        "valid": cert.valid,
    }


def certificate_json(cert: Certificate) -> str:
    """Exactly json.dumps(certificate_to_dict(cert), indent=2).

    With indent, json.dumps runs CPython's pure-Python encoder, one step
    per value; here the value strings, which are float reprs and need no
    escaping, go in as one joined block between the encoded other fields.
    """
    d = certificate_to_dict(cert)
    values = d["values"]
    if not values:
        return json.dumps(d, indent=2)
    head, tail = json.dumps({**d, "values": [0]}, indent=2).split("\n    0\n")
    block = '",\n    "'.join(values)
    return f'{head}\n    "{block}"\n{tail}'


def _exact_float(i: int, s) -> float:
    """The float64 number that s (value i) names: the number whose shortest
    repr s is, or s's exact decimal value if that is a float64 number.
    Anything else would be rounded, and the certificate revalidated against
    another function, so it raises.  Decimal compares exactly without
    expanding a huge exponent such as 1e-999999999."""
    x = float(s)
    if not (math.isfinite(x) and (repr(x) == s or Decimal(s) == Decimal(x))):
        raise ValueError(f"certificate value {i} ({s!r}) is not a finite float64 number")
    return x


def _exact_floats(strs: list) -> list[float]:
    """[_exact_float(i, s) for i, s in enumerate(strs)], with the common
    case, every s the shortest repr of a finite float, checked in C; any
    other list takes the per-value path, which accepts the same values and
    reports the first bad one."""
    try:
        xs = list(map(float, strs))
    except (TypeError, ValueError, OverflowError):
        xs = None
    if xs is not None and list(map(repr, xs)) == strs and all(map(math.isfinite, xs)):
        return xs
    return [_exact_float(i, s) for i, s in enumerate(strs)]


def certificate_from_dict(d: dict) -> Certificate:
    strs = d["values"]
    m = len(strs)
    # a palindrome reads its first half only; a bad value there is also
    # the first bad value of the whole list
    symmetric = strs == strs[::-1]
    head = _exact_floats(strs[:(m + 1) // 2] if symmetric else strs)
    vals = _mirror(head, m) if symmetric else head
    f = DiscreteFunction(int(d["offset"]), vals)
    return Certificate(kind=d["kind"], n=int(d["n"]), q=float(d["q"]), f=f,
                       lhs=float(d["lhs"]), rhs=float(d["rhs"]),
                       margin=float(d["margin"]), err=float(d["err"]),
                       implied_t_bound=float(d["implied_t_bound"]),
                       valid=bool(d["valid"]))


def revalidate_certificate(cert: Certificate) -> Certificate:
    """Re-run the norm evaluation on the stored function values."""
    return evaluate_certificate(cert.kind, cert.n, cert.q, cert.f)
