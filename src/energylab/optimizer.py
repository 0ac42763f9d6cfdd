"""Ratio maximization over nonnegative f on a length-n window, and the
bisection on q that estimates the critical exponent q_n (hence t_n = 4/q_n).

The objective log||f^||_4 - log||f||_q is scale invariant and smooth away
from zero, so each chain runs projected gradient ascent with Armijo
backtracking.  Canonical starts cover the known extremizer families (delta,
full indicator, sampled Gaussian, perturbed indicator); the remaining starts
are seeded draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificates import Certificate, evaluate_certificate
from .discrete_core import DiscreteFunction

ARMIJO_C = 1e-4
ASCENT_TOL = 1e-12  # relative objective gain below which a chain stops
BACKTRACK_SHRINK = 0.5
STEP_GROW = 1.3


@dataclass(frozen=True)
class OptimizerConfig:
    n: int
    q: float
    starts: int = 16
    max_iters: int = 5000
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2 (t_n is defined from n = 2 on)")
        if self.q <= 1:
            raise ValueError("q must exceed 1")
        if self.starts < 4:
            raise ValueError("starts must be >= 4 (the canonical starts)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class OptimizerResult:
    """The winning chain: its explicit certificate (the winner f, both norms,
    margin, err and validity from one evaluation), its iteration count and
    its start index.  The certified ratio is certificate.lhs / certificate.rhs."""

    certificate: Certificate
    iterations: int
    start_id: int


def energy_pow4_array(x: np.ndarray) -> float:
    c = np.convolve(x, x)
    return float(np.dot(c, c))


def _pow4_and_gradient(x: np.ndarray) -> tuple[float, np.ndarray]:
    """sum (x*x)^2 and its gradient 4 * sum_b x(b) (x*x)(i+b) on the window
    carrying x, from one autoconvolution."""
    c = np.convolve(x, x)
    return float(np.dot(c, c)), 4.0 * np.correlate(c, x, mode="valid")


def objective(x: np.ndarray, q: float) -> float:
    """log ||x^||_4 - log ||x||_q; -inf on the zero vector."""
    e4 = energy_pow4_array(x)
    s = float(np.sum(x ** q))
    if e4 <= 0 or s <= 0:
        return -math.inf
    return 0.25 * math.log(e4) - math.log(s) / q


def _objective_and_gradient(x: np.ndarray, q: float) -> tuple[float, np.ndarray]:
    """objective(x, q) and its gradient at an x with max(x) > 0, from one
    autoconvolution and one sum x^q (the same float operations as objective)."""
    e4, grad4 = _pow4_and_gradient(x)
    s = float(np.sum(x ** q))
    value = 0.25 * math.log(e4) - math.log(s) / q
    return value, grad4 / (4.0 * e4) - x ** (q - 1.0) / s


def _ascend(x0: np.ndarray, q: float, max_iters: int, tol: float):
    """Projected gradient ascent with backtracking; returns (x, value, iters).

    Each accepted iterate is normalized to max 1 and evaluated once, value
    and gradient together; each trial point costs one objective call.
    """
    x = np.maximum(np.asarray(x0, dtype=np.float64), 0.0)
    if x.max() <= 0 or not np.all(np.isfinite(x)):
        return None
    x = x / x.max()
    value, g = _objective_and_gradient(x, q)
    eta = 0.1
    iters = 0
    for iters in range(1, max_iters + 1):
        accepted = False
        while eta > 1e-18:
            y = np.maximum(x + eta * g, 0.0)
            if y.max() > 0:
                fy = objective(y, q)
                if math.isfinite(fy) and fy >= value + ARMIJO_C * eta * float(np.dot(g, y - x)) \
                        and fy >= value:
                    accepted = True
                    break
            eta *= BACKTRACK_SHRINK
        if not accepted:
            break
        gain = fy - value
        x = y / y.max()
        value, g = _objective_and_gradient(x, q)
        eta *= STEP_GROW
        if gain < tol * max(1.0, abs(value)) and iters > 8:
            break
    return x, value, iters


def _canonical_starts(n: int) -> list[np.ndarray]:
    delta = np.zeros(n)
    delta[0] = 1.0
    ones = np.ones(n)
    # sampled Gaussian on the window, schedule at eps = 0.5
    k = max(1, (n - 1) // 2)
    a_param = float(k) ** 1.95
    m_trunc = min(int(math.floor(float(k) ** 0.995)), k)
    center = (n - 1) / 2.0
    idx = np.arange(n, dtype=np.float64)
    gauss = np.exp(-((idx - center) ** 2) / a_param)
    gauss[np.abs(idx - center) > m_trunc + 0.5] = 0.0
    if gauss.max() <= 0:
        gauss = delta.copy()
    perturbed = np.ones(n)
    perturbed[(n - 1) // 2] += 0.25
    return [delta, ones, gauss, perturbed]


def maximize_ratio(config: OptimizerConfig) -> OptimizerResult:
    """Multi-start search for sup ||f^||_4 / ||f||_q over f >= 0 on {0..n-1}.

    Chains are ranked by their float64 objective; only the winner is
    evaluated at working precision, once, by evaluate_certificate, so the
    result carries its explicit certificate with a rigorous err.
    Deterministic for a fixed config: chains are independent and ties go to
    the smaller start_id.
    """
    n, q = config.n, config.q
    rng = np.random.default_rng(config.seed)
    starts = _canonical_starts(n)
    while len(starts) < config.starts:
        starts.append(rng.random(n))

    best = None
    for sid, x0 in enumerate(starts):
        out = _ascend(x0, q, config.max_iters, ASCENT_TOL)
        attempt = 0
        while out is None:  # degenerate start: restart that chain, per-chain stream
            attempt += 1
            restart = np.random.default_rng([config.seed, sid, attempt]).random(n) + 1e-6
            out = _ascend(restart, q, config.max_iters, ASCENT_TOL)
        x, value, iters = out
        key = (value, -sid)
        if best is None or key > best[0]:
            best = (key, x, iters, sid)
    _, x, iters, sid = best
    f = DiscreteFunction(0, tuple(x / x.max()))
    return OptimizerResult(certificate=evaluate_certificate("explicit", n, q, f),
                           iterations=iters, start_id=sid)


@dataclass(frozen=True)
class QnEstimate:
    """Bisection output: q_hat estimates q_n from above (up to optimizer
    incompleteness) and t_hat = 4/q_hat estimates t_n from below whenever the
    witness validates."""

    n: int
    q_hat: float
    t_hat: float
    witness: Certificate | None
    empirical_c: float


def estimate_qn(n: int, tol: float = 1e-3, seed: int = 0, starts: int = 16) -> QnEstimate:
    """Bisect q in [4/3, 2] on the predicate "a valid witness was found".

    A probe at q runs maximize_ratio and fires exactly when the winner's
    certificate is valid (margin > err); that certificate is the probe's
    witness, so each probe evaluates one function at working precision once.
    The witness returned is the one from the smallest firing q.  If the
    predicate never fires, q_hat = 2 and witness is None.  tol must lie in
    [1e-4, 2/3), below the width of [4/3, 2].
    """
    if not 1e-4 <= tol < 2.0 / 3.0:
        raise ValueError(f"bisection tol must lie in [1e-4, 2/3), got {tol}")

    def probe(q: float) -> Certificate | None:
        cert = maximize_ratio(OptimizerConfig(n=n, q=q, starts=starts, seed=seed)).certificate
        return cert if cert.valid else None

    lo, hi = 4.0 / 3.0, 2.0
    witness = probe(hi)
    if witness is None:
        return QnEstimate(n=n, q_hat=2.0, t_hat=2.0, witness=None,
                          empirical_c=float(n) ** 1.0 - 1.0)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        cert = probe(mid)
        if cert is not None:
            hi, witness = mid, cert
        else:
            lo = mid
    q_hat = 0.5 * (lo + hi)
    t_hat = 4.0 / q_hat
    return QnEstimate(n=n, q_hat=q_hat, t_hat=t_hat, witness=witness,
                      empirical_c=float(n) ** (3.0 - t_hat) - 1.0)
