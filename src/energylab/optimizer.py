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
from .discrete_core import DiscreteFunction, ratio_report

ARMIJO_C = 1e-4
BACKTRACK_SHRINK = 0.5
STEP_GROW = 1.3


@dataclass(frozen=True)
class OptimizerConfig:
    n: int
    q: float
    starts: int = 16
    max_iters: int = 5000
    tol: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.q <= 1:
            raise ValueError("q must exceed 1")
        if self.starts < 4:
            raise ValueError("starts must be >= 4 (the canonical starts)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class OptimizerResult:
    best_f: DiscreteFunction
    best_ratio: float
    err: float
    iterations: int
    start_id: int


def energy_pow4_array(x: np.ndarray) -> float:
    c = np.convolve(x, x)
    return float(np.dot(c, c))


def energy_gradient_window(x: np.ndarray) -> np.ndarray:
    """Gradient of sum x(a)x(b)x(c)x(a+b-c) on the window carrying x:
    4 * sum_b x(b) (x*x)(i+b)."""
    c = np.convolve(x, x)
    return 4.0 * np.correlate(c, x, mode="valid")


def objective(x: np.ndarray, q: float) -> float:
    """log ||x^||_4 - log ||x||_q; -inf on the zero vector."""
    e4 = energy_pow4_array(x)
    s = float(np.sum(x ** q))
    if e4 <= 0 or s <= 0:
        return -math.inf
    return 0.25 * math.log(e4) - math.log(s) / q


def _objective_gradient(x: np.ndarray, q: float) -> np.ndarray:
    return energy_gradient_window(x) / (4.0 * energy_pow4_array(x)) \
        - x ** (q - 1.0) / float(np.sum(x ** q))


def _ascend(x0: np.ndarray, q: float, max_iters: int, tol: float,
            return_history: bool = False):
    """Projected gradient ascent with backtracking; returns (x, value, iters)."""
    x = np.maximum(np.asarray(x0, dtype=np.float64), 0.0)
    if x.max() <= 0 or not np.all(np.isfinite(x)):
        return None
    x = x / x.max()
    value = objective(x, q)
    history = [value]
    eta = 0.1
    iters = 0
    for iters in range(1, max_iters + 1):
        g = _objective_gradient(x, q)
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
        value = objective(x, q)
        history.append(value)
        eta *= STEP_GROW
        if gain < tol * max(1.0, abs(value)) and iters > 8:
            break
    if return_history:
        return x, value, iters, history
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
    evaluated at working precision (ratio_report), so best_ratio carries a
    rigorous rounding bound.  Deterministic for a fixed config: chains are
    independent and ties go to the smaller start_id.
    """
    n, q = config.n, config.q
    rng = np.random.default_rng(config.seed)
    starts = _canonical_starts(n)
    while len(starts) < config.starts:
        starts.append(rng.random(n))

    best = None
    for sid, x0 in enumerate(starts):
        out = _ascend(x0, q, config.max_iters, config.tol)
        attempt = 0
        while out is None:  # degenerate start: restart that chain, per-chain stream
            attempt += 1
            restart = np.random.default_rng([config.seed, sid, attempt]).random(n) + 1e-6
            out = _ascend(restart, q, config.max_iters, config.tol)
        x, value, iters = out
        key = (value, -sid)
        if best is None or key > best[0]:
            best = (key, x, iters, sid)
    _, x, iters, sid = best
    f = DiscreteFunction(0, tuple(x / x.max()))
    report = ratio_report(f, q)
    return OptimizerResult(best_f=f, best_ratio=report.ratio, err=report.err,
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


def estimate_qn(n: int, tol: float = 1e-3, seed: int = 0, starts: int = 16,
                max_iters: int = 5000) -> QnEstimate:
    """Bisect q in [4/3, 2] on the predicate "a violation was found".

    The predicate at q asks maximize_ratio for best_ratio > 1 + 3*err; each
    firing q yields an explicit Certificate, and the witness returned is the
    one from the smallest firing q.  If the predicate never fires, q_hat = 2
    and witness is None.
    """
    if tol < 1e-4:
        raise ValueError("bisection tol must be >= 1e-4")

    def probe(q: float):
        res = maximize_ratio(OptimizerConfig(n=n, q=q, starts=starts,
                                             max_iters=max_iters, seed=seed))
        if res.best_ratio > 1.0 + 3.0 * res.err:
            return evaluate_certificate("explicit", n, q, res.best_f)
        return None

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
