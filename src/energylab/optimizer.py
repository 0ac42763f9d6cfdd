"""Ratio maximization over nonnegative f on a length-n window, and the
bisection on q that estimates the critical exponent q_n (hence t_n = 4/q_n).

The objective log||f^||_4 - log||f||_q is scale invariant and smooth away
from zero, so each chain runs projected gradient ascent with Armijo
backtracking; all chains run in lockstep as the rows of one (starts x n)
array.  Canonical starts cover the known extremizer families (delta, full
indicator, sampled Gaussian, perturbed indicator); the remaining starts are
seeded draws.  The bisection on q warm-starts each probe after the first
from the previous probe's final rows and step sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .certificates import SUPPORT_CAP, Certificate, GaussianScheduleParams, evaluate_certificate
from .discrete_core import CapExceededError, DiscreteFunction

ARMIJO_C = 1e-4
ASCENT_TOL = 1e-12  # relative objective gain below which a chain stops
MAX_ITERS = 5000  # iteration count at which a chain stops at the latest
BACKTRACK_SHRINK = 0.5
STEP_GROW = 1.3
STEP_INIT = 0.1  # a chain's first trial step, and the floor of a carried step
AGREE_TOL = 1e-9  # starts whose final value is this close to the best agree with it


@dataclass(frozen=True)
class OptimizerConfig:
    n: int
    q: float
    starts: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2 (t_n is defined from n = 2 on)")
        if not 1 < self.q <= 512:  # the range lq_norm_with_error takes, less q = 1
            raise ValueError(f"q must lie in (1, 512], got {self.q}")
        if self.starts < 4:
            raise ValueError("starts must be >= 4 (the canonical starts)")
        if self.starts * self.n > SUPPORT_CAP:  # the batch holds starts x n floats
            raise CapExceededError(f"starts x n = {self.starts * self.n} exceeds support cap "
                                   f"{SUPPORT_CAP}")


@dataclass(frozen=True)
class OptimizerResult:
    """The winning chain: its explicit certificate (the winner f, both norms,
    margin, err and validity from one evaluation), its iteration count and
    its start index, and how many starts ended as high as it.  The certified
    ratio is certificate.lhs / certificate.rhs.  rounds counts the lockstep
    rounds of the ascent.  rows holds every chain's final iterate, one row
    per start, each scaled to maximum 1, and steps its final step size; both
    are read-only."""

    certificate: Certificate
    iterations: int
    start_id: int
    agreeing: int  # starts whose float64 value lies within AGREE_TOL of the winner's
    rounds: int
    rows: np.ndarray = field(compare=False, repr=False)
    steps: np.ndarray = field(compare=False, repr=False)


def _pow4_corr_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum (x*x)^2 of each row x of X and the correlation sum_b x(b) (x*x)(i+b),
    a quarter of its gradient, from one rfft and one irfft along the rows.

    With F = rfft(x, N) at N, the least power of two >= 2n-1, the cyclic
    autoconvolution of length N is x*x itself, so F^2 = DFT_N(x*x) and
    Parseval gives, with p_k = |F_k|^2,

        sum (x*x)^2 = (1/N) sum_k |F_k|^4 = (1/N) sum_k w_k p_k^2,

    the sum running over the bins k <= N/2 that rfft holds: w_k = 2 on the
    interior bins, which stand for F_(N-k) = conj(F_k) too, and 1 on bin 0
    and bin N/2 (at N = 1 the one bin is both, and takes weight 1).  The
    correlation is irfft(F^2 conj F)[:n] = irfft(F p)[:n], which does not
    wrap around at N either.  p_k = fl(fl(re^2) + fl(im^2)) is taken from
    the float64 view of F, and F p is formed there in place, re and im each
    times the real p_k; so every product is a real one, rounded once,
    whatever the shape of X, and a row's results do not depend on the rows
    beside it.  The correlation is a view into the irfft output, which the
    caller owns.
    """
    k, n = X.shape
    N = 1 << (2 * n - 2).bit_length()
    F = np.fft.rfft(X, N, axis=1)
    parts = F.view(np.float64)  # re, im of each bin side by side
    re, im = parts[:, 0::2], parts[:, 1::2]
    p = np.square(re)
    p += np.square(im)
    re *= p
    im *= p
    corr = np.fft.irfft(F, N, axis=1)[:, :n]
    np.square(p, out=p)
    p[:, 1:-1] *= 2.0
    return p.sum(axis=1) / N, corr


def _objective_rows(X: np.ndarray, q: float) -> tuple[np.ndarray, np.ndarray]:
    """log ||x^||_4 - log ||x||_q of each row x of X and its gradient, for
    rows x >= 0 with max(x) = 1; sum x^q shares x^(q-1) with the gradient.
    The gradient corr / e4 - x^(q-1) / s is formed in place; it equals
    grad4 / (4 e4) - ..., as both factors of 4 are exact."""
    e4, corr = _pow4_corr_rows(X)
    xq1 = X ** (q - 1.0)
    s = (xq1 * X).sum(axis=1)
    values = 0.25 * np.log(e4) - np.log(s) / q
    corr /= e4[:, None]
    xq1 /= s[:, None]
    return values, np.subtract(corr, xq1, out=xq1)


def _ascend_rows(X0: np.ndarray, q: float, max_iters: int, tol: float,
                 steps: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Projected gradient ascent with Armijo backtracking on every row of X0
    (rows >= 0, each with a positive maximum) at once, each chain's first
    trial step taken from steps (STEP_INIT each if None); returns (X, values,
    iters, steps, rounds): one row or entry per chain for the final rows,
    their values, iteration counts and final step sizes, and the lockstep
    round count.

    The chains run in lockstep rounds.  In a round every running chain takes
    one trial step y = max(x + eta g, 0) with its own eta; one row-wise
    evaluation at y / max(y) serves all of them (the objective is scale
    invariant), so an accepted trial's value and gradient are the next
    iterate's.  An accepted chain grows eta and moves on to its next
    iteration, a rejected one halves eta and retries; a chain stops when
    eta is no longer above 1e-18 (a NaN eta included), when its gain drops
    below tol (after 8 iterations) or at max_iters.  Chains never read each
    other's rows.

    The running chains' state is kept packed, one row per running chain in
    x, g, v, step and it; a chain's final state goes back to its own row of
    X, values, eta and iters in the round it stops.  A round builds the
    trial and then the Armijo slope sum g (y - x) in one scratch array y,
    and updates the packed state in place; one error-state scope covers
    every round, since a trial whose top is 0 or not finite gives a NaN row
    (0/0, inf/inf) and a huge step overflows the Armijo bound, and both are
    rejected: a NaN value fails every comparison.
    """
    X = X0 / X0.max(axis=1, keepdims=True)
    values, g = _objective_rows(X, q)
    eta = np.full(len(X), STEP_INIT) if steps is None else np.array(steps, dtype=np.float64)
    iters = np.ones(len(X), dtype=np.int64)
    run = np.arange(len(X))
    x, v, step, it = X.copy(), values.copy(), eta.copy(), iters.copy()
    factor = np.array([BACKTRACK_SHRINK, STEP_GROW])  # indexed by acceptance
    rounds = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while run.size:
            rounds += 1
            y = step[:, None] * g
            y += x
            np.maximum(y, 0.0, out=y)
            z = y / y.max(axis=1, keepdims=True)
            fz, gz = _objective_rows(z, q)
            y -= x
            y *= g
            ok = fz >= np.maximum(v, v + ARMIJO_C * step * y.sum(axis=1))
            done = ok & (((fz - v < tol * np.maximum(1.0, np.abs(fz))) & (it > 8))
                         | (it == max_iters))
            okc = ok[:, None]
            np.copyto(x, z, where=okc)
            np.copyto(g, gz, where=okc)
            np.copyto(v, fz, where=ok)
            step *= factor[ok.astype(np.intp)]
            it += ok
            it -= done
            stop = done | ~(ok | (step > 1e-18))
            if stop.any():
                rows = run[stop]
                X[rows], values[rows], eta[rows], iters[rows] = (x[stop], v[stop], step[stop],
                                                                 it[stop])
                keep = ~stop
                run, x, g, v, step, it = run[keep], x[keep], g[keep], v[keep], step[keep], it[keep]
    return X, values, iters, eta, rounds


def _canonical_starts(n: int) -> list[np.ndarray]:
    delta = np.zeros(n)
    delta[0] = 1.0
    ones = np.ones(n)
    # sampled Gaussian on the window, schedule at eps = 0.5
    params = GaussianScheduleParams.from_n_eps(max(n, 3), 0.5)
    center = (n - 1) / 2.0
    idx = np.arange(n, dtype=np.float64)
    gauss = np.exp(-((idx - center) ** 2) / params.a_param)
    gauss[np.abs(idx - center) > params.m_trunc + 0.5] = 0.0
    perturbed = np.ones(n)
    perturbed[(n - 1) // 2] += 0.25
    return [delta, ones, gauss, perturbed]


def _initial_rows(config: OptimizerConfig) -> np.ndarray:
    """The (starts x n) array of chain starts: the canonical starts, then
    seeded draws in [0, 1).  Each row is finite and nonnegative with a
    positive maximum: a canonical one by construction, a drawn one unless
    all n draws are 0, which has probability 2^(-53 n)."""
    rng = np.random.default_rng(config.seed)
    return np.vstack([*_canonical_starts(config.n), rng.random((config.starts - 4, config.n))])


def maximize_ratio(config: OptimizerConfig,
                   previous: OptimizerResult | None = None) -> OptimizerResult:
    """Multi-start search for sup ||f^||_4 / ||f||_q over f >= 0 on {0..n-1}.

    The chains start from _initial_rows(config) at STEP_INIT each or, given a
    previous result whose rows have shape (starts, n), from its final rows,
    each chain at its final step floored at STEP_INIT (a step that collapsed
    ended its chain, so it starts afresh).  Chains are ranked by their
    float64 objective; only the winner is evaluated with rounding bounds,
    once, by evaluate_certificate, so the result carries its explicit
    certificate with a rigorous err.  Deterministic for a fixed config and
    previous: chains never read each other's rows and ties go to the
    smaller start_id.
    """
    n, q = config.n, config.q
    if previous is None:
        rows, steps = _initial_rows(config), None
    elif previous.rows.shape != (config.starts, n):
        raise ValueError(f"previous rows must have shape {(config.starts, n)}, "
                         f"got {previous.rows.shape}")
    else:
        rows, steps = previous.rows, np.maximum(previous.steps, STEP_INIT)
    X, values, iters, steps, rounds = _ascend_rows(rows, q, MAX_ITERS, ASCENT_TOL, steps)
    X.flags.writeable = False
    steps.flags.writeable = False
    sid = int(np.argmax(values))  # the first maximum: ties go to the smaller start_id
    f = DiscreteFunction(0, X[sid])
    return OptimizerResult(certificate=evaluate_certificate("explicit", n, q, f),
                           iterations=int(iters[sid]), start_id=sid,
                           agreeing=int(np.count_nonzero(values >= values[sid] - AGREE_TOL)),
                           rounds=rounds, rows=X, steps=steps)


@dataclass(frozen=True)
class ProbeRecord:
    """What one bisection probe saw: its q, the winner's certified ratio
    lhs/rhs and err, whether it fired, the winning start, how many starts
    agreed with it, the winner's iteration count and the probe's lockstep
    round count."""

    q: float
    ratio: float
    err: float
    fired: bool
    start_id: int
    agreeing: int
    iterations: int
    rounds: int


@dataclass(frozen=True)
class QnEstimate:
    """Bisection output: q_hat estimates q_n from above (up to optimizer
    incompleteness) and t_hat = 4/q_hat estimates t_n from below whenever the
    witness validates.  probes records each probe in the order run."""

    n: int
    q_hat: float
    t_hat: float
    witness: Certificate
    empirical_c: float
    probes: tuple[ProbeRecord, ...]


def estimate_qn(n: int, tol: float = 1e-3, seed: int = 0, starts: int = 16) -> QnEstimate:
    """Bisect q in [4/3, 2] on the predicate "a valid witness was found".

    A probe at q runs maximize_ratio and fires exactly when the winner's
    certificate is valid (margin > err); that certificate is the probe's
    witness, so each probe evaluates one function with rounding bounds once.
    The first probe (q = 2) starts afresh; every later probe starts from
    the previous probe's result, since the maximizer moves little between
    neighbouring q and the chains then stop in fewer rounds.
    The witness returned is the one from the smallest firing q.  The probe
    at q = 2 always fires, as the all-ones start has ratio^4 =
    (2n^2 + 1)/(3n) >= 3/2 and an Armijo step never lowers a chain, so a
    miss there raises ArithmeticError.  tol must lie in [1e-4, 2/3), below
    the width of [4/3, 2].
    """
    if not 1e-4 <= tol < 2.0 / 3.0:
        raise ValueError(f"bisection tol must lie in [1e-4, 2/3), got {tol}")
    probes = []
    res = None

    def probe(q: float) -> Certificate | None:
        nonlocal res
        res = maximize_ratio(OptimizerConfig(n=n, q=q, starts=starts, seed=seed), res)
        cert = res.certificate
        probes.append(ProbeRecord(q=q, ratio=cert.lhs / cert.rhs, err=cert.err,
                                  fired=cert.valid, start_id=res.start_id,
                                  agreeing=res.agreeing, iterations=res.iterations,
                                  rounds=res.rounds))
        return cert if cert.valid else None

    lo, hi = 4.0 / 3.0, 2.0
    witness = probe(hi)
    if witness is None:
        raise ArithmeticError(f"no valid witness at q = 2 for n = {n}")
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
                      empirical_c=float(n) ** (3.0 - t_hat) - 1.0, probes=tuple(probes))
