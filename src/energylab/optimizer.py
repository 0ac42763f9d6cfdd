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

import math
from dataclasses import dataclass, field

import numpy as np

from .certificates import Certificate, evaluate_certificate
from .discrete_core import DiscreteFunction

ARMIJO_C = 1e-4
ASCENT_TOL = 1e-12  # relative objective gain below which a chain stops
BACKTRACK_SHRINK = 0.5
STEP_GROW = 1.3
STEP_INIT = 0.1  # a chain's first trial step, and the floor of a carried step
AGREE_TOL = 1e-9  # starts whose final value is this close to the best agree with it


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
        if not 1 < self.q <= 512:  # the range lq_norm_with_error takes, less q = 1
            raise ValueError(f"q must lie in (1, 512], got {self.q}")
        if self.starts < 4:
            raise ValueError("starts must be >= 4 (the canonical starts)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


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


def _pow4_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum (x*x)^2 of each row x of X and its gradient 4 sum_b x(b) (x*x)(i+b),
    from one rfft and one irfft along the rows.

    With F = rfft(x, N), c = irfft(F^2) is x*x and irfft(F^2 conj F) is the
    correlation of c with x; both come from one irfft over the stacked rows
    (F^2, F^2 conj F).  At N, the least power of two >= 2n-1, neither wraps
    around.  Rows never mix, so a row's result does not depend on the
    others.
    """
    k, n = X.shape
    N = 1 << (2 * n - 2).bit_length()
    F = np.fft.rfft(X, N, axis=1)
    F2 = F * F
    out = np.fft.irfft(np.concatenate((F2, F2 * F.conj())), N, axis=1)
    c = out[:k, :2 * n - 1]
    return (c * c).sum(axis=1), 4.0 * out[k:, :n]


def _objective_rows(X: np.ndarray, q: float) -> tuple[np.ndarray, np.ndarray]:
    """log ||x^||_4 - log ||x||_q of each row x of X and its gradient, for
    rows x >= 0 with max(x) = 1; sum x^q shares x^(q-1) with the gradient."""
    e4, grad4 = _pow4_rows(X)
    xq1 = X ** (q - 1.0)
    s = (xq1 * X).sum(axis=1)
    values = 0.25 * np.log(e4) - np.log(s) / q
    return values, grad4 / (4.0 * e4[:, None]) - xq1 / s[:, None]


class _Ascent(tuple):
    """(X, values, iters) of an ascent, which it unpacks to, with each
    chain's final step size in .steps and the lockstep round count in
    .rounds (as os.stat_result carries fields beyond its tuple)."""

    def __new__(cls, X, values, iters, steps, rounds):
        self = super().__new__(cls, (X, values, iters))
        self.steps, self.rounds = steps, rounds
        return self


def _ascend_rows(X0: np.ndarray, q: float, max_iters: int, tol: float,
                 steps: np.ndarray | None = None) -> _Ascent:
    """Projected gradient ascent with Armijo backtracking on every row of X0
    (rows >= 0, each with a positive maximum) at once, each chain's first
    trial step taken from steps (STEP_INIT each if None); returns (X, values,
    iters), one row or entry per chain, with .steps and .rounds.

    The chains run in lockstep rounds.  In a round every running chain takes
    one trial step y = max(x + eta g, 0) with its own eta; one row-wise
    evaluation at y / max(y) serves all of them (the objective is scale
    invariant), so an accepted trial's value and gradient are the next
    iterate's.  An accepted chain grows eta and moves on to its next
    iteration, a rejected one halves eta and retries; a chain stops when
    eta falls to 1e-18, when its gain drops below tol (after 8 iterations)
    or at max_iters.  Chains never read each other's rows.

    The running chains' state is kept packed, one row per running chain in
    x, g, v, step and it; a chain's final state goes back to its own row of
    X, values, eta and iters in the round it stops.
    """
    X = X0 / X0.max(axis=1, keepdims=True)
    values, g = _objective_rows(X, q)
    eta = np.full(len(X), STEP_INIT) if steps is None else np.array(steps, dtype=np.float64)
    iters = np.ones(len(X), dtype=np.int64)
    run = np.arange(len(X))
    x, v, step, it = X, values, eta, iters
    rounds = 0
    while run.size:
        rounds += 1
        # a trial whose top is 0 or not finite gives a NaN row (0/0, inf/inf),
        # and a huge step overflows the Armijo bound: both are rejected
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            y = np.maximum(x + step[:, None] * g, 0.0)
            z = y / y.max(axis=1, keepdims=True)
            fz, gz = _objective_rows(z, q)
            slope = (g * (y - x)).sum(axis=1)
            ok = np.isfinite(fz) & (fz >= v + ARMIJO_C * step * slope) & (fz >= v)
            done = ok & (((fz - v < tol * np.maximum(1.0, np.abs(fz))) & (it > 8))
                         | (it == max_iters))
        x, g = np.where(ok[:, None], z, x), np.where(ok[:, None], gz, g)
        v = np.where(ok, fz, v)
        step = step * np.where(ok, STEP_GROW, BACKTRACK_SHRINK)
        it = it + (ok & ~done)
        stop = done | (~ok & (step <= 1e-18))
        if stop.any():
            rows = run[stop]
            X[rows], values[rows], eta[rows], iters[rows] = x[stop], v[stop], step[stop], it[stop]
            keep = ~stop
            run, x, g, v, step, it = run[keep], x[keep], g[keep], v[keep], step[keep], it[keep]
    return _Ascent(X, values, iters, eta, rounds)


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


def _start_rows(config: OptimizerConfig) -> np.ndarray:
    """The (starts x n) array of chain starts: the canonical starts, then
    seeded draws, each clipped at 0.  A degenerate start (no positive or a
    non-finite entry) is redrawn from its own stream [seed, start_id,
    attempt]."""
    n = config.n
    rng = np.random.default_rng(config.seed)
    starts = _canonical_starts(n)
    while len(starts) < config.starts:
        starts.append(rng.random(n))
    rows = []
    for sid, x0 in enumerate(starts):
        x = np.maximum(np.asarray(x0, dtype=np.float64), 0.0)
        attempt = 0
        while x.max() <= 0 or not np.all(np.isfinite(x)):
            attempt += 1
            x = np.random.default_rng([config.seed, sid, attempt]).random(n) + 1e-6
        rows.append(x)
    return np.array(rows)


def maximize_ratio(config: OptimizerConfig, start_rows: np.ndarray | None = None,
                   start_steps: np.ndarray | None = None) -> OptimizerResult:
    """Multi-start search for sup ||f^||_4 / ||f||_q over f >= 0 on {0..n-1}.

    The chains start from start_rows, a (starts x n) array of finite,
    nonnegative rows each with a positive maximum (a previous result's rows,
    say); None means _start_rows(config).  Their first trial steps are
    start_steps, a (starts,) array of finite positive steps (a previous
    result's steps, say); None means STEP_INIT each.  Chains are ranked by
    their float64 objective; only the winner is evaluated with rounding
    bounds, once, by evaluate_certificate, so the result carries its
    explicit certificate with a rigorous err.  Deterministic for a fixed config and
    start_rows and start_steps: chains are independent and ties go to the
    smaller start_id.
    """
    n, q = config.n, config.q
    if start_rows is None:
        start_rows = _start_rows(config)
    else:
        start_rows = np.asarray(start_rows, dtype=np.float64)
        if start_rows.shape != (config.starts, n):
            raise ValueError(f"start_rows must have shape {(config.starts, n)}, "
                             f"got {start_rows.shape}")
        if not np.all(np.isfinite(start_rows)) or np.any(start_rows < 0):
            raise ValueError("start_rows must be finite and nonnegative")
        if not np.all(start_rows.max(axis=1) > 0):
            raise ValueError("every row of start_rows must have a positive maximum")
    if start_steps is not None:
        start_steps = np.asarray(start_steps, dtype=np.float64)
        if start_steps.shape != (config.starts,):
            raise ValueError(f"start_steps must have shape {(config.starts,)}, "
                             f"got {start_steps.shape}")
        if not np.all(np.isfinite(start_steps) & (start_steps > 0)):
            raise ValueError("start_steps must be finite and positive")
    ascent = _ascend_rows(start_rows, q, config.max_iters, ASCENT_TOL, start_steps)
    X, values, iters = ascent
    X.flags.writeable = False
    ascent.steps.flags.writeable = False
    sid = int(np.argmax(values))  # the first maximum: ties go to the smaller start_id
    f = DiscreteFunction(0, X[sid])
    return OptimizerResult(certificate=evaluate_certificate("explicit", n, q, f),
                           iterations=int(iters[sid]), start_id=sid,
                           agreeing=int(np.count_nonzero(values >= values[sid] - AGREE_TOL)),
                           rounds=ascent.rounds, rows=X, steps=ascent.steps)


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
    witness: Certificate | None
    empirical_c: float
    probes: tuple[ProbeRecord, ...]


def estimate_qn(n: int, tol: float = 1e-3, seed: int = 0, starts: int = 16) -> QnEstimate:
    """Bisect q in [4/3, 2] on the predicate "a valid witness was found".

    A probe at q runs maximize_ratio and fires exactly when the winner's
    certificate is valid (margin > err); that certificate is the probe's
    witness, so each probe evaluates one function with rounding bounds once.
    The first probe (q = 2) starts from _start_rows at STEP_INIT; every
    later probe starts from the previous probe's final rows, each chain at
    its previous final step floored at STEP_INIT (a step that collapsed
    ends a chain, so it starts afresh), since the maximizer moves little
    between neighbouring q and the chains then stop in fewer rounds.
    The witness returned is the one from the smallest firing q.  If the
    predicate never fires, q_hat = 2 and witness is None.  tol must lie in
    [1e-4, 2/3), below the width of [4/3, 2].
    """
    if not 1e-4 <= tol < 2.0 / 3.0:
        raise ValueError(f"bisection tol must lie in [1e-4, 2/3), got {tol}")
    probes = []
    rows = steps = None

    def probe(q: float) -> Certificate | None:
        nonlocal rows, steps
        res = maximize_ratio(OptimizerConfig(n=n, q=q, starts=starts, seed=seed), rows, steps)
        rows, steps = res.rows, np.maximum(res.steps, STEP_INIT)
        cert = res.certificate
        probes.append(ProbeRecord(q=q, ratio=cert.lhs / cert.rhs, err=cert.err,
                                  fired=cert.valid, start_id=res.start_id,
                                  agreeing=res.agreeing, iterations=res.iterations,
                                  rounds=res.rounds))
        return cert if cert.valid else None

    lo, hi = 4.0 / 3.0, 2.0
    witness = probe(hi)
    if witness is None:
        return QnEstimate(n=n, q_hat=2.0, t_hat=2.0, witness=None,
                          empirical_c=float(n) ** 1.0 - 1.0, probes=tuple(probes))
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
