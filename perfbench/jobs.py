"""The four workloads: seeded inputs, the energylab calls that run them, and
the output checks.

Every job runs the way a user would: ``energylab.cli.main(argv)`` with
stdout captured, or a name from ``energylab.__all__`` where the CLI has no
command.  Both are looked up at call time, so the tracer's patches apply.
The same jobs can be built against the frozen reference copy of the
package (``reference/energylab_ref``), which times them for calibration.

Checks run outside the timed region and use oracles independent of the code
path they check: a float64 FFT (Parseval) recomputation of ``||f^||_4`` and a
numpy ``||f||_q``, the closed form ``(2n^3+n)/3`` for intervals,
``energy_bruteforce(A)^d`` for tensor powers, and an FFT autoconvolution of
the ball's indicator grid for balls.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

# Hausdorff-Young: ||f^||_4 <= ||f||_{4/3}, so `norms` at this q must exit 0.
Q_HAUSDORFF_YOUNG = "1.3333333333333333"
# Agreement between the program's 120-bit or compensated float64 norms and
# the float64 FFT recomputation; the recomputation is good to ~1e-13.
RTOL = 1e-9


@dataclass
class Outcome:
    """What a check found: problems (empty when the output is right), the
    certificates the job produced, and the estimate's q_hat if any."""

    problems: list = field(default_factory=list)
    certs: list = field(default_factory=list)
    q_hat: float | None = None


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]


def run_cli(pkg, argv):
    """<pkg>.cli.main(argv) with stdout and stderr captured."""
    cli = importlib.import_module(f"{pkg.__name__}.cli")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli_job(pkg, name, argv, check):
    return Job(name, lambda: run_cli(pkg, argv), check)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def l4hat_float64(values) -> float:
    """||f^||_4 by Parseval: sum_s (f*f)(s)^2 = (1/N) sum_k |F_k|^4 with F the
    length-N DFT, N >= 2m-1 so the cyclic autoconvolution does not wrap."""
    v = np.asarray(values, dtype=np.float64)
    size = 1 << (2 * len(v) - 2).bit_length()
    p = np.abs(np.fft.rfft(v, size)) ** 4
    total = 2.0 * p.sum() - p[0] - p[-1]  # rfft keeps k = 0..N/2 of N bins
    return float((total / size) ** 0.25)


def lq_float64(values, q: float) -> float:
    v = np.abs(np.asarray(values, dtype=np.float64))
    return float(np.sum(v ** q) ** (1.0 / q))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * abs(b)


def check_certificate(doc: dict, problems: list) -> None:
    """A certificate must be valid and its lhs/rhs must match float64."""
    values = [float(s) for s in doc["values"]]
    if not doc["valid"]:
        problems.append(f"{doc['kind']} certificate not valid")
    if not doc["margin"] > doc["err"] > 0.0:
        problems.append(f"margin {doc['margin']!r} does not exceed err {doc['err']!r}")
    if not _close(doc["lhs"], l4hat_float64(values)):
        problems.append(f"lhs {doc['lhs']!r} != float64 {l4hat_float64(values)!r}")
    if not _close(doc["rhs"], lq_float64(values, doc["q"])):
        problems.append(f"rhs {doc['rhs']!r} != float64 {lq_float64(values, doc['q'])!r}")


def ball_oracle(d: int, radius: float, center) -> tuple[int, int]:
    """(|B|, E(B)) for the lattice ball, by an FFT autoconvolution of its
    indicator grid rounded to integers; never calls energy_of_set."""
    r2 = radius * radius
    sq = np.zeros(())
    for c in center:
        coords = np.arange(math.ceil(c - radius), math.floor(c + radius) + 1, dtype=np.float64)
        sq = sq[..., None] + (coords - c) ** 2  # same summation order as the program
    grid = (sq <= r2).astype(np.float64)
    size = int(grid.sum())
    shape = [2 * s - 1 for s in grid.shape]
    r = np.fft.irfftn(np.fft.rfftn(grid, shape) ** 2, shape)
    counts = np.rint(r)
    if np.abs(r - counts).max() > 0.25 or int(counts.sum()) != size * size:
        raise ArithmeticError("ball oracle: FFT counts did not round cleanly")
    counts = counts.astype(np.int64)
    return size, int(np.dot(counts.ravel(), counts.ravel()))


# ---------------------------------------------------------------------------
# Checks on CLI output
# ---------------------------------------------------------------------------

def _exit_ok(result, problems, want=0) -> bool:
    rc, _, err = result
    if rc != want:
        problems.append(f"exit code {rc}, want {want}: {err.strip()[:200]}")
        return False
    return True


def _check_certify(result) -> Outcome:
    out = Outcome()
    if _exit_ok(result, out.problems):
        doc = json.loads(result[1])
        check_certificate(doc, out.problems)
        out.certs.append(doc)
    return out


def _check_norms(values):
    def check(result) -> Outcome:
        out = Outcome()
        if _exit_ok(result, out.problems):
            doc = json.loads(result[1])
            if not doc["ratio"] <= 1.0 + doc["err"]:
                out.problems.append(f"ratio {doc['ratio']!r} > 1 + err")
            if not _close(doc["l4hat"], l4hat_float64(values)):
                out.problems.append(f"l4hat {doc['l4hat']!r} != float64")
            if not _close(doc["lq"], lq_float64(values, float(Q_HAUSDORFF_YOUNG))):
                out.problems.append(f"lq {doc['lq']!r} != float64")
        return out
    return check


def _check_estimate(result) -> Outcome:
    out = Outcome()
    if _exit_ok(result, out.problems):
        doc = json.loads(result[1])
        q_hat, t_hat, witness = doc["q_hat"], doc["t_hat"], doc["witness"]
        if not 4.0 / 3.0 < q_hat <= 2.0:
            out.problems.append(f"q_hat {q_hat!r} outside (4/3, 2]")
        if not _close(t_hat, 4.0 / q_hat):
            out.problems.append(f"t_hat {t_hat!r} != 4/q_hat")
        if witness is None:
            out.problems.append("estimate produced no witness")
        else:
            check_certificate(witness, out.problems)
            out.certs.append(witness)
        out.q_hat = q_hat
    return out


def _check_int(expected):
    def check(result) -> Outcome:
        out = Outcome()
        if _exit_ok(result, out.problems) and int(result[1]) != expected():
            out.problems.append(f"energy {result[1].strip()} != {expected()}")
        return out
    return check


def _check_ball(d, radius, center):
    def check(result) -> Outcome:
        out = Outcome()
        if _exit_ok(result, out.problems):
            rows = json.loads(result[1])["rows"]
            size, energy = ball_oracle(d, radius, center)
            got = [(r["set_size"], r["energy"]) for r in rows]
            if got != [(size, energy)]:
                out.problems.append(f"ball rows {got} != [({size}, {energy})]")
        return out
    return check


def _check_discretization(values, q):
    def check(report) -> Outcome:
        out = Outcome()
        fields = [getattr(report, k) for k in report.__dataclass_fields__ if k != "params"]
        if not all(math.isfinite(x) for x in fields):
            out.problems.append("discretization report has a non-finite field")
        if not _close(report.f_l4hat, l4hat_float64(values)):
            out.problems.append(f"f_l4hat {report.f_l4hat!r} != float64")
        if not _close(report.f_lq, lq_float64(values, q)):
            out.problems.append(f"f_lq {report.f_lq!r} != float64")
        return out
    return check


# ---------------------------------------------------------------------------
# Workloads.  Sizes are fixed per job; (seed, pass) picks eps, centers,
# lengths within a narrow range and the random function values.
# ---------------------------------------------------------------------------

def _eps(rng) -> str:
    return repr(0.5 + 0.02 * float(rng.random()))


def _function_file(path, values) -> str:
    path.write_text(json.dumps({"offset": 0, "values": values.tolist()}))
    return str(path)


def _certify_gaussian(pkg, n, rng):
    return _cli_job(pkg, f"certify_gaussian_n{n}",
                    ["certify", "gaussian", "--n", str(n), "--eps", _eps(rng)], _check_certify)


def _norms(pkg, m, rng, tmp):
    values = rng.standard_normal(m)
    path = _function_file(tmp / f"norms{m}.json", values)
    return _cli_job(pkg, f"norms_m{m}", ["norms", "--f", path, "--q", Q_HAUSDORFF_YOUNG,
                                         "--format", "json"], _check_norms(values))


def witness_small(pkg, rng, tmp, smoke):
    """120-bit pow4 below the precision cap; signed input for the envelope."""
    n_pert = int(rng.integers(20, 31) if smoke else rng.integers(290, 311))
    return [
        _certify_gaussian(pkg, 41 if smoke else 401, rng),
        _norms(pkg, 16 if smoke else 256, rng, tmp),
        _cli_job(pkg, "certify_perturbation", ["certify", "perturbation", "--n", str(n_pert)],
                 _check_certify),
    ]


def witness_large(pkg, rng, tmp, smoke):
    """The same pow4 layer on the float64 side of the cap, plus quadrature."""
    k = 50 if smoke else 10_000
    eps = float(_eps(rng))
    params = pkg.GaussianScheduleParams.from_n_eps(2 * k + 1, eps)
    m = params.m_trunc
    grid = np.arange(-m, m + 1, dtype=np.float64)
    sampled = np.exp(-(grid * grid) / params.a_param)
    return [
        _certify_gaussian(pkg, 301 if smoke else 30_001, rng),
        _certify_gaussian(pkg, 201 if smoke else 20_001, rng),
        _norms(pkg, 64 if smoke else 16_384, rng, tmp),
        Job(f"discretization_k{k}",
            lambda: pkg.continuum_discretization_report(params),
            _check_discretization(sampled, params.q)),
    ]


def estimate(pkg, rng, tmp, smoke):
    """Optimizer ascent plus per-probe ratio_report at small support."""
    sizes, starts, tol = ((3,), 4, "1e-2") if smoke else ((8, 16), 16, "1e-3")
    return [_cli_job(pkg, f"estimate_n{n}", ["estimate", "--n", str(n), "--tol", tol,
                                             "--starts", str(starts),
                                             "--seed", str(int(rng.integers(2 ** 31)))],
                     _check_estimate)
            for n in sizes]


def lattice(pkg, rng, tmp, smoke):
    """energy_of_set on dense 1-D, dense 2-D/3-D and sparse 6-D sets."""
    n = int(rng.integers(50, 60) if smoke else rng.integers(8_000, 8_064))
    jobs = [_cli_job(pkg, "energy_interval",
                     ["energy", "--inline", ",".join(map(str, range(n)))],
                     _check_int(lambda: (2 * n ** 3 + n) // 3))]
    for d, radius in ((2, 3.5), (3, 2.5)) if smoke else ((2, 42.5), (3, 10.5)):
        center = [float(c) for c in rng.random(d)]
        jobs.append(_cli_job(pkg, f"ball_d{d}",
                             ["ball", "--d", str(d), "--radius", repr(radius),
                              "--center", ",".join(map(repr, center))],
                             _check_ball(d, radius, center)))
    # sparse: (2*13-1)^6 bins exceed the bincount cap, so the hash map runs
    base, power = (0, int(rng.integers(1, 12)), 12), 3 if smoke else 6
    path = tmp / "tensor.txt"
    path.write_text("\n".join(",".join(map(str, p)) for p in itertools.product(base, repeat=power)))

    def expected():
        one = pkg.energy_bruteforce(pkg.LatticeSet.from_values(base))
        return one ** power

    jobs.append(_cli_job(pkg, f"energy_tensor{power}", ["energy", "--set", str(path)],
                         _check_int(expected)))
    return jobs


BUILDERS = {"witness_small": witness_small, "witness_large": witness_large,
            "estimate": estimate, "lattice": lattice}


def build_jobs(workload: str, seed: int, pass_index: int, tmp, smoke: bool,
               package: str = "energylab") -> list[Job]:
    """The jobs of one pass, run by `package`.  Inputs depend only on
    (seed, pass_index), so both packages get the same inputs."""
    rng = np.random.default_rng([seed, pass_index])
    return BUILDERS[workload](importlib.import_module(package), rng, tmp, smoke)
