"""Acceptance suite: one runner per criterion, shared by pytest and the CLI
selftest.  Every runner is deterministic for a fixed seed and reports only
seed-derived numbers, so result files are byte-reproducible.

Criterion 7's truncation-deficit clause compares the absolute norm deficit
||g^||_4 - ||g_M^||_4 against the envelope exp(-k^(eps/20)).  That envelope
is asymptotic and only takes hold at astronomically large k, so the clause is
expected to FAIL at the tested sizes; the relative deficit (also recorded)
does sit below the envelope.  The failure is kept visible on purpose.
"""

from __future__ import annotations

import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from . import certificates, continuum, discrete_core, experiments, optimizer

DEFAULT_SEED = 7


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d}: {status} - {self.name}"


def _random_function(rng, max_support: int, offset_range: int = 40):
    m = int(rng.integers(1, max_support + 1))
    vals = rng.standard_normal(m)
    offset = int(rng.integers(-offset_range, offset_range + 1))
    return discrete_core.DiscreteFunction(offset, vals)


def criterion_1(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Exact interval energies match (2n^3+n)/3 for n in [1, 200]."""
    bad = []
    for n in range(1, 201):
        measured = discrete_core.energy_of_set(discrete_core.LatticeSet.from_range(n))
        if measured != discrete_core.energy_interval_formula(n):
            bad.append(n)
    return CriterionResult(1, "interval energy formula, n in [1, 200]",
                           not bad, {"n_checked": 200, "mismatches": bad})


def criterion_2(seed: int = DEFAULT_SEED) -> CriterionResult:
    """E(A^d) = E(A)^d exactly for seeded A in {0..4}, d in {2, 3}."""
    rng = np.random.default_rng(seed)
    failures = []
    for trial in range(20):
        size = int(rng.integers(1, 6))
        vals = sorted(int(v) for v in rng.choice(5, size=size, replace=False))
        base = discrete_core.LatticeSet(1, 5, [[v] for v in vals])
        e_base = discrete_core.energy_of_set(base)
        for d in (2, 3):
            power = discrete_core.tensor_power(base, d)
            e_power = discrete_core.energy_of_set(power)
            e_brute = discrete_core.energy_bruteforce(power)
            if not (e_power == e_base ** d == e_brute):
                failures.append({"trial": trial, "set": vals, "d": d})
    return CriterionResult(2, "tensor powers: E(A^d) = E(A)^d with oracle cross-check",
                           not failures, {"trials": 20, "failures": failures})


def _norm_corpus(seed: int, count: int = 1000, max_support: int = 32):
    rng = np.random.default_rng(seed)
    return [_random_function(rng, max_support) for _ in range(count)]


def criterion_3(seed: int = DEFAULT_SEED) -> CriterionResult:
    """||f^||_4 <= ||f||_{4/3} (1 + 1e-12) on 1000 seeded random f."""
    worst = 0.0
    failures = 0
    for f in _norm_corpus(seed):
        rep = discrete_core.ratio_report(f, 4.0 / 3.0)
        worst = max(worst, rep.ratio)
        if rep.ratio > 1.0 + 1e-12:
            failures += 1
    return CriterionResult(3, "Hausdorff-Young property on random corpus",
                           failures == 0, {"count": 1000, "worst_ratio": worst,
                                           "failures": failures})


def criterion_4(seed: int = DEFAULT_SEED) -> CriterionResult:
    """||f||_q <= ||f||_{4/3} <= |supp f|^{3/4-1/q} ||f||_q on the same corpus."""
    rng_q = np.random.default_rng(seed + 1)
    tol = 1e-12
    failures = 0
    for f in _norm_corpus(seed):
        q = float(rng_q.uniform(4.0 / 3.0, 2.0))
        lq = discrete_core.lq_norm(f, q)
        l43 = discrete_core.lq_norm(f, 4.0 / 3.0)
        supp = sum(1 for v in f.values if v != 0)
        if lq > l43 * (1 + tol):
            failures += 1
        elif l43 > supp ** (0.75 - 1.0 / q) * lq * (1 + tol):
            failures += 1
    return CriterionResult(4, "norm sandwich between q and 4/3",
                           failures == 0, {"count": 1000, "failures": failures})


def criterion_5(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Perturbation certificates validate for all n in [3, 100]; overlap sums exact."""
    invalid = []
    drift = 0.0
    for n in range(3, 101):
        cert = certificates.build_perturbation_certificate(n)
        target = math.log(discrete_core.energy_interval_formula(n)) / math.log(n)
        drift = max(drift, abs(cert.implied_t_bound - target))
        if not cert.valid or abs(cert.implied_t_bound - target) > 1e-9:
            invalid.append(n)
    t3 = certificates.build_perturbation_certificate(3).implied_t_bound
    ok_t3 = abs(t3 - 2.680144) < 1e-5
    overlap_ok = all(certificates.interval_overlap_sum(n) == -((-3 * n * n) // 4)
                     for n in range(1, 501))
    passed = not invalid and ok_t3 and overlap_ok
    return CriterionResult(5, "perturbation certificates n in [3, 100] + overlap sums",
                           passed, {"invalid_n": invalid, "max_bound_drift": drift,
                                    "t3_bound": t3, "overlap_ok": overlap_ok})


def criterion_6(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Gaussian closed forms vs quadrature at A in {1, 10, 1000}; sharp ratio."""
    details = {}
    ok = True
    for a in (1.0, 10.0, 1000.0):
        spec = continuum.GaussianSpec(a)
        closed4 = continuum.gaussian_l4hat(spec) ** 4
        quad4 = continuum.quadrature_l4hat(spec)
        rel4 = abs(quad4 - closed4) / closed4
        rels_q = []
        for q in (4.0 / 3.0, 2.0):
            closed_q = continuum.gaussian_lq(spec, q) ** q
            quad_q = continuum.quadrature_lq_pow(spec, q)
            rels_q.append(abs(quad_q - closed_q) / closed_q)
        details[f"A={a:g}"] = {"l4hat_pow4_rel": rel4, "lq_pow_rel": rels_q}
        ok = ok and rel4 <= 1e-8 and all(r <= 1e-8 for r in rels_q)
    sharp = (16.0 / 27.0) ** 0.125
    ratio_dev = max(abs(continuum.gaussian_ratio(continuum.GaussianSpec(a), 4.0 / 3.0) - sharp)
                    for a in (1.0, 10.0, 1000.0))
    details["sharp_ratio_deviation"] = ratio_dev
    ok = ok and ratio_dev <= 1e-12
    return CriterionResult(6, "Gaussian closed forms vs quadrature oracle", ok, details)


def criterion_7(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Discretization rates at eps = 0.5, k in {1e2, 1e3, 1e4}.

    Checks (a) the deviation ratios of the two approximation steps shrink with
    log-log slope in [-0.8, -0.3] (target -1/2), and (b) the absolute
    truncation deficit at k = 1e4 sits below exp(-k^(eps/20)).  (b) holds only
    asymptotically and fails at feasible k; it is asserted anyway.
    """
    eps = 0.5
    ks = (100, 1000, 10000)
    reports = [certificates.continuum_discretization_report(
        certificates.GaussianScheduleParams.from_n_eps(2 * k + 1, eps)) for k in ks]
    logk = np.log([float(k) for k in ks])
    slopes = {}
    slopes_raw = {}
    for name, ratio_attr, raw_attr in (("cell", "cell_ratio", "cell_deviation"),
                                       ("l4", "l4_ratio", "l4_deviation"),
                                       ("lq", "lq_ratio", "lq_deviation")):
        ratios = [getattr(r, ratio_attr) for r in reports]
        raws = [getattr(r, raw_attr) for r in reports]
        slopes[name] = float(np.polyfit(logk, np.log(ratios), 1)[0])
        slopes_raw[name] = float(np.polyfit(logk, np.log(raws), 1)[0])
    slopes_ok = all(-0.8 <= s <= -0.3 for s in slopes.values())
    shrink_ok = all(
        getattr(reports[0], a) > getattr(reports[1], a) > getattr(reports[2], a)
        for a in ("cell_deviation", "l4_deviation", "lq_deviation"))
    last = reports[-1]
    deficit_ok = last.truncation_deficit <= last.truncation_bound
    details = {
        "normalized_ratio_slopes": slopes,
        "raw_deviation_slopes": slopes_raw,
        "deviations_shrink": shrink_ok,
        "truncation_deficit_abs": last.truncation_deficit,
        "truncation_deficit_rel": last.truncation_deficit_rel,
        "truncation_bound": last.truncation_bound,
        "truncation_deficit_ok": deficit_ok,
        "parity_lq_gaps": [r.parity_lq_gap for r in reports],
    }
    return CriterionResult(7, "Gaussian discretization rates and truncation deficit",
                           slopes_ok and shrink_ok and deficit_ok, details)


def criterion_8(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Optimizer calibration at n = 2 and the n = 3 violation at q = 1.48."""
    est = optimizer.estimate_qn(2, tol=1e-3, seed=seed)
    q2_ok = 1.546 <= est.q_hat <= 1.549
    witness_ok = est.witness.valid and certificates.revalidate_certificate(est.witness).valid

    cert3 = optimizer.maximize_ratio(optimizer.OptimizerConfig(n=3, q=1.48, seed=seed)).certificate
    fired3 = cert3.valid  # the firing rule of estimate_qn's probes
    # cross-check the winning witness against the O(m^3) quadruple-sum oracle
    quad = discrete_core.fourier_l4_pow4_quadruple(cert3.f)
    conv_based = discrete_core.fourier_l4_pow4(cert3.f)
    oracle_ok = abs(quad - conv_based) <= 1e-9 * abs(conv_based)
    passed = q2_ok and witness_ok and fired3 and oracle_ok
    return CriterionResult(8, "optimizer calibration (q_2 bisection, n=3 violation)",
                           passed, {"q2_hat": est.q_hat, "t2_hat": est.t_hat,
                                    "q2_ok": q2_ok, "witness_ok": witness_ok,
                                    "n3_ratio": cert3.lhs / cert3.rhs, "n3_fired": fired3,
                                    "n3_cert_valid": cert3.valid, "oracle_ok": oracle_ok})


def criterion_9(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Analytic energy gradient vs central finite differences, 100 seeded f.

    The gradient checked is the energy term of the optimizer ascent's gradient,
    from its row-wise FFT kernel; the differences are taken of an independent
    np.convolve energy."""
    def pow4(x):
        c = np.convolve(x, x)
        return float(np.dot(c, c))

    rng = np.random.default_rng(seed)
    worst = 0.0
    h = 1e-5
    for _ in range(100):
        m = int(rng.integers(2, 17))
        x = rng.standard_normal(m)
        analytic = 4.0 * optimizer._pow4_corr_rows(x[None, :])[1][0]
        fd = np.zeros(m)
        for i in range(m):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (pow4(xp) - pow4(xm)) / (2 * h)
        rel = float(np.max(np.abs(analytic - fd)) / max(np.max(np.abs(fd)), 1e-30))
        worst = max(worst, rel)
    return CriterionResult(9, "energy gradient vs finite differences",
                           worst <= 1e-6, {"count": 100, "worst_rel": worst})


_BALL_SCHEDULE = ((1, (1.5, 10.5, 40.5)), (2, (1.0, 2.5, 6.0, 8.8)),
                  (3, (1.5, 2.9)), (4, (1.9,)), (5, (1.5,)))


def criterion_10(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Ball lattice-set energies: oracle-exact for |A| <= 300, trivial bounds."""
    mismatches = []
    bound_failures = []
    trend = []
    for d, radii in _BALL_SCHEDULE:
        rows = experiments.ball_energy_experiment([d], radii)
        for row in rows:
            ball = experiments.ball_lattice_set(row.d, row.radius, row.center)
            if row.set_size <= 300:
                if discrete_core.energy_bruteforce(ball) != row.energy:
                    mismatches.append((d, row.radius, row.center))
            if not (row.set_size ** 2 <= row.energy <= row.set_size ** 3):
                bound_failures.append((d, row.radius, row.center))
            trend.append({"d": d, "radius": row.radius, "size": row.set_size,
                          "energy_ratio": row.energy_ratio,
                          "reference_ratio": row.reference_ratio})
    passed = not mismatches and not bound_failures
    return CriterionResult(10, "ball experiment exactness and trivial bounds",
                           passed, {"rows": len(trend), "oracle_mismatches": mismatches,
                                    "bound_failures": bound_failures, "trend": trend})


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10)


def run_all(seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    """Every criterion in order.  Tracebacks and each criterion's wall time
    go to stderr only, so result files stay byte-reproducible."""
    results = []
    for fn in CRITERIA:
        number = int(fn.__name__.rsplit("_", 1)[1])
        start = time.perf_counter()
        try:
            results.append(fn(seed))
        except Exception as exc:  # a crash is a failed criterion, not a crash of the suite
            traceback.print_exc(file=sys.stderr)
            results.append(CriterionResult(number, fn.__doc__.splitlines()[0], False,
                                           {"error": repr(exc)}))
        print(f"criterion {number:2d}: {time.perf_counter() - start:.3f} s", file=sys.stderr)
    return results


def report_document(results, seed: int) -> str:
    """The deterministic selftest result document, as JSON without its final
    newline."""
    doc = {
        "seed": seed,
        "all_passed": all(r.passed for r in results),
        "criteria": [{"number": r.number, "name": r.name, "passed": r.passed,
                      "details": r.details} for r in results],
    }
    return json.dumps(doc, indent=2)
