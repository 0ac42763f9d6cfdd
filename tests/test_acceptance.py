"""Acceptance gate: one test per criterion, each at its stated tolerance.

Criterion 7's truncation-envelope test asserts the absolute deficit below
exp(-k^(eps/20)) even though that envelope only dominates at astronomically
large k; it is expected to fail, and the failure message carries the
measured numbers.  Everything else must pass.
"""

import functools
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import energylab
from energylab import acceptance

SEED = 7
# sha256 of selftest_results.json for --seed 7; no criterion records a time
SELFTEST_SHA256 = "95e03a0d353c66c6c19ae52904bf445b07332adbf7157b695b08e1e6a67d8e8c"


def _line(result):
    print(result.line())
    return result


@functools.lru_cache(maxsize=None)
def criterion(number):
    fn = acceptance.CRITERIA[number - 1]
    return fn(SEED)


def test_crash_traceback_on_stderr_only(monkeypatch, capsys):
    def criterion_3(seed):
        """A criterion that crashes."""
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(acceptance, "CRITERIA", (criterion_3,))
    results = acceptance.run_all(SEED)
    err = capsys.readouterr().err
    assert "Traceback" in err and "ZeroDivisionError: boom" in err
    assert [(r.number, r.passed, r.details) for r in results] == \
        [(3, False, {"error": "ZeroDivisionError('boom')"})]
    assert "Traceback" not in acceptance.report_document(results, SEED)


def test_criterion_1_interval_energy():
    r = _line(criterion(1))
    assert r.passed, r.details


def test_criterion_2_tensor_powers():
    r = _line(criterion(2))
    assert r.passed, r.details


def test_criterion_3_hausdorff_young():
    r = _line(criterion(3))
    assert r.passed, f"worst ratio {r.details['worst_ratio']}"


def test_criterion_4_norm_sandwich():
    r = _line(criterion(4))
    assert r.passed, r.details


def test_criterion_5_perturbation_certificates():
    r = _line(criterion(5))
    assert r.passed, r.details


def test_criterion_6_gaussian_closed_forms():
    r = _line(criterion(6))
    assert r.passed, r.details


def test_criterion_7_discretization_rates():
    r = _line(criterion(7))
    slopes = r.details["normalized_ratio_slopes"]
    assert r.details["deviations_shrink"]
    for name, slope in slopes.items():
        assert -0.8 <= slope <= -0.3, (name, slope, slopes)


def test_criterion_7_truncation_envelope():
    # Expected red: the asymptotic envelope does not hold at k = 1e4 (the
    # absolute deficit is ~48.5 against a bound of ~0.28, while the relative
    # deficit ~0.045 does sit below it).
    r = criterion(7)
    assert r.details["truncation_deficit_abs"] <= r.details["truncation_bound"], (
        f"absolute truncation deficit {r.details['truncation_deficit_abs']:.4g} "
        f"exceeds exp(-k^(eps/20)) = {r.details['truncation_bound']:.4g} at k=1e4 "
        f"(relative deficit {r.details['truncation_deficit_rel']:.4g} satisfies it)")


def test_criterion_8_optimizer_calibration():
    r = _line(criterion(8))
    assert r.passed, r.details


def test_criterion_9_gradient():
    r = _line(criterion(9))
    assert r.passed, f"worst relative error {r.details['worst_rel']}"


def test_criterion_10_ball_experiment():
    r = _line(criterion(10))
    assert r.passed, {k: v for k, v in r.details.items() if k != "trend"}


def _run_selftest(out_dir: Path):
    # the subprocess imports the same energylab as this test, found or not on PYTHONPATH
    package_root = str(Path(energylab.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "energylab.cli", "selftest", "--seed", "7",
         "--out", str(out_dir)],
        capture_output=True, text=True, timeout=1800,
        env={**os.environ, "PYTHONPATH": pythonpath})
    assert proc.returncode in (0, 1), proc.stderr
    assert (out_dir / "selftest_results.json").is_file(), proc.stderr
    return proc


def test_criterion_11_selftest_determinism(tmp_path):
    run1, run2 = tmp_path / "run1", tmp_path / "run2"
    first = _run_selftest(run1)
    second = _run_selftest(run2)
    name = "selftest_results.json"
    bytes1 = (run1 / name).read_bytes()
    bytes2 = (run2 / name).read_bytes()
    assert bytes1 == bytes2, "selftest result files differ between identical runs"
    assert first.stdout == second.stdout
    # pins every criterion's numbers, the quadrature and discretization
    # figures of criteria 6 and 7 included, as GOLDEN_STDOUT pins the CLI's
    assert hashlib.sha256(bytes1).hexdigest() == SELFTEST_SHA256
    print("criterion 11: PASS - selftest determinism (byte-identical result files)")
