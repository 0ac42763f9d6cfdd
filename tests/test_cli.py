import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import energylab
from energylab import acceptance, certificates, discrete_core, experiments
from energylab.cli import (build_parser, main, parse_inline_set, read_function_file,
                           read_set_file)
from energylab.discrete_core import energy_of_set


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInlineParsing:
    def test_comma_only_is_1d(self):
        lattice = parse_inline_set("0,1")
        assert lattice.dim == 1 and lattice.size == 2

    def test_semicolons_make_points(self):
        lattice = parse_inline_set("0,0;1,1;2,0")
        assert lattice.dim == 2 and lattice.size == 3

    def test_trailing_semicolon_forces_point(self):
        lattice = parse_inline_set("0,1;")
        assert lattice.dim == 2 and lattice.size == 1

    def test_negative_coordinates_translated(self):
        lattice = parse_inline_set("-1,0,1")
        assert lattice.points.tolist() == [[0], [1], [2]]

    def test_coordinates_beyond_int64_translated(self):
        lattice = parse_inline_set(f"{10 ** 30},{10 ** 30 + 2};{-10 ** 30},{10 ** 30}")
        assert lattice.points.tolist() == [[0, 0], [2 * 10 ** 30, 2]]
        assert lattice.side == 2 * 10 ** 30 + 1


class TestEnergyCommand:
    def test_inline_pair(self, capsys):
        code, out, _ = run(capsys, "energy", "--inline", "0,1")
        assert code == 0 and out.strip() == "6"

    def test_set_file(self, capsys, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("0,0\n1,1\n2,2\n")
        code, out, _ = run(capsys, "energy", "--set", str(path))
        assert code == 0 and out.strip() == "19"  # diagonal of a square = interval

    def test_malformed_file_line_number(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0,0\nnope\n")
        code, _, err = run(capsys, "energy", "--set", str(path))
        assert code == 2
        assert "line 2" in err

    def test_inconsistent_dimensions(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0,0\n1\n")
        code, _, err = run(capsys, "energy", "--set", str(path))
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "energy", "--inline", "0,1", "--bogus")
        assert code == 2

    @pytest.mark.parametrize("inline, energy", [
        ("9223372036854775807,-9223372036854775808", 6),
        ("9223372036854775807,0;-9223372036854775808,5;", 6),
        ("-9223372036854775808,0;9223372036854775807,0;0,0;", 15),  # a Sidon set
    ], ids=["1d", "2d", "2d-three"])
    def test_span_beyond_int64_does_not_wrap(self, capsys, inline, energy):
        # max - min of a column is 2^64 - 1: an int64 shift would wrap it
        code, out, err = run(capsys, "energy", f"--inline={inline}")
        assert (code, out, err) == (0, f"{energy}\n", "")
        lattice = parse_inline_set(inline)
        assert lattice.side == 2 ** 64 and lattice.points.min() == 0

    @pytest.mark.parametrize("inline", [";", " ; ;"])
    def test_no_points(self, capsys, inline):
        code, out, err = run(capsys, "energy", "--inline", inline)
        assert (code, out) == (2, "")
        assert err == "error: inline set: no points given\n"

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_usage_error_then_valid_call(self, capsys):
        # the parser is shared between calls; a failed parse leaves it usable
        assert run(capsys, "energy", "--bogus")[0] == 2
        assert run(capsys, "energy", "--inline", "0,1") == (0, "6\n", "")


class TestNormsCommand:
    def test_delta_ratio_one(self, capsys, tmp_path):
        path = tmp_path / "delta.json"
        path.write_text(json.dumps({"offset": 0, "values": [1.0]}))
        code, out, _ = run(capsys, "norms", "--f", str(path), "--q", "1.5")
        assert code == 0
        assert "ratio 1.0" in out

    def test_violating_function_exits_one(self, capsys, tmp_path):
        # 1_{0,1} at q above the critical exponent: the inequality fails
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"offset": 0, "values": [1.0, 1.0]}))
        code, out, _ = run(capsys, "norms", "--f", str(path), "--q", "1.8", "--format", "json")
        assert code == 1
        assert json.loads(out)["ratio"] > 1

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, _, err = run(capsys, "norms", "--f", str(path), "--q", "1.5")
        assert code == 2 and "line 1" in err

    def test_subnormal_ratio_within_err(self, capsys, tmp_path):
        # both norms underflow to subnormals, where float64 keeps few digits
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"offset": 0, "values": [1e-320, 1e-320]}))
        code, out, _ = run(capsys, "norms", "--f", str(path), "--q", "1.5", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert abs(doc["ratio"] - 6 ** 0.25 / 2 ** (1 / 1.5)) <= doc["err"]

    def test_huge_values_above_cap(self, capsys, tmp_path):
        # 3000 values of 1e200 take the float64 path; their squares overflow
        # float64 unless the path prescales by a power of two
        huge, unit = tmp_path / "huge.json", tmp_path / "unit.json"
        huge.write_text(json.dumps({"offset": 0, "values": [1e200] * 3000}))
        unit.write_text(json.dumps({"offset": 0, "values": [1.0] * 3000}))
        code, out, _ = run(capsys, "norms", "--f", str(huge), "--q", "1.5", "--format", "json")
        doc = json.loads(out)
        assert code == 1 and doc["l4hat"] > 1e200 and doc["err"] < 1e-11
        base = json.loads(run(capsys, "norms", "--f", str(unit), "--q", "1.5",
                              "--format", "json")[1])
        assert abs(doc["ratio"] - base["ratio"]) <= (doc["err"] + base["err"]) * base["ratio"]

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, capsys, tmp_path, bad):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"offset": 0, "values": [1.0, bad, 2.0]}))
        code, out, err = run(capsys, "norms", "--f", str(path), "--q", "1.5",
                             "--format", "json")
        assert code == 2 and out == "" and "finite" in err

    def test_integer_beyond_float64_range(self, capsys, tmp_path):
        # a 401-digit JSON integer is an input error, not an OverflowError traceback
        path = tmp_path / "big.json"
        path.write_text('{"offset": 0, "values": [1.0, %d]}' % 10 ** 400)
        code, out, err = run(capsys, "norms", "--f", str(path), "--q", "1.5")
        assert code == 2 and out == "" and "Traceback" not in err and "too large" in err


class TestCertifyCommand:
    def test_perturbation_valid(self, capsys):
        code, out, _ = run(capsys, "certify", "perturbation", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] is True
        assert doc["kind"] == "perturbation"
        assert doc["n"] == 3

    def test_gaussian_invalid_exit(self, capsys):
        code, out, _ = run(capsys, "certify", "gaussian", "--n", "5", "--eps", "0.5")
        assert code == 1
        assert json.loads(out)["valid"] is False

    def test_gaussian_needs_eps(self, capsys):
        code, _, err = run(capsys, "certify", "gaussian", "--n", "5")
        assert code == 2

    def test_perturbation_bad_n(self, capsys):
        code, _, _ = run(capsys, "certify", "perturbation", "--n", "2")
        assert code == 2

    @pytest.mark.parametrize("argv", [["gaussian", "--n", "401", "--eps", "0.5"],
                                      ["perturbation", "--n", "300"]])
    def test_bytes_are_json_dumps(self, capsys, tmp_path, argv):
        if argv[0] == "gaussian":
            cert = certificates.build_gaussian_certificate(
                certificates.GaussianScheduleParams.from_n_eps(401, 0.5))
        else:
            cert = certificates.build_perturbation_certificate(300)
        expected = json.dumps(certificates.certificate_to_dict(cert), indent=2) + "\n"
        code, out, _ = run(capsys, "certify", *argv)
        assert code == 0 and out == expected
        path = tmp_path / "cert.json"
        assert run(capsys, "certify", *argv, "--out", str(path))[0] == 0
        assert path.read_text() == expected


# SHA-256 of stdout, recorded before the exact ||f^||_4^4 kernel packed and
# unpacked with numpy; every certificate, norm report and estimate must stay
# byte-identical.  "norms" reads the seeded signed 256-value file.
GOLDEN_STDOUT = {
    "certify perturbation --n 300":
        "e6e5af6af38693d94c9769d32e535d1303d4a1369fea517bfe015ae8cc4a95e2",
    "certify gaussian --n 401 --eps 0.5":
        "4fb01963d1e223edb34253d662984e39dec824cef96a06ccf1bd818ddb6ba7de",
    "norms --q 1.3333333333333333 --format json":
        "627841d29d37dbdef96e2bec15bf4707382af26927d47471e0929186005fac5a",
    "estimate --n 8 --seed 0":
        "89674a2ca885b407c2442a5113684fd518fdc0f131b92fcb55154a533d8fa90f",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_golden_stdout(capsys, tmp_path, command):
    argv = command.split()
    if argv[0] == "norms":
        path = tmp_path / "signed256.json"
        values = np.random.default_rng(0).standard_normal(256).tolist()
        path.write_text(json.dumps({"offset": 0, "values": values}))
        argv[1:1] = ["--f", str(path)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]


def test_certify_independent_of_blas_threads():
    # support 19099: the FFT bound sums ||y||_2^2, which a threaded BLAS dot
    # would add up in an order that depends on the thread count
    src = Path(energylab.__file__).resolve().parent.parent
    outs = {subprocess.run([sys.executable, "-m", "energylab.cli", "certify", "gaussian",
                            "--n", "20001", "--eps", "0.5"], capture_output=True, text=True,
                           cwd=src, env={**os.environ, "OPENBLAS_NUM_THREADS": str(t)},
                           timeout=300, check=True).stdout
            for t in (1, 2)}
    assert len(outs) == 1


def test_small_runs_never_import_numpy_ma():
    # numpy.ma comes with np.unique and adds RSS to every short CLI run
    src = Path(energylab.__file__).resolve().parent.parent
    probe = ("import contextlib, io, sys\n"
             "from energylab.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()), "
             "contextlib.redirect_stderr(io.StringIO()):\n"
             "    main(['certify', 'gaussian', '--n', '401', '--eps', '0.5'])\n"
             "    main(['certify', 'perturbation', '--n', '30'])\n"
             "    main(['estimate', '--n', '4'])\n"
             "print('numpy.ma' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          cwd=src, timeout=300, check=True)
    assert done.stdout.strip() == "False"


class TestBallCommand:
    def test_unit_cross(self, capsys):
        code, out, _ = run(capsys, "ball", "--d", "2", "--radius", "1", "--center", "0,0")
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][0]["set_size"] == 5

    def test_center_counts_one_energy(self, capsys, monkeypatch):
        calls = []

        def counted(lattice):
            calls.append(lattice.size)
            return energy_of_set(lattice)

        monkeypatch.setattr(experiments, "energy_of_set", counted)
        monkeypatch.setattr(discrete_core, "energy_of_set", counted)
        code, out, _ = run(capsys, "ball", "--d", "2", "--radius", "1", "--center", "0,0")
        assert code == 0 and calls == [5]
        assert [r["set_size"] for r in json.loads(out)["rows"]] == [5]

    def test_both_centers_by_default(self, capsys):
        code, out, _ = run(capsys, "ball", "--d", "2", "--radius", "1.5")
        assert code == 0
        assert len(json.loads(out)["rows"]) == 2


@pytest.mark.parametrize("argv", [("bounds-table", "--n-min", "2", "--n-max", "4"),
                                  ("ball", "--d", "2", "--radius", "2.5")])
def test_stdout_csv_bytes_match_file(capsys, tmp_path, argv):
    path = tmp_path / "rows.csv"
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0 and out.count(",") > 6
    assert run(capsys, *argv, "--format", "csv", "--out", str(path))[0] == 0
    assert path.read_bytes() == out.encode()


class TestBoundsTableCommand:
    def test_stdout_csv(self, capsys):
        code, out, _ = run(capsys, "bounds-table", "--n-min", "2", "--n-max", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,trivial_lower")
        assert len(lines) == 3

    def test_stdout_json_matches_file(self, capsys, tmp_path):
        path = tmp_path / "rows.json"
        argv = ("bounds-table", "--n-min", "2", "--n-max", "4", "--format", "json")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["kind"] == "bounds"
        assert run(capsys, *argv, "--out", str(path))[0] == 0
        assert out == path.read_text()

    def test_deterministic_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "bounds-table", "--n-min", "2", "--n-max", "5", "--out", str(a))[0] == 0
        assert run(capsys, "bounds-table", "--n-min", "2", "--n-max", "5", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "bounds-table", "--n-min", "5", "--n-max", "2")
        assert code == 2


class TestEstimateCommand:
    def test_n2(self, capsys):
        code, out, _ = run(capsys, "estimate", "--n", "2", "--seed", "7")
        assert code == 0
        doc = json.loads(out)
        assert 1.546 <= doc["q_hat"] <= 1.549
        assert doc["witness"]["valid"] is True

    def test_probe_trace_on_stderr_only(self, capsys):
        code, out, err = run(capsys, "estimate", "--n", "3", "--seed", "7", "--starts", "6")
        assert code == 0
        assert sorted(json.loads(out)) == ["empirical_c", "n", "q_hat", "t_hat", "witness"]
        lines = err.splitlines()
        assert len(lines) > 1
        pattern = (r"probe q=\S+ ratio=\S+ err=\S+ fired=[01] start=[0-5] agreeing=[1-6]/6"
                   r" iters=[1-9]\d* rounds=[1-9]\d*")
        assert all(re.fullmatch(pattern, line) for line in lines)
        assert lines[0].startswith("probe q=2.0 ") and "fired=1" in lines[0]
        assert "probe" not in out


@pytest.mark.parametrize("argv", [
    ("certify", "perturbation", "--n", "5", "--eps", "inf"),
    ("certify", "perturbation", "--n", "5", "--eps", "1e400"),
    ("certify", "gaussian", "--n", "9", "--eps", "nan"),
    ("ball", "--d", "2", "--radius", "inf"),
    ("ball", "--d", "2", "--radius", "2", "--center", "inf,0"),
    ("estimate", "--n", "2", "--tol", "nan"),
    ("estimate", "--n", "2", "--tol", "inf"),
    ("estimate", "--n", "1"),
], ids=["eps-inf", "eps-1e400", "eps-nan", "radius-inf", "center-inf", "tol-nan", "tol-inf", "n-1"])
def test_bad_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_selftest_times_only_on_stderr(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(acceptance, "CRITERIA", acceptance.CRITERIA[:2])
    code, out, err = run(capsys, "selftest", "--out", str(tmp_path / "cli"))
    assert code == 0
    assert re.fullmatch(r"(criterion  [12]: \d+\.\d{3} s\n){2}", err)
    # stdout and the result file are what the untimed results give
    results = acceptance.run_all(acceptance.DEFAULT_SEED)
    capsys.readouterr()
    assert out == "".join(r.line() + "\n" for r in results)
    acceptance.write_report(results, acceptance.DEFAULT_SEED, tmp_path / "direct.json")
    assert ((tmp_path / "cli" / "selftest_results.json").read_bytes()
            == (tmp_path / "direct.json").read_bytes())


def test_read_function_round_trip(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"offset": -2, "values": ["1.5", 2, 0.25]}))
    f = read_function_file(str(path))
    assert f.offset == -2 and f.values.tolist() == [1.5, 2.0, 0.25]


def test_read_set_skips_comments(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("# header\n0\n\n1\n")
    lattice = read_set_file(str(path))
    assert lattice.size == 2


def test_mpmath_not_a_runtime_dependency():
    # mpmath is only a test oracle: importing the CLI must not load it
    src = Path(energylab.__file__).resolve().parent
    probe = "import sys, energylab.cli; print('mpmath' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          cwd=src.parent, timeout=120, check=True)
    assert done.stdout.strip() == "False"
    assert not [p.name for p in src.glob("*.py") if "mpmath" in p.read_text()]
