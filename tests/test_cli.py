import hashlib
import itertools
import json
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import energylab
from energylab import acceptance, certificates, cli, discrete_core, experiments, optimizer
from energylab.cli import (build_parser, main, parse_inline_set, read_function_file,
                           read_set_file)
from energylab.discrete_core import energy_of_set


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def strict_json(text):
    """json.loads that refuses the NaN, Infinity and -Infinity tokens, which
    are not JSON, so a command that prints one fails its test."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_strict_json_refuses_non_finite_tokens():
    assert strict_json('{"a": 1.5e308}') == {"a": 1.5e308}
    for token in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ValueError, match=f"{token} is not JSON"):
            strict_json(f'{{"a": {token}}}')


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

    def test_empty_point_is_another_dimension(self, capsys):
        code, out, err = run(capsys, "energy", "--inline", "0,1; , ;2,3")
        assert (code, out) == (2, "")
        assert err == "error: inline set: inconsistent point dimensions [0, 2]\n"

    def test_set_file_without_points(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n\n")
        code, out, err = run(capsys, "energy", "--set", str(path))
        assert (code, out, err) == (2, "", f"error: {path}: no points given\n")

    @pytest.mark.parametrize("form", ["interval", "points", "tensor-file"])
    def test_plain_input_skips_token_path(self, capsys, monkeypatch, tmp_path, form):
        # plain decimal rows are converted in one call: neither per-token
        # helper runs, and the energy is the closed form or E(base)^6
        if form == "interval":
            argv = ["--inline", ",".join(map(str, range(8030)))]
            want = discrete_core.energy_interval_formula(8030)
        elif form == "points":
            argv = ["--inline", "0,0;1,1;2,0"]
            want = discrete_core.energy_bruteforce(
                discrete_core.LatticeSet(2, 3, [(0, 0), (1, 1), (2, 0)]))
        else:
            base = (0, 5, 12)
            path = tmp_path / "tensor.txt"
            path.write_text("\n".join(",".join(map(str, p))
                                      for p in itertools.product(base, repeat=6)))
            argv = ["--set", str(path)]
            want = discrete_core.energy_bruteforce(
                discrete_core.LatticeSet.from_values(base)) ** 6

        def refuse(*args):
            raise AssertionError("per-token path taken")
        monkeypatch.setattr(cli, "_parse_int_list", refuse)
        monkeypatch.setattr(discrete_core, "_int_array", refuse)
        assert run(capsys, "energy", *argv) == (0, f"{want}\n", "")

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
        assert strict_json(out)["ratio"] > 1

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
        doc = strict_json(out)
        assert code == 0
        assert abs(doc["ratio"] - 6 ** 0.25 / 2 ** (1 / 1.5)) <= doc["err"]

    def test_huge_values_above_cap(self, capsys, tmp_path):
        # 3000 values of 1e200 take the float64 path; their squares overflow
        # float64 unless the path prescales by a power of two
        huge, unit = tmp_path / "huge.json", tmp_path / "unit.json"
        huge.write_text(json.dumps({"offset": 0, "values": [1e200] * 3000}))
        unit.write_text(json.dumps({"offset": 0, "values": [1.0] * 3000}))
        code, out, _ = run(capsys, "norms", "--f", str(huge), "--q", "1.5", "--format", "json")
        doc = strict_json(out)
        assert code == 1 and doc["l4hat"] > 1e200 and doc["err"] < 1e-11
        base = strict_json(run(capsys, "norms", "--f", str(unit), "--q", "1.5",
                              "--format", "json")[1])
        assert abs(doc["ratio"] - base["ratio"]) <= (doc["err"] + base["err"]) * base["ratio"]

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, capsys, tmp_path, bad):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"offset": 0, "values": [1.0, bad, 2.0]}))
        code, out, err = run(capsys, "norms", "--f", str(path), "--q", "1.5",
                             "--format", "json")
        assert code == 2 and out == "" and "finite" in err

    @pytest.mark.parametrize("doc", [
        {"offset": 0, "values": "123"}, {"offset": 0, "values": {"1": 2}},
        {"offset": 0, "values": True}, {"offset": 0, "values": 1.5},
        {"offset": 0, "values": [1.0, True]}, {"offset": 0, "values": [1.0, None]},
        {"offset": 0, "values": [1.0, [2.0]]}, {"offset": 0, "values": [{"v": 1.0}]}],
        ids=["string", "object", "true", "number", "true-value", "null-value", "list-value",
             "object-value"])
    def test_values_not_an_array_of_numbers(self, capsys, tmp_path, doc):
        # neither a string such as "123" nor an object may be iterated into values,
        # and true is no number
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "norms", "--f", str(path), "--q", "1.5")
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: 'values' must be an array of numbers "
                       "or numeric strings\n")

    def test_value_string_not_a_number(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"offset": 0, "values": ["1.0", "one"]}))
        code, out, err = run(capsys, "norms", "--f", str(path), "--q", "1.5")
        assert (code, out) == (2, "") and err.startswith(f"error: {path}: 'values': ")

    @pytest.mark.parametrize("offset", [1.7, -1.9, 0.5, "3", True, None])
    def test_non_integral_offset(self, capsys, tmp_path, offset):
        # an offset is read as the integer it equals, never truncated
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"offset": offset, "values": [1.0, 2.0]}))
        code, out, err = run(capsys, "norms", "--f", str(path), "--q", "1.5")
        assert (code, out) == (2, "")
        assert err == f"error: {path}: offset {offset!r} is not an integer\n"

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
        doc = strict_json(out)
        assert doc["valid"] is True
        assert doc["kind"] == "perturbation"
        assert doc["n"] == 3

    def test_gaussian_invalid_exit(self, capsys):
        code, out, _ = run(capsys, "certify", "gaussian", "--n", "5", "--eps", "0.5")
        assert code == 1
        assert strict_json(out)["valid"] is False

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


# SHA-256 of stdout; every certificate, norm report and estimate must stay
# byte-identical.  "norms" reads a seeded signed file, of 256 values or of
# the length given after --f.  The support-3941 certificate and the
# 4096-value norms were recorded before the norm sums left math.fsum; the
# other four when supports up to 2048 moved from an exact ||f^||_4^4 to the
# FFT, which changed their err alone; the support-28591 certificate, whose
# values the numpy repr kernel writes, while they were still written by
# float.__repr__.  All seven were re-taken when the certified ||f^||_4^4
# became a Parseval sum over one forward FFT, which moved only the digits
# derived from it (lhs, margin and err; l4hat, ratio and err).  The estimate
# was re-taken again when the optimizer's own energy and gradient became a
# Parseval sum: q_hat and t_hat stayed, the witness values moved in their
# last digits, and lhs, rhs, margin and err with them.
GOLDEN_STDOUT = {
    "certify perturbation --n 300":
        "1bbae6b5101b951855ea9f5fc962fa65803252bd552d27a1070caca83efcafa8",
    "certify gaussian --n 401 --eps 0.5":
        "46848e51e417add058149dc4588e0da332ea98000a23fdb01631a52a3fd8825d",
    "certify gaussian --n 4097 --eps 0.5":
        "df5f59f0a12f06c971a132b906926ea6ce42f6bcda8da230ed3174b28f69d0f2",
    "norms --f 4096 --q 1.3333333333333333 --format json":
        "5b0d025b9c2376a5f8acff385f6b05df23f6ce26fada45b00c0a253d8fea04cf",
    "norms --q 1.3333333333333333 --format json":
        "5f6e76231964211a25812ff43632825b6ba398bc5bea70fdb6e47ac17f0a787b",
    "estimate --n 8 --seed 0":
        "b33c066ca1894d2c41d999f625aa48bc8104166ea5e2a4b2900056611708c9b1",
    "certify gaussian --n 30001 --eps 0.5":
        "b2a99e1a2ac1d4c544571f492a1b5d521b0640412136d24d2e751909e5e09de6",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_golden_stdout(capsys, tmp_path, command):
    argv = command.split()
    if argv[0] == "norms":
        if "--f" not in argv:
            argv[1:1] = ["--f", "256"]
        at = argv.index("--f") + 1
        size = int(argv[at])
        path = tmp_path / f"signed{size}.json"
        values = np.random.default_rng(0).standard_normal(size).tolist()
        path.write_text(json.dumps({"offset": 0, "values": values}))
        argv[at] = str(path)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]
    if argv[0] == "certify":  # it reads back, its verdict the one its numbers give
        cert = certificates.certificate_from_dict(json.loads(out))
        assert certificates.revalidate_certificate(cert) == cert
        assert certificates.certificate_json(cert) + "\n" == out


def test_certified_norms_never_use_integer_kernel(capsys, monkeypatch):
    # every norm behind a ratio or certificate is the FFT one, even on
    # integer-valued input, which only fourier_l4_pow4 sums exactly
    def refuse(values):
        raise AssertionError("integer pow4 kernel reached")

    monkeypatch.setattr(discrete_core, "_pow4_int", refuse)
    rep = discrete_core.ratio_report(discrete_core.DiscreteFunction(0, (2.0, -1.0, 3.0)), 1.5)
    assert rep.ratio > 0
    code, out, _ = run(capsys, "certify", "gaussian", "--n", "401", "--eps", "0.5")
    assert code == 0 and strict_json(out)["valid"] is True


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


class TestReuseFreedPages:
    """cli._reuse_freed_pages: glibc keeps freed arrays below 4 MiB for the
    next call, and nothing else changes."""

    COMMANDS = [("energy", "--inline", "0,1,3,7"), ("ball", "--d", "2", "--radius", "2.5"),
                ("ball", "--d", "1", "--radius", "inf")]

    @pytest.fixture(autouse=True)
    def fresh_policy(self):
        cli._reuse_freed_pages.cache_clear()
        yield
        cli._reuse_freed_pages.cache_clear()

    @staticmethod
    def stub_libc(monkeypatch, libc=None, error=None, version="glibc 2.36"):
        """Give cli a CDLL that returns libc or raises error, and a confstr
        that reports version; returns the list of CDLL arguments."""
        opened = []

        def cdll(name):
            opened.append(name)
            if error is not None:
                raise error
            return libc

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        monkeypatch.setattr(cli.os, "confstr", lambda name: version)
        cli._reuse_freed_pages.cache_clear()
        return opened

    def outputs(self, capsys):
        return [run(capsys, *argv)[:2] for argv in self.COMMANDS]

    def test_two_calls_apply_it_once(self, capsys, monkeypatch):
        calls = []

        class Libc:
            @staticmethod
            def mallopt(param, value):
                calls.append((param, value))
                return 1

        opened = self.stub_libc(monkeypatch, Libc)
        for _ in range(2):
            assert run(capsys, "energy", "--inline", "0,1,3")[:2] == (0, "15\n")
        assert opened == [None]
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]
        assert cli._reuse_freed_pages() is True

    @pytest.mark.parametrize("case", ["no-libc", "no-mallopt", "mallopt-refuses", "not-glibc"])
    def test_declined_policy_changes_nothing(self, capsys, monkeypatch, case):
        expected = self.outputs(capsys)

        class Refusing:
            @staticmethod
            def mallopt(param, value):
                return 0

        stub = {"no-libc": dict(error=OSError("no libc")),
                "no-mallopt": dict(libc=object()),
                "mallopt-refuses": dict(libc=Refusing),
                "not-glibc": dict(libc=Refusing, version=None)}[case]
        opened = self.stub_libc(monkeypatch, **stub)
        assert self.outputs(capsys) == expected
        assert cli._reuse_freed_pages() is False
        assert opened == ([] if case == "not-glibc" else [None])

    def test_library_never_applies_it(self):
        # only cli.main asks the allocator: the library's kernels leave it be
        src = Path(energylab.__file__).resolve().parent.parent
        probe = ("import ctypes\n"
                 "opened = []\n"
                 "real = ctypes.CDLL\n"
                 "def recording(name, *args, **kwargs):\n"
                 "    opened.append(name)\n"
                 "    return real(name, *args, **kwargs)\n"
                 "ctypes.CDLL = recording\n"
                 "import sys, energylab\n"
                 "energylab.energy_of_set(energylab.LatticeSet.from_values(range(0, 3000, 7)))\n"
                 "energylab.build_gaussian_certificate("
                 "energylab.GaussianScheduleParams.from_n_eps(30001, 0.5))\n"
                 "print(opened, 'energylab.cli' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              cwd=src, timeout=300, check=True)
        assert done.stdout.split() == ["[]", "False"]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
    def test_warm_call_faults_no_pages_back_in(self):
        # without the policy the third call faults in about 980 pages that
        # glibc gave back to the kernel after the second
        src = Path(energylab.__file__).resolve().parent.parent
        probe = ("import contextlib, io, resource\n"
                 "from energylab.cli import main\n"
                 "argv = ['ball', '--d', '3', '--radius', '10.5', '--center', '0.3,0.7,0.2']\n"
                 "for _ in range(3):\n"
                 "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                 "    with contextlib.redirect_stdout(io.StringIO()):\n"
                 "        assert main(argv) == 0\n"
                 "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              cwd=src, timeout=300, check=True)
        assert int(done.stdout) < 64

    def test_outputs_independent_of_policy(self):
        src = Path(energylab.__file__).resolve().parent.parent
        probe = ("import contextlib, io, json, sys\n"
                 "from energylab import cli\n"
                 "if sys.argv[1] == 'off':\n"
                 "    cli._reuse_freed_pages = lambda: False\n"
                 "outs = []\n"
                 "for argv in json.loads(sys.argv[2]):\n"
                 "    with contextlib.redirect_stdout(io.StringIO()) as out, "
                 "contextlib.redirect_stderr(io.StringIO()):\n"
                 "        outs.append([cli.main(argv), out.getvalue()])\n"
                 "print(json.dumps(outs))")
        commands = json.dumps([
            ["certify", "gaussian", "--n", "30001", "--eps", "0.5"],
            ["estimate", "--n", "8", "--seed", "0"],
            ["ball", "--d", "3", "--radius", "10.5", "--center", "0.3,0.7,0.2"]])
        on, off = (subprocess.run([sys.executable, "-c", probe, mode, commands],
                                  capture_output=True, text=True, cwd=src, timeout=300,
                                  check=True).stdout for mode in ("on", "off"))
        assert on == off
        assert [code for code, _ in json.loads(on)] == [0, 0, 0]


class TestBallCommand:
    def test_unit_cross(self, capsys):
        code, out, _ = run(capsys, "ball", "--d", "2", "--radius", "1", "--center", "0,0")
        assert code == 0
        doc = strict_json(out)
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
        assert [r["set_size"] for r in strict_json(out)["rows"]] == [5]

    @pytest.mark.parametrize("d, radius, center, size, energy", [
        pytest.param("1", "1", "9007199254740992", 3, 19, id="9007199254740992"),
        pytest.param("1", "1", "9.2e18", 3, 19, id="9.2e18"),
        pytest.param("2", "2.5", "1e19,0", 21, 4381, id="1e19,0"),  # past int64
    ])
    def test_center_past_2_53_counts_every_point(self, capsys, d, radius, center, size,
                                                 energy):
        code, out, _ = run(capsys, "ball", "--d", d, "--radius", radius, "--center", center)
        row, = strict_json(out)["rows"]
        assert code == 0 and (row["set_size"], row["energy"]) == (size, energy)

    def test_small_negative_center_keeps_its_boundary(self, capsys):
        # the lattice point 0 lies just outside this radius of -0.1
        code, out, _ = run(capsys, "ball", "--d", "1", "--radius", "0.09999999999999998",
                           "--center", "-0.1")
        assert code == 0 and strict_json(out)["rows"] == []

    def test_both_centers_by_default(self, capsys):
        code, out, _ = run(capsys, "ball", "--d", "2", "--radius", "1.5")
        assert code == 0
        assert len(strict_json(out)["rows"]) == 2


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
        assert code == 0 and strict_json(out)["kind"] == "bounds"
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

    @pytest.mark.parametrize("eps", ["nan", "5", "0", "inf"])
    @pytest.mark.parametrize("n_max", ["2", "3"])
    def test_eps_checked_without_certificates(self, capsys, eps, n_max):
        # at n = 2 no certificate checks eps, yet the row reports a conjecture
        # target at eps (NaN for --eps nan, which is not JSON)
        code, out, err = run(capsys, "bounds-table", "--n-min", "2", "--n-max", n_max,
                             "--eps", eps, "--format", "json")
        assert (code, out) == (2, "")
        assert err == f"error: eps must lie in (0, 1], got {float(eps)}\n"


class TestEstimateCommand:
    def test_n2(self, capsys):
        code, out, _ = run(capsys, "estimate", "--n", "2", "--seed", "7")
        assert code == 0
        doc = strict_json(out)
        assert 1.546 <= doc["q_hat"] <= 1.549
        assert doc["witness"]["valid"] is True

    def test_probe_trace_on_stderr_only(self, capsys):
        code, out, err = run(capsys, "estimate", "--n", "3", "--seed", "7", "--starts", "6")
        assert code == 0
        assert sorted(strict_json(out)) == ["empirical_c", "n", "q_hat", "t_hat", "witness"]
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
    ("ball", "--d", "1", "--radius", "1e308", "--center", "1e308"),
    ("estimate", "--n", "2", "--tol", "nan"),
    ("estimate", "--n", "2", "--tol", "inf"),
    ("estimate", "--n", "1"),
    ("norms", "--f", "{f}", "--q", "0.5"),
    ("norms", "--f", "{f}", "--q", "600"),
    ("norms", "--f", "{f}", "--q", "nan"),
], ids=["eps-inf", "eps-1e400", "eps-nan", "radius-inf", "center-inf", "box-inf", "tol-nan",
        "tol-inf", "n-1", "q-0.5", "q-600", "q-nan"])
def test_bad_input_exits_2(capsys, tmp_path, argv):
    f = tmp_path / "f.json"
    f.write_text('{"offset": 0, "values": [1.0, 2.0]}')
    code, out, err = run(capsys, *(a.format(f=f) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (("energy", "--set", "{absent}"), "cannot read set file {absent}: "),
    (("norms", "--f", "{absent}", "--q", "1.5"), "cannot read function file {absent}: "),
    (("norms", "--f", "{list}", "--q", "1.5"),
     "{list}: expected an object with 'offset' and 'values'"),
    (("norms", "--f", "{no_values}", "--q", "1.5"),
     "{no_values}: expected an object with 'offset' and 'values'"),
    (("ball", "--d", "2", "--radius", "1", "--center", "1,x"),
     "--center: could not convert string to float: 'x'"),
], ids=["set-absent", "function-absent", "function-list", "function-no-values", "center-x"])
def test_input_errors_exit_2(capsys, tmp_path, argv, message):
    paths = {"absent": tmp_path / "absent", "list": tmp_path / "list.json",
             "no_values": tmp_path / "no_values.json"}
    paths["list"].write_text("[0, [1.0]]")
    paths["no_values"].write_text('{"offset": 0}')
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message.format(**paths))


@pytest.mark.parametrize("argv", [
    ("certify", "perturbation", "--n", str(certificates.SUPPORT_CAP + 1)),
    ("certify", "gaussian", "--n", "9056697", "--eps", "0.5"),
    ("bounds-table", "--n-min", str(certificates.SUPPORT_CAP + 1),
     "--n-max", str(certificates.SUPPORT_CAP + 1)),
], ids=["perturbation", "gaussian", "bounds-table"])
def test_support_cap_exits_2_before_building(capsys, argv):
    # Gaussian supports are odd: M = 2^22 + 1 at n = 9056697 is the first
    # past the cap, and n - 2 reaches it exactly.  Refusing takes well under
    # the 64 MiB that 2^23 + 2 float64 values would.
    params = certificates.GaussianScheduleParams.from_n_eps
    assert 2 * params(9056697, 0.5).m_trunc + 1 == certificates.SUPPORT_CAP + 2
    assert 2 * params(9056695, 0.5).m_trunc + 1 == certificates.SUPPORT_CAP
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: support 838861[01] exceeds support cap 8388609\n", err)
    assert peak < 1 << 20


@pytest.mark.parametrize("argv, batch", [
    (("estimate", "--n", "600000"), 9600000),
    (("estimate", "--n", "8", "--starts", "2000000"), 16000000),
], ids=["n", "starts"])
def test_optimizer_batch_cap_exits_2_before_building(capsys, monkeypatch, argv, batch):
    # the (starts x n) batch is refused before any start row is drawn
    def no_rows(config):
        raise AssertionError("start rows drawn")

    monkeypatch.setattr(optimizer, "_initial_rows", no_rows)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: starts x n = {batch} exceeds support cap 8388609\n"


def test_selftest_times_only_on_stderr(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(acceptance, "CRITERIA", acceptance.CRITERIA[:2])
    code, out, err = run(capsys, "selftest", "--out", str(tmp_path / "cli"))
    assert code == 0
    assert re.fullmatch(r"(criterion  [12]: \d+\.\d{3} s\n){2}", err)
    # stdout and the result file are what the untimed results give
    results = acceptance.run_all(acceptance.DEFAULT_SEED)
    capsys.readouterr()
    assert out == "".join(r.line() + "\n" for r in results)
    direct = acceptance.report_document(results, acceptance.DEFAULT_SEED) + "\n"
    assert (tmp_path / "cli" / "selftest_results.json").read_bytes() == direct.encode()


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


def test_read_set_comments_take_the_one_call_path(tmp_path, monkeypatch):
    # blank and # lines are dropped before the one-call check, so a commented
    # file never reaches the per-token path
    base = discrete_core.LatticeSet.from_values([0, 5, 12])
    points = discrete_core.tensor_power(base, 3).points.tolist()
    path = tmp_path / "pts.txt"
    path.write_text("# {0, 5, 12}^3\n" + "\n".join(",".join(map(str, p)) for p in points) + "\n\n")

    def refuse(*args):
        raise AssertionError("per-token path reached")

    monkeypatch.setattr(cli, "_token_points", refuse)
    assert energy_of_set(read_set_file(str(path))) == energy_of_set(base) ** 3


def test_mpmath_not_a_runtime_dependency():
    # mpmath is only a test oracle, and scipy and sympy are no dependency at
    # all: importing the CLI must not load them, and no module names them
    src = Path(energylab.__file__).resolve().parent
    banned = ("mpmath", "scipy", "sympy")
    probe = f"import sys, energylab.cli; print([m for m in {banned} if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          cwd=src.parent, timeout=120, check=True)
    assert done.stdout.strip() == "[]"
    assert not [(p.name, m) for p in src.glob("*.py") for m in banned if m in p.read_text()]


def test_transforms_written_once():
    # the spectral kernel lives in discrete_core: continuum names no FFT, and
    # no other module takes a forward transform of its own
    src = Path(energylab.__file__).resolve().parent
    texts = {p.name: p.read_text() for p in src.glob("*.py")}
    assert "np.fft" not in texts["continuum.py"]
    assert [name for name, text in texts.items() if "np.fft.rfft" in text] == ["discrete_core.py"]
