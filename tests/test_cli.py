import json

import pytest

from energylab import discrete_core, experiments
from energylab.cli import main, parse_inline_set, read_function_file, read_set_file
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
        assert lattice.points == frozenset({(0,), (1,), (2,)})


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

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, capsys, tmp_path, bad):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"offset": 0, "values": [1.0, bad, 2.0]}))
        code, out, err = run(capsys, "norms", "--f", str(path), "--q", "1.5",
                             "--format", "json")
        assert code == 2 and out == "" and "finite" in err


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


class TestBoundsTableCommand:
    def test_stdout_csv(self, capsys):
        code, out, _ = run(capsys, "bounds-table", "--n-min", "2", "--n-max", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,trivial_lower")
        assert len(lines) == 3

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


def test_read_function_round_trip(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"offset": -2, "values": ["1.5", 2, 0.25]}))
    f = read_function_file(str(path))
    assert f.offset == -2 and f.values == (1.5, 2.0, 0.25)


def test_read_set_skips_comments(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("# header\n0\n\n1\n")
    lattice = read_set_file(str(path))
    assert lattice.size == 2
