import dataclasses
import json
import math

import pytest

from energylab import experiments
from energylab.discrete_core import CapExceededError, energy_bruteforce, energy_of_set
from energylab.experiments import (BALL_CSV_COLUMNS, BOUNDS_CSV_COLUMNS,
                                   ball_energy_experiment, ball_lattice_set, bounds_row,
                                   bounds_table, write_manifest, write_results)


class TestBoundsTable:
    def test_n2_reference_equality(self):
        row = bounds_row(2)
        assert row.trivial_lower == pytest.approx(math.log2(6), rel=1e-14)
        assert row.reference == pytest.approx(row.trivial_lower, rel=1e-14)
        assert not row.perturbation_strict

    def test_n3_row(self):
        row = bounds_row(3)
        assert row.perturbation_lower == pytest.approx(math.log(19) / math.log(3), abs=1e-12)
        assert row.perturbation_strict
        assert row.reference is None  # no published value is tabulated for n = 3
        assert row.gaussian_lower is not None  # schedule validates at n = 3

    def test_n10_targets(self):
        row = bounds_row(10)
        assert row.trivial_lower == pytest.approx(math.log10(670), rel=1e-13)
        base = 3 * math.sqrt(3) / 4
        assert row.asymptotic_target == pytest.approx(3 - math.log10(base), rel=1e-13)
        assert row.conjecture_target == pytest.approx(3 - 0.5 * math.log10(base), rel=1e-13)

    def test_gaussian_column_follows_validity(self):
        assert bounds_row(5).gaussian_lower is None
        assert bounds_row(9).gaussian_lower is not None

    def test_bounds_invariants(self):
        rows = bounds_table(range(2, 40))
        for row in rows:
            assert row.trivial_lower <= row.perturbation_lower + 1e-12 < 3
            if row.gaussian_lower is not None:
                assert row.gaussian_lower <= 3
        targets = [r.asymptotic_target for r in rows]
        assert all(a < b for a, b in zip(targets, targets[1:]))
        assert all(t < 3 for t in targets)

    def test_trivial_equals_perturbation_value(self):
        for n in (3, 17, 42):
            row = bounds_row(n)
            assert row.perturbation_lower == pytest.approx(row.trivial_lower, abs=1e-12)
            assert row.perturbation_strict

    def test_with_optimizer_column(self):
        row = bounds_row(2, with_optimizer=True, seed=7)
        assert row.empirical_t is not None
        assert row.empirical_t == pytest.approx(math.log2(6), abs=5e-3)

    def test_certificate_errors_propagate(self, monkeypatch):
        def broken(n, eps=None):
            raise RuntimeError("perturbation certificate failed")

        monkeypatch.setattr(experiments, "build_perturbation_certificate", broken)
        with pytest.raises(RuntimeError, match="perturbation certificate failed"):
            bounds_row(5)


class TestBallSets:
    def test_1d_interval(self):
        ball = ball_lattice_set(1, 1.5, (0.0,))
        assert ball.points.tolist() == [[0], [1], [2]]
        assert energy_of_set(ball) == 19

    def test_2d_unit_cross(self):
        ball = ball_lattice_set(2, 1.0, (0.0, 0.0))
        assert ball.size == 5

    def test_2d_radius_25(self):
        ball = ball_lattice_set(2, 2.5, (0.0, 0.0))
        assert ball.size == 21
        assert energy_of_set(ball) == energy_bruteforce(ball)

    def test_half_integer_center(self):
        ball = ball_lattice_set(2, 1.0, (0.5, 0.5))
        assert ball.size == 4  # the four corners around the center

    def test_coordinates_normalized(self):
        ball = ball_lattice_set(3, 2.0, (10.0, -4.0, 0.5))
        assert all(0 <= c < ball.side for p in ball.points for c in p)

    def test_point_cap(self):
        with pytest.raises(CapExceededError):
            ball_lattice_set(2, 300.0, (0.0, 0.0), point_cap=1000)

    def test_side_cap(self):
        with pytest.raises(CapExceededError):
            ball_lattice_set(1, 1e7, (0.0,))


class TestBallExperiment:
    def test_rows_and_bounds(self):
        rows = ball_energy_experiment([1, 2], [1.5, 2.5])
        assert len(rows) == 8  # two centers per (d, radius)
        for row in rows:
            assert row.set_size ** 2 <= row.energy <= row.set_size ** 3
            assert row.reference_ratio == pytest.approx((4 * math.sqrt(3) / 9) ** row.d, rel=1e-13)

    def test_1d_ratio_tends_to_two_thirds(self):
        rows = ball_energy_experiment([1], [200.5], center=(0.0,))
        assert rows[0].energy_ratio == pytest.approx(2 / 3, abs=1e-4)


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        rows = bounds_table([2, 3])
        path = tmp_path / "bounds.json"
        write_results(rows, path, format="json")
        with open(path) as fh:
            doc = json.load(fh)
        assert doc == {"kind": "bounds", "rows": [dataclasses.asdict(r) for r in rows]}

    def test_ball_round_trip(self, tmp_path):
        rows = ball_energy_experiment([2], [1.5])
        path = tmp_path / "ball.json"
        write_results(rows, path, format="json")
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["kind"] == "ball"
        # JSON has no tuples: the center comes back as a list
        back = [{**d, "center": tuple(d["center"])} for d in doc["rows"]]
        assert back == [dataclasses.asdict(r) for r in rows]

    def test_csv_golden(self, tmp_path):
        rows = bounds_table([2, 3])
        path = tmp_path / "bounds.csv"
        write_results(rows, path, format="csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "n,trivial_lower,perturbation_lower,gaussian_lower,asymptotic_target,empirical_t,reference"
        assert lines[1] == "2,2.58496250072,2.58496250072,,2.62255624892,,2.58496250072"
        assert lines[2] == "3,2.68014385925,2.68014385925,2.64278926071,2.76185950714,,"
        assert len(lines) == 3

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_results([], path, format="csv", kind="ball")
        assert path.read_text().splitlines() == [",".join(BALL_CSV_COLUMNS)]
        jpath = tmp_path / "empty.json"
        write_results([], jpath, format="json", kind="bounds")
        assert json.loads(jpath.read_text()) == {"kind": "bounds", "rows": []}

    def test_csv_columns_complete(self):
        assert BOUNDS_CSV_COLUMNS == ("n", "trivial_lower", "perturbation_lower",
                                      "gaussian_lower", "asymptotic_target",
                                      "empirical_t", "reference")

    def test_bad_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_results([], tmp_path / "x", format="xml")


class TestManifest:
    def test_fields(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest({"command": "bounds-table", "n_min": 2}, seed=7,
                       tool_version="0.1.0", path=path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"tool_version", "seed", "config"}
        assert doc["seed"] == 7 and doc["config"]["n_min"] == 2

    def test_source_date_epoch(self, tmp_path, monkeypatch):
        # no timestamp: two writes with no environment set are identical,
        # and SOURCE_DATE_EPOCH changes nothing
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
        write_manifest({}, 1, "0.1.0", a)
        write_manifest({}, 1, "0.1.0", b)
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        write_manifest({}, 1, "0.1.0", c)
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()
