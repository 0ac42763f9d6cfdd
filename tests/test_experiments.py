import dataclasses
import json
import math

import numpy as np
import pytest

from energylab import experiments
from energylab.discrete_core import (CapExceededError, _translated_set, energy_bruteforce,
                                     energy_of_set)
from energylab.experiments import (BALL_CSV_COLUMNS, BOUNDS_CSV_COLUMNS,
                                   ball_energy_experiment, ball_lattice_set, bounds_row,
                                   bounds_table, manifest_document, results_document)


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
        # perturbation_lower = 4/q with q = 4 ln n / ln E(I) is trivial_lower
        # up to rounding, and every bound is 3 less a positive term
        rows = bounds_table([*range(2, 301), 1000, 4097, 10 ** 4, 10 ** 5 + 1, 2 ** 20 + 1])
        for row in rows:
            assert abs(row.perturbation_lower - row.trivial_lower) <= 1e-12
            bounds = (row.trivial_lower, row.perturbation_lower, row.gaussian_lower)
            assert max(b for b in bounds if b is not None) < 3
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

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("eps", [math.nan, 5.0, 0.0, -0.5, math.inf])
    def test_eps_checked_at_every_n(self, n, eps):
        # n = 2 builds no certificate, but its row still reports a target at eps
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\], got"):
            bounds_row(n, eps=eps)

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

    def test_points_arrive_in_colex_order(self, monkeypatch):
        # the set receives its points already sorted (the last coordinate most
        # significant), and they are those of the full grid summed axis by axis
        center, radius = (0.37, 0.81, 0.12), 4.5
        given = []

        def recording(points):
            given.append((points - points.min(axis=0)).tolist())
            return _translated_set(points)
        monkeypatch.setattr(experiments, "_translated_set", recording)
        ball = ball_lattice_set(3, radius, center)
        colex = [p[::-1] for p in given[0]]
        assert colex == sorted(colex) and len(set(map(tuple, colex))) == len(colex)
        sq = np.zeros(())
        for c in center:
            coords = np.arange(math.ceil(c - radius), math.floor(c + radius) + 1)
            sq = sq[..., None] + (coords.astype(np.float64) - c) ** 2
        inside = np.argwhere(sq <= radius * radius)
        inside -= inside.min(axis=0)
        assert sorted(p[::-1] for p in inside.tolist()) == colex
        assert ball.points.tolist() == given[0]

    def test_coordinates_normalized(self):
        ball = ball_lattice_set(3, 2.0, (10.0, -4.0, 0.5))
        assert all(0 <= c < ball.side for p in ball.points for c in p)

    def test_point_cap(self, monkeypatch):
        monkeypatch.setattr(experiments, "POINT_CAP", 1000)
        with pytest.raises(CapExceededError, match="exceed"):
            ball_lattice_set(2, 300.0, (0.0, 0.0))
        with pytest.raises(CapExceededError, match="points exceed cap 1000"):
            ball_energy_experiment([2], [18.0], center=(0.0, 0.0))  # 1009 points
        assert ball_lattice_set(2, 17.5, (0.0, 0.0)).size == 973

    def test_side_cap(self, monkeypatch):
        with pytest.raises(CapExceededError):
            ball_lattice_set(1, 1e7, (0.0,))
        monkeypatch.setattr(experiments, "BALL_SIDE_CAP", 10)
        with pytest.raises(CapExceededError, match="bounding side 11 exceeds cap 10"):
            ball_lattice_set(2, 5.0, (0.0, 0.0))
        assert ball_lattice_set(2, 4.5, (0.0, 0.0)).side == 9

    @pytest.mark.parametrize("d, radius, center", [
        (1, 1e300, (0.0,)),
        (1, 1e308, (1e308,)),  # c + radius rounds to inf in float
        (1, 1e308, (-1e308,)),
    ])
    def test_box_past_int64_refused_before_any_array(self, monkeypatch, d, radius, center):
        # only a radius past BALL_SIDE_CAP takes the box past int64; the side
        # has over 300 digits, so the message gives their count
        def no_arrays(*args, **kwargs):
            raise AssertionError("array built")

        monkeypatch.setattr(experiments.np, "arange", no_arrays)
        monkeypatch.setattr(experiments.np, "zeros", no_arrays)
        with pytest.raises(CapExceededError,
                           match=r"^bounding side of 30[19] digits exceeds cap 4096$"):
            ball_lattice_set(d, radius, center)

    @pytest.mark.parametrize("base", [2.0 ** 53, 2.0 ** 60, 9.2e18, 1e19, 2.0 ** 63,
                                      -2.0 ** 53, -9.2e18, -2.0 ** 63 - 2048])
    @pytest.mark.parametrize("d, radius", [(1, 1.0), (2, 2.5), (3, 1.5)])
    def test_integer_center_far_out_translates(self, base, d, radius):
        # each axis counts integer offsets from trunc(c), so a centre whose
        # neighbours are no longer floats, or lie past int64, keeps every
        # point of the ball
        near = ball_lattice_set(d, radius, (0.0,) * d)
        far = ball_lattice_set(d, radius, (base,) + (0.0,) * (d - 1))
        assert far.side == near.side and far.points.tolist() == near.points.tolist()

    @pytest.mark.parametrize("c", [-0.1, -0.3, -0.49, -0.7, 0.1, 0.45, -1.1, -2.6, 3.3])
    def test_boundary_points_match_direct_difference(self, c):
        # below 2^53 the offsets must keep the points of float coordinates,
        # where fl(x - c) is one rounding of the exact difference: at radii
        # one ulp either side of each distance, both give the same points
        # (-0.1 at 0.09999999999999998 is empty: 0 lies just outside)
        assert ball_lattice_set(1, 0.09999999999999998, (-0.1,)).size == 0
        for k in range(math.floor(c) - 2, math.ceil(c) + 3):
            dist = abs(k - c)
            for radius in (math.nextafter(dist, 0), dist, math.nextafter(dist, math.inf)):
                box = range(math.ceil(c - radius), math.floor(c + radius) + 1)
                want = [x for x in box if (x - c) ** 2 <= radius * radius]
                got = ball_lattice_set(1, radius, (c,)).points[:, 0].tolist()
                assert got == [x - want[0] for x in want]

    def test_box_at_int64_ends(self):
        # the lowest int64 and the last float below 2^63 are ordinary centres
        assert ball_lattice_set(1, 0.5, (-2.0 ** 63,)).points.tolist() == [[0]]
        assert ball_lattice_set(1, 0.5, (2.0 ** 63 - 1024,)).size == 1


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
    def test_json_round_trip(self):
        rows = bounds_table([2, 3])
        doc = json.loads(results_document(rows, "bounds", "json"))
        assert doc == {"kind": "bounds", "rows": [dataclasses.asdict(r) for r in rows]}

    def test_ball_round_trip(self):
        rows = ball_energy_experiment([2], [1.5])
        doc = json.loads(results_document(rows, "ball", "json"))
        assert doc["kind"] == "ball"
        # JSON has no tuples: the center comes back as a list
        back = [{**d, "center": tuple(d["center"])} for d in doc["rows"]]
        assert back == [dataclasses.asdict(r) for r in rows]

    def test_csv_golden(self):
        rows = bounds_table([2, 3])
        lines = results_document(rows, "bounds", "csv").splitlines()
        assert lines[0] == "n,trivial_lower,perturbation_lower,gaussian_lower,asymptotic_target,empirical_t,reference"
        assert lines[1] == "2,2.58496250072,2.58496250072,,2.62255624892,,2.58496250072"
        assert lines[2] == "3,2.68014385925,2.68014385925,2.64278926071,2.76185950714,,"
        assert len(lines) == 3

    def test_empty_rows_header_only(self):
        assert results_document([], "ball", "csv").splitlines() == [",".join(BALL_CSV_COLUMNS)]
        assert json.loads(results_document([], "bounds", "json")) == {"kind": "bounds",
                                                                     "rows": []}

    def test_csv_columns_complete(self):
        assert BOUNDS_CSV_COLUMNS == ("n", "trivial_lower", "perturbation_lower",
                                      "gaussian_lower", "asymptotic_target",
                                      "empirical_t", "reference")

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            results_document([], "bounds", "xml")
        with pytest.raises(ValueError):
            results_document([], "table", "json")


class TestManifest:
    def test_fields(self):
        doc = json.loads(manifest_document({"command": "bounds-table", "n_min": 2}, seed=7,
                                           tool_version="0.1.0"))
        assert set(doc) == {"tool_version", "seed", "config"}
        assert doc["seed"] == 7 and doc["config"]["n_min"] == 2

    def test_source_date_epoch(self, monkeypatch):
        # no timestamp: two documents with no environment set are identical,
        # and SOURCE_DATE_EPOCH changes nothing
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        a = manifest_document({}, 1, "0.1.0")
        b = manifest_document({}, 1, "0.1.0")
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        assert a == b == manifest_document({}, 1, "0.1.0")
