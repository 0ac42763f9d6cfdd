import math
import warnings

import numpy as np
import pytest

from energylab import certificates, discrete_core, optimizer
from energylab.certificates import revalidate_certificate
from energylab.discrete_core import DiscreteFunction, ratio_report
from energylab.optimizer import (STEP_INIT, OptimizerConfig, estimate_qn, maximize_ratio,
                                 _ascend_rows, _objective_rows, _pow4_rows, _start_rows)


def _ratio(res):
    return res.certificate.lhs / res.certificate.rhs


def _pow4_convolve(x):
    """Independent oracle: sum (x*x)^2 by np.convolve."""
    c = np.convolve(x, x)
    return float(np.dot(c, c))


def _objective_convolve(x, q):
    return 0.25 * math.log(_pow4_convolve(x)) - math.log(float(np.sum(x ** q))) / q


def _finite_differences(fn, x, h):
    fd = np.empty(len(x))
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd[i] = (fn(xp) - fn(xm)) / (2 * h)
    return fd


def _one_row(kernel, x, *args):
    value, grad = kernel(x[None, :], *args)
    return value[0], grad[0]


class TestGradient:
    def test_delta(self):
        e4, g = _one_row(_pow4_rows, np.array([1.0]))
        assert e4 == 1.0 and g.tolist() == [4.0]

    def test_pair_indicator(self):
        e4, g = _one_row(_pow4_rows, np.array([1.0, 1.0]))
        assert e4 == 6.0
        assert g[0] == pytest.approx(12.0, rel=1e-13)
        assert g[1] == pytest.approx(12.0, rel=1e-13)
        # directional derivative along the indicator itself: d/dt 6t^4 = 24 at t=1
        assert g[0] + g[1] == pytest.approx(24.0, rel=1e-13)

    def test_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            x = rng.standard_normal(int(rng.integers(2, 17)))
            e4, got = _one_row(_pow4_rows, x)
            assert e4 == pytest.approx(_pow4_convolve(x), rel=1e-12)
            fd = _finite_differences(_pow4_convolve, x, 1e-5)
            assert np.max(np.abs(got - fd)) <= 1e-6 * max(np.max(np.abs(fd)), 1e-30)

    def test_objective_gradient_finite_differences(self):
        # the value and gradient the ascent steps with, on its normalized iterates
        rng = np.random.default_rng(5)
        for _ in range(30):
            x = rng.random(int(rng.integers(2, 17))) + 0.05
            x /= x.max()
            q = float(rng.uniform(4 / 3, 2))
            value, got = _one_row(_objective_rows, x, q)
            assert value == pytest.approx(_objective_convolve(x, q), abs=1e-14)
            fd = _finite_differences(lambda y: _objective_convolve(y, q), x, 1e-6)
            assert np.max(np.abs(got - fd)) <= 1e-6 * max(np.max(np.abs(fd)), 1e-30)


class TestObjective:
    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.random(int(rng.integers(2, 12))) + 0.01
            q = float(rng.uniform(4 / 3, 2))
            values, _ = _objective_rows(np.array([c * x for c in (1.0, 1e-3, 7.0, 1e4)]), q)
            assert values[1:] == pytest.approx(values[0], abs=1e-12)

    def test_zero_vector(self, monkeypatch):
        # a start with no positive or a non-finite entry never enters the
        # ascent: it is redrawn from its own stream [seed, start_id, attempt]
        n = 5
        starts = [np.zeros(n), np.array([1.0, np.nan, 0, 0, 0]), -np.ones(n), np.ones(n)]
        monkeypatch.setattr(optimizer, "_canonical_starts", lambda _: [s.copy() for s in starts])
        X0 = _start_rows(OptimizerConfig(n=n, q=1.5, starts=4, seed=9))
        for sid in range(3):
            assert np.array_equal(X0[sid], np.random.default_rng([9, sid, 1]).random(n) + 1e-6)
        assert np.array_equal(X0[3], np.ones(n))
        assert maximize_ratio(OptimizerConfig(n=n, q=1.5, starts=4, seed=9)).certificate.valid

    def test_ascent_monotone(self):
        # the ascent is deterministic, so the run capped at k iterations is the
        # full run's k-th iterate
        rng = np.random.default_rng(2)
        for _ in range(5):
            x0 = rng.random((1, 6)) + 1e-3
            _, final, iters = _ascend_rows(x0, 1.5, 300, 1e-12)
            values = [_ascend_rows(x0, 1.5, k, 1e-12)[1][0] for k in range(1, iters[0] + 1)]
            assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))
            assert values[-1] == final[0]

    @pytest.mark.parametrize("n", [2, 3, 8, 16, 33])
    def test_batch_independence(self, n):
        # each chain run alone ends where it ends inside the 16-row batch, bit for bit
        X0 = _start_rows(OptimizerConfig(n=n, q=1.45, seed=3))
        assert X0.shape == (16, n)
        X, values, iters = _ascend_rows(X0, 1.45, 5000, 1e-12)
        for sid in range(16):
            x, value, it = _ascend_rows(X0[sid:sid + 1], 1.45, 5000, 1e-12)
            assert np.array_equal(x[0], X[sid])
            assert value[0] == values[sid] and it[0] == iters[sid]

    def test_one_fft_evaluation_per_round(self, monkeypatch):
        # one row-wise rfft for the starts, then one per round; a batch runs
        # as many rounds as its longest chain makes trial steps
        calls = []
        rfft = np.fft.rfft

        def counting_rfft(a, *args, **kwargs):
            calls.append(np.shape(a))
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counting_rfft)
        X0 = np.random.default_rng(3).random((6, 8)) + 1e-3
        alone = []
        for row in X0:
            calls.clear()
            _ascend_rows(row[None, :], 1.6, 500, 1e-12)
            alone.append(len(calls))
        calls.clear()
        _ascend_rows(X0, 1.6, 500, 1e-12)
        assert len(calls) == max(alone) > 2
        assert calls[0] == (6, 8)
        assert all(len(shape) == 2 for shape in calls)

    def test_rounds_and_steps(self, monkeypatch):
        # rounds counts the evaluations after the starts'; steps are the chains'
        # final steps, and a chain's steps are its own at any batch size
        calls = []
        objective = optimizer._objective_rows

        def counting_objective(X, q):
            calls.append(len(X))
            return objective(X, q)

        monkeypatch.setattr(optimizer, "_objective_rows", counting_objective)
        X0 = np.random.default_rng(4).random((5, 7)) + 1e-3
        steps0 = np.array([0.1, 1.0, 1e-3, 0.37, 5.0])
        ascent = _ascend_rows(X0, 1.6, 500, 1e-12, steps0)
        assert ascent.rounds == len(calls) - 1 and calls[0] == 5
        assert ascent.steps.shape == (5,) and np.all(ascent.steps > 0)
        assert steps0.tolist() == [0.1, 1.0, 1e-3, 0.37, 5.0]  # not written to
        for sid in range(5):
            alone = _ascend_rows(X0[sid:sid + 1], 1.6, 500, 1e-12, steps0[sid:sid + 1])
            assert alone.steps[0] == ascent.steps[sid]
            assert np.array_equal(alone[0][0], ascent[0][sid])
            assert alone.rounds <= ascent.rounds

    def test_clipped_trial_rejected_without_warning(self, monkeypatch):
        # with the starts' gradient replaced by -1, steps 2 and 1 clip every
        # entry of the trial to 0 (top 0, a NaN row); both trials are rejected
        # and the third, at step 0.5, is evaluated at a finite row
        seen = []
        objective = optimizer._objective_rows

        def steering_objective(X, q):
            seen.append(X.copy())
            values, grad = objective(X, q)
            return (values, -np.ones_like(grad)) if len(seen) == 1 else (values, grad)

        monkeypatch.setattr(optimizer, "_objective_rows", steering_objective)
        X0 = np.random.default_rng(6).random((1, 5)) + 0.1
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            X, values, _ = _ascend_rows(X0, 1.5, 1, 1e-12, np.array([2.0]))
        assert np.all(np.isnan(seen[1])) and np.all(np.isnan(seen[2]))
        assert np.all(np.isfinite(seen[3])) and seen[3].max() == 1.0
        assert np.all(np.isfinite(X)) and np.isfinite(values[0])

    def test_overflowing_trial_rejected_without_warning(self):
        # at step 1e300 the Armijo bound step * slope overflows; the trial is
        # rejected and the step halved until a trial is accepted, which at
        # max_iters = 1 ends the chain
        X0 = np.random.default_rng(7).random((1, 6)) + 1e-3
        start_value = _objective_rows(X0 / X0.max(), 1.5)[0][0]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ascent = _ascend_rows(X0, 1.5, 1, 1e-12, np.array([1e300]))
        step = 1e300
        for _ in range(ascent.rounds - 1):
            step *= 0.5
        assert ascent.rounds > 100 and ascent.steps[0] == step * 1.3
        assert np.all(np.isfinite(ascent[0])) and ascent[1][0] >= start_value


class TestMaximize:
    def test_n1_rejected(self):
        # t_n, and so a certificate, is defined from n = 2 on
        with pytest.raises(ValueError):
            OptimizerConfig(n=1, q=1.7)

    def test_n2_at_critical_q(self):
        q2 = 4 / math.log2(6)
        res = maximize_ratio(OptimizerConfig(n=2, q=q2, seed=0))
        assert abs(_ratio(res) - 1.0) <= 1e-6
        # the full indicator attains the supremum at this q
        ind = ratio_report(DiscreteFunction.indicator([0, 1]), q2)
        assert abs(ind.ratio - 1.0) <= ind.err + 1e-15

    def test_n2_above_critical_q(self):
        res = maximize_ratio(OptimizerConfig(n=2, q=1.56, seed=0))
        # frozen from the 1-parameter oracle: max over x of
        # (1+4x^2+x^4)^(1/4) / (1+x^q)^(1/q), attained at x = 1
        assert _ratio(res) == pytest.approx(1.003621292657, abs=1e-6)
        assert res.certificate.valid

    def test_ratio_never_below_one(self):
        for q in (1.4, 1.6, 1.9):
            for n in (2, 5, 9):
                cert = maximize_ratio(OptimizerConfig(n=n, q=q, seed=3)).certificate
                assert cert.margin >= -cert.err

    def test_beats_canonical_starts(self):
        cfg = OptimizerConfig(n=6, q=1.5, seed=4)
        res = maximize_ratio(cfg)
        for start in (DiscreteFunction.indicator([0]), DiscreteFunction.indicator(range(6))):
            assert _ratio(res) >= ratio_report(start, 1.5).ratio - 1e-12

    def test_ratio_matches_ratio_report(self):
        # lhs / rhs of the certificate is ratio_report's ratio, bit for bit
        res = maximize_ratio(OptimizerConfig(n=5, q=1.5, seed=2))
        assert _ratio(res) == ratio_report(res.certificate.f, 1.5).ratio
        assert res.certificate.kind == "explicit" and res.certificate.n == 5

    def test_reproducible(self):
        cfg = OptimizerConfig(n=4, q=1.5, starts=8, max_iters=800, seed=11)
        a = maximize_ratio(cfg)
        b = maximize_ratio(cfg)
        assert a == b  # bit-for-bit, including the function values

    def test_start_rows_default(self):
        # start_rows=None means _start_rows(config); rows are the final iterates
        cfg = OptimizerConfig(n=5, q=1.5, starts=6, seed=2)
        res = maximize_ratio(cfg)
        assert maximize_ratio(cfg, _start_rows(cfg)) == res
        assert res.rows.shape == (6, 5) and not res.rows.flags.writeable
        assert res.steps.shape == (6,) and not res.steps.flags.writeable
        assert maximize_ratio(cfg, None, np.full(6, STEP_INIT)) == res
        assert np.array_equal(res.rows[res.start_id], res.certificate.f.values)
        assert np.all(res.rows.max(axis=1) == 1.0)

    @pytest.mark.parametrize("case, match", [
        ("rows", "shape"), ("columns", "shape"), ("flat", "shape"), ("nan", "nonnegative"),
        ("inf", "nonnegative"), ("negative", "nonnegative"), ("zero_row", "positive maximum")])
    def test_start_rows_rejected(self, case, match):
        cfg = OptimizerConfig(n=5, q=1.5, starts=4, seed=2)
        rows = _start_rows(cfg)

        def with_row(values):
            bad = rows.copy()
            bad[2] = values
            return bad

        bad = {"rows": rows[:3], "columns": rows[:, :4], "flat": rows.ravel(),
               "nan": with_row([1.0, np.nan, 0, 0, 0]), "inf": with_row([1.0, np.inf, 0, 0, 0]),
               "negative": with_row([1.0, -1e-300, 0, 0, 0]), "zero_row": with_row(0.0)}[case]
        with pytest.raises(ValueError, match=match):
            maximize_ratio(cfg, bad)

    @pytest.mark.parametrize("case", ["short", "long", "column", "nan", "inf", "zero",
                                      "negative"])
    def test_start_steps_rejected(self, case):
        cfg = OptimizerConfig(n=5, q=1.5, starts=4, seed=2)
        steps = np.full(4, STEP_INIT)

        def with_step(value):
            bad = steps.copy()
            bad[2] = value
            return bad

        bad = {"short": steps[:3], "long": np.full(5, STEP_INIT), "column": steps[:, None],
               "nan": with_step(np.nan), "inf": with_step(np.inf), "zero": with_step(0.0),
               "negative": with_step(-1e-300)}[case]
        match = "shape" if case in ("short", "long", "column") else "finite and positive"
        with pytest.raises(ValueError, match=match):
            maximize_ratio(cfg, None, bad)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(n=0, q=1.5)
        with pytest.raises(ValueError):
            OptimizerConfig(n=2, q=1.5, starts=2)
        assert OptimizerConfig(n=2, q=512.0).q == 512.0

    @pytest.mark.parametrize("q", [math.nan, math.inf, 1.0, 513.0])
    def test_q_outside_lq_range_rejected(self, q):
        # the range lq_norm_with_error takes, less q = 1: rejected before any ascent
        with pytest.raises(ValueError, match=r"\(1, 512\]"):
            OptimizerConfig(n=3, q=q)


class TestEstimate:
    def test_n2_window(self):
        est = estimate_qn(2, tol=1e-3, seed=7)
        assert 1.546 <= est.q_hat <= 1.549
        assert est.t_hat == pytest.approx(4 / est.q_hat, rel=1e-15)
        assert est.witness is not None
        assert est.witness.valid
        assert revalidate_certificate(est.witness).valid

    def test_n3_beats_trivial_bound(self):
        est = estimate_qn(3, tol=1e-3, seed=7)
        assert est.t_hat >= math.log(19) / math.log(3)
        assert est.witness.valid
        assert est.empirical_c == pytest.approx(3 ** (3 - est.t_hat) - 1, rel=1e-12)

    def test_n3_fires_at_148(self):
        res = maximize_ratio(OptimizerConfig(n=3, q=1.48, seed=7))
        assert res.certificate.valid

    def test_one_evaluation_per_probe(self, monkeypatch):
        calls = []
        probes = []
        norm_pair, maximize = discrete_core._norm_pair, optimizer.maximize_ratio

        def counting_norm_pair(*args):
            calls.append(args)
            return norm_pair(*args)

        def recording_maximize(config, start_rows=None, start_steps=None):
            res = maximize(config, start_rows, start_steps)
            probes.append(res)
            return res

        monkeypatch.setattr(discrete_core, "_norm_pair", counting_norm_pair)
        monkeypatch.setattr(certificates, "_norm_pair", counting_norm_pair)
        monkeypatch.setattr(optimizer, "maximize_ratio", recording_maximize)
        est = estimate_qn(3, seed=7)
        assert len(probes) > 1
        assert len(calls) == len(probes)
        assert est.witness.valid
        assert any(est.witness is res.certificate for res in probes)

    @pytest.mark.parametrize("n, q_hat", [(2, 1.5472005208333333), (3, 1.4703776041666665),
                                          (8, 1.4020182291666665), (16, 1.3831380208333333),
                                          (32, 1.3720703125), (64, 1.3649088541666665)])
    def test_q_hat_pinned(self, n, q_hat):
        # the values of the per-chain np.convolve ascent and of the cold-started
        # probes, which the lockstep ascent and the warm start both kept
        assert estimate_qn(n, tol=1e-3, seed=0).q_hat == q_hat

    def test_probe_records(self, monkeypatch):
        results = []
        maximize = optimizer.maximize_ratio

        def recording_maximize(config, start_rows=None, start_steps=None):
            results.append((config.q, maximize(config, start_rows, start_steps)))
            return results[-1][1]

        monkeypatch.setattr(optimizer, "maximize_ratio", recording_maximize)
        est = estimate_qn(3, seed=7)
        assert len(est.probes) == len(results)
        for rec, (q, res) in zip(est.probes, results):
            cert = res.certificate
            assert (rec.q, rec.ratio, rec.err, rec.fired) == (q, cert.lhs / cert.rhs, cert.err,
                                                              cert.valid)
            assert (rec.start_id, rec.agreeing, rec.iterations, rec.rounds) == (
                res.start_id, res.agreeing, res.iterations, res.rounds)
            assert 1 <= rec.agreeing <= 16 and rec.rounds >= rec.iterations
        assert est.q_hat == pytest.approx(min(r.q for r in est.probes if r.fired), abs=1e-3)

    def test_one_start_rows_per_estimate(self, monkeypatch):
        calls = []
        start_rows = optimizer._start_rows

        def counting_start_rows(config):
            calls.append(config)
            return start_rows(config)

        monkeypatch.setattr(optimizer, "_start_rows", counting_start_rows)
        est = estimate_qn(8, seed=1)
        assert len(est.probes) > 1
        assert [c.q for c in calls] == [2.0]

    @pytest.mark.parametrize("n", [3, 8, 16])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_warm_start_matches_fresh_start(self, monkeypatch, n, seed):
        # every probe after the first starts from the previous probe's rows and
        # steps; a fresh start at the same q fires alike and ends no higher, up
        # to 1e-10
        runs = []
        maximize = optimizer.maximize_ratio

        def recording_maximize(config, start_rows=None, start_steps=None):
            runs.append((config, start_rows, start_steps,
                         maximize(config, start_rows, start_steps)))
            return runs[-1][3]

        monkeypatch.setattr(optimizer, "maximize_ratio", recording_maximize)
        estimate_qn(n, seed=seed)
        assert runs[0][1] is None and runs[0][2] is None and len(runs) > 1
        for (_, _, _, before), (_, start_rows, start_steps, _) in zip(runs, runs[1:]):
            assert start_rows is before.rows
            assert np.array_equal(start_steps, np.maximum(before.steps, STEP_INIT))
        for config, _, _, warm in runs[1:]:
            fresh = maximize(config)
            assert warm.certificate.valid == fresh.certificate.valid
            best = [_objective_rows(res.rows, config.q)[0].max() for res in (warm, fresh)]
            assert best[0] >= best[1] - 1e-10

    def test_steps_carried_floored(self, monkeypatch):
        # later probes start at the previous probe's steps floored at STEP_INIT:
        # in this run some carried steps are floored and some kept above it
        runs = []
        maximize = optimizer.maximize_ratio

        def recording_maximize(config, start_rows=None, start_steps=None):
            runs.append((start_steps, maximize(config, start_rows, start_steps)))
            return runs[-1][1]

        monkeypatch.setattr(optimizer, "maximize_ratio", recording_maximize)
        estimate_qn(3, seed=7)
        carried = [(before.steps, steps) for (_, before), (steps, _) in zip(runs, runs[1:])]
        assert all(np.array_equal(steps, np.maximum(prev, STEP_INIT)) for prev, steps in carried)
        assert any(np.any(prev < STEP_INIT) for prev, _ in carried)
        assert any(np.any(steps > STEP_INIT) for _, steps in carried)

    def test_tol_validation(self):
        # tol must lie in [1e-4, 2/3), below the width of [4/3, 2]
        for tol in (1e-5, 2 / 3, 1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                estimate_qn(2, tol=tol)
