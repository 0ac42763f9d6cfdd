import dataclasses
import math
import warnings

import numpy as np
import pytest

from energylab import certificates, discrete_core, optimizer
from energylab.certificates import revalidate_certificate
from energylab.discrete_core import DiscreteFunction, ratio_report
from energylab.optimizer import (ASCENT_TOL, MAX_ITERS, STEP_INIT, OptimizerConfig, estimate_qn,
                                 maximize_ratio, _ascend_rows, _initial_rows, _objective_rows,
                                 _pow4_corr_rows)


# (q, ratio, err, fired, start_id, agreeing, iterations, rounds) of each probe
# of estimate_qn(n, tol=1e-3, seed=0)
PROBE_TRACES = {
    8: [
        (2.0, 1.5332182800910197, 2.1316116511001346e-14, True, 8, 15, 26, 29),
        (1.6666666666666665, 1.2509334070363658, 2.0873893344010054e-14, True, 1, 15, 11, 15),
        (1.5, 1.0948601964545257, 2.005595162035766e-14, True, 3, 15, 9, 14),
        (1.4166666666666665, 1.0144223434353767, 1.9086721078916652e-14, True, 1, 15, 11, 16),
        (1.375, 1.0, 2.0034479126231394e-15, False, 0, 1, 9, 27),
        (1.3958333333333333, 1.0, 1.9926017718126605e-15, False, 0, 1, 9, 18),
        (1.40625, 1.0043707705484235, 1.890067008215245e-14, True, 2, 15, 10, 15),
        (1.4010416666666665, 1.0, 1.989940636892617e-15, False, 0, 1, 9, 14),
        (1.4036458333333333, 1.0018616596739982, 1.885047899179891e-14, True, 1, 15, 9, 13),
        (1.40234375, 1.0006078044159616, 1.8824733505454546e-14, True, 3, 15, 9, 13),
        (1.4016927083333333, 1.0, 1.9896093855416786e-15, False, 0, 1, 9, 13),
    ],
    16: [
        (2.0, 1.82144076032467, 4.151396753950649e-14, True, 2, 15, 26, 28),
        (1.6666666666666665, 1.386844251216842, 4.042433600338843e-14, True, 11, 15, 10, 14),
        (1.5, 1.1592379474976913, 3.8691879329988645e-14, True, 4, 15, 10, 15),
        (1.4166666666666665, 1.0454657024037108, 3.666961873355123e-14, True, 3, 15, 17, 24),
        (1.375, 1.0, 2.0034479126231394e-15, False, 0, 1, 9, 35),
        (1.3958333333333333, 1.0173892337710555, 3.58334145338993e-14, True, 7, 15, 17, 23),
        (1.3854166666666665, 1.003462613804679, 3.531709589992511e-14, True, 13, 15, 18, 25),
        (1.3802083333333333, 1.0, 2.0007056807955845e-15, False, 0, 1, 9, 28),
        (1.3828125, 1.0, 1.999342311299399e-15, False, 0, 1, 9, 25),
        (1.3841145833333333, 1.0017283924777607, 3.524628070231997e-14, True, 13, 15, 15, 21),
        (1.3834635416666665, 1.0008618879416646, 3.521048057999125e-14, True, 4, 15, 14, 19),
    ],
}


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
        e4, corr = _one_row(_pow4_corr_rows, np.array([1.0]))
        assert e4 == 1.0 and (4.0 * corr).tolist() == [4.0]

    def test_pair_indicator(self):
        e4, corr = _one_row(_pow4_corr_rows, np.array([1.0, 1.0]))
        g = 4.0 * corr
        assert e4 == 6.0
        assert g[0] == pytest.approx(12.0, rel=1e-13)
        assert g[1] == pytest.approx(12.0, rel=1e-13)
        # directional derivative along the indicator itself: d/dt 6t^4 = 24 at t=1
        assert g[0] + g[1] == pytest.approx(24.0, rel=1e-13)

    def test_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            x = rng.standard_normal(int(rng.integers(2, 17)))
            e4, corr = _one_row(_pow4_corr_rows, x)
            got = 4.0 * corr
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

    @pytest.mark.parametrize("n", [*range(2, 10), 16, 33, 1024])
    @pytest.mark.parametrize("starts", [4, 5, 16])
    def test_initial_rows_enter_the_ascent(self, n, starts):
        # every start is finite and nonnegative with a positive maximum, so
        # none needs a clip or a redraw
        X0 = _initial_rows(OptimizerConfig(n=n, q=1.5, starts=starts, seed=n))
        assert X0.shape == (starts, n) and X0.dtype == np.float64
        assert np.isfinite(X0).all() and (X0 >= 0).all() and (X0.max(axis=1) > 0).all()

    def test_ascent_monotone(self):
        # the ascent is deterministic, so the run capped at k iterations is the
        # full run's k-th iterate
        rng = np.random.default_rng(2)
        for _ in range(5):
            x0 = rng.random((1, 6)) + 1e-3
            _, final, iters, _, _ = _ascend_rows(x0, 1.5, 300, 1e-12)
            values = [_ascend_rows(x0, 1.5, k, 1e-12)[1][0] for k in range(1, iters[0] + 1)]
            assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))
            assert values[-1] == final[0]

    @pytest.mark.parametrize("n", [2, 3, 8, 16, 33, 1024])
    def test_batch_independence(self, n):
        # each chain run alone ends bit for bit where it ends inside the
        # 16-row batch: its row, value, iteration count and step
        X0 = _initial_rows(OptimizerConfig(n=n, q=1.45, seed=3))
        assert X0.shape == (16, n)
        X, values, iters, steps, _ = _ascend_rows(X0, 1.45, 5000, 1e-12)
        alone = [_ascend_rows(X0[sid:sid + 1], 1.45, 5000, 1e-12)[:4] for sid in range(16)]
        assert all(np.array_equal(x[0], X[sid]) and value[0] == values[sid]
                   and it[0] == iters[sid] and step[0] == steps[sid]
                   for sid, (x, value, it, step) in enumerate(alone))

    def test_one_fft_evaluation_per_round(self, monkeypatch):
        # one row-wise rfft and one irfft over the same rows for the starts,
        # then one pair per round over the running rows only; a batch runs as
        # many rounds as its longest chain makes trial steps
        calls = []

        def counting(name, fft):
            def counted(a, *args, **kwargs):
                calls.append((name, np.shape(a)))
                return fft(a, *args, **kwargs)
            return counted

        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
        X0 = np.random.default_rng(3).random((6, 8)) + 1e-3
        alone = []
        for row in X0:
            calls.clear()
            _ascend_rows(row[None, :], 1.6, 500, 1e-12)
            alone.append(len(calls))
        calls.clear()
        _ascend_rows(X0, 1.6, 500, 1e-12)
        assert len(calls) == max(alone) > 4
        assert calls[:2] == [("rfft", (6, 8)), ("irfft", (6, 9))]
        rows = [shape[0] for _, shape in calls[0::2]]
        assert all(rows[i] >= rows[i + 1] for i in range(len(rows) - 1))
        assert calls == [(name, (k, 8 if name == "rfft" else 9)) for k in rows
                         for name in ("rfft", "irfft")]

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
        X, _, _, steps, rounds = _ascend_rows(X0, 1.6, 500, 1e-12, steps0)
        assert rounds == len(calls) - 1 and calls[0] == 5
        assert steps.shape == (5,) and np.all(steps > 0)
        assert steps0.tolist() == [0.1, 1.0, 1e-3, 0.37, 5.0]  # not written to
        for sid in range(5):
            x, _, _, step, alone_rounds = _ascend_rows(X0[sid:sid + 1], 1.6, 500, 1e-12,
                                                       steps0[sid:sid + 1])
            assert step[0] == steps[sid]
            assert np.array_equal(x[0], X[sid])
            assert alone_rounds <= rounds

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
            X, values, _, _, _ = _ascend_rows(X0, 1.5, 1, 1e-12, np.array([2.0]))
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
            X, values, _, steps, rounds = _ascend_rows(X0, 1.5, 1, 1e-12, np.array([1e300]))
        step = 1e300
        for _ in range(rounds - 1):
            step *= 0.5
        assert rounds > 100 and steps[0] == step * 1.3
        assert np.all(np.isfinite(X)) and values[0] >= start_value

    def test_nan_step_stops(self):
        # a NaN step rejects every trial and halves to NaN; the chain stops in
        # its first round, at its start
        X0 = np.random.default_rng(8).random((1, 6)) + 1e-3
        start_value = _objective_rows(X0 / X0.max(), 1.5)[0][0]
        X, values, iters, steps, rounds = _ascend_rows(X0, 1.5, 50, 1e-12, np.array([np.nan]))
        assert rounds == 1 and iters[0] == 1 and np.isnan(steps[0])
        assert np.array_equal(X, X0 / X0.max()) and values[0] == start_value


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
        cfg = OptimizerConfig(n=4, q=1.5, starts=8, seed=11)
        a = maximize_ratio(cfg)
        b = maximize_ratio(cfg)
        assert a == b  # bit-for-bit, including the function values

    def test_start_rows_default(self):
        # without a previous result the chains start from _initial_rows(config)
        # at STEP_INIT each; rows and steps are their final iterates and steps
        cfg = OptimizerConfig(n=5, q=1.5, starts=6, seed=2)
        res = maximize_ratio(cfg)
        X, _, _, steps, _ = _ascend_rows(_initial_rows(cfg), 1.5, MAX_ITERS, ASCENT_TOL,
                                         np.full(6, STEP_INIT))
        assert np.array_equal(res.rows, X) and np.array_equal(res.steps, steps)
        assert res.rows.shape == (6, 5) and not res.rows.flags.writeable
        assert res.steps.shape == (6,) and not res.steps.flags.writeable
        assert np.array_equal(res.rows[res.start_id], res.certificate.f.values)
        assert np.all(res.rows.max(axis=1) == 1.0)

    @pytest.mark.parametrize("case, match", [("rows", "shape"), ("columns", "shape"),
                                             ("flat", "shape")])
    def test_start_rows_rejected(self, case, match):
        # a previous result warm-starts only a config with its n and its starts
        previous = maximize_ratio(OptimizerConfig(n=5, q=1.5, starts=4, seed=2))
        cfg = {"rows": OptimizerConfig(n=5, q=1.45, starts=5, seed=2),
               "columns": OptimizerConfig(n=6, q=1.45, starts=4, seed=2),
               "flat": OptimizerConfig(n=5, q=1.45, starts=4, seed=2)}[case]
        if case == "flat":
            previous = dataclasses.replace(previous, rows=previous.rows.ravel())
        with pytest.raises(ValueError, match=f"previous rows must have {match}"):
            maximize_ratio(cfg, previous)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(n=0, q=1.5)
        with pytest.raises(ValueError):
            OptimizerConfig(n=2, q=1.5, starts=2)
        assert OptimizerConfig(n=2, q=512.0).q == 512.0

    def test_batch_cap(self):
        # the batch holds starts x n floats, at most SUPPORT_CAP of them
        assert OptimizerConfig(n=524288, q=1.5).n * 16 <= certificates.SUPPORT_CAP
        with pytest.raises(discrete_core.CapExceededError, match="exceeds support cap 8388609"):
            OptimizerConfig(n=524289, q=1.5)
        with pytest.raises(discrete_core.CapExceededError, match="starts x n = 16000000"):
            OptimizerConfig(n=8, q=1.5, starts=2000000)

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

        def recording_maximize(config, previous=None):
            res = maximize(config, previous)
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

    def test_unfired_first_probe_raises(self, monkeypatch):
        maximize = optimizer.maximize_ratio

        def invalid_maximize(config, previous=None):
            res = maximize(config, previous)
            cert = dataclasses.replace(res.certificate, err=res.certificate.margin + 1.0)
            return dataclasses.replace(res, certificate=cert)

        monkeypatch.setattr(optimizer, "maximize_ratio", invalid_maximize)
        with pytest.raises(ArithmeticError, match="q = 2"):
            estimate_qn(2, seed=7)

    @pytest.mark.parametrize("n, q_hat", [(2, 1.5472005208333333), (3, 1.4703776041666665),
                                          (8, 1.4020182291666665), (16, 1.3831380208333333),
                                          (32, 1.3720703125), (64, 1.3649088541666665)])
    def test_q_hat_pinned(self, n, q_hat):
        # the values of the per-chain np.convolve ascent and of the cold-started
        # probes, which the lockstep ascent and the warm start both kept
        assert estimate_qn(n, tol=1e-3, seed=0).q_hat == q_hat

    @pytest.mark.parametrize("n", [8, 16])
    def test_probe_trace_pinned(self, n):
        # every probe's (q, ratio, err, fired, start_id, agreeing, iterations,
        # rounds) at seed 0, tol 1e-3, as the ascent gave them before its round
        # was rewritten in place; iterations and rounds reach only stderr, so
        # no golden stdout hash would see the ascent drift there.  err, and
        # one ratio by one ulp, were re-taken when the certified pow4 became a
        # Parseval sum over one forward FFT; err, three ratios by one ulp and
        # start_id (the first maximum among 15 agreeing starts) when the
        # ascent's own pow4 and gradient did
        est = estimate_qn(n, tol=1e-3, seed=0)
        assert [dataclasses.astuple(p) for p in est.probes] == PROBE_TRACES[n]

    def test_probe_records(self, monkeypatch):
        results = []
        maximize = optimizer.maximize_ratio

        def recording_maximize(config, previous=None):
            results.append((config.q, maximize(config, previous)))
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
        initial_rows = optimizer._initial_rows

        def counting_initial_rows(config):
            calls.append(config)
            return initial_rows(config)

        monkeypatch.setattr(optimizer, "_initial_rows", counting_initial_rows)
        est = estimate_qn(8, seed=1)
        assert len(est.probes) > 1
        assert [c.q for c in calls] == [2.0]

    @pytest.mark.parametrize("n", [3, 8, 16])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_warm_start_matches_fresh_start(self, monkeypatch, n, seed):
        # every probe after the first starts from the previous probe's result;
        # a fresh start at the same q fires alike and ends no higher, up to 1e-10
        runs = []
        maximize = optimizer.maximize_ratio

        def recording_maximize(config, previous=None):
            runs.append((config, previous, maximize(config, previous)))
            return runs[-1][2]

        monkeypatch.setattr(optimizer, "maximize_ratio", recording_maximize)
        estimate_qn(n, seed=seed)
        assert runs[0][1] is None and len(runs) > 1
        for (_, _, before), (_, previous, _) in zip(runs, runs[1:]):
            assert previous is before
        for config, _, warm in runs[1:]:
            fresh = maximize(config)
            assert warm.certificate.valid == fresh.certificate.valid
            best = [_objective_rows(res.rows, config.q)[0].max() for res in (warm, fresh)]
            assert best[0] >= best[1] - 1e-10

    def test_steps_carried_floored(self, monkeypatch):
        # later probes start at the previous probe's steps floored at STEP_INIT:
        # in this run some carried steps are floored and some kept above it
        received, results = [], []
        ascend, maximize = optimizer._ascend_rows, optimizer.maximize_ratio

        def recording_ascend(X0, q, max_iters, tol, steps=None):
            received.append(steps)
            return ascend(X0, q, max_iters, tol, steps)

        def recording_maximize(config, previous=None):
            results.append(maximize(config, previous))
            return results[-1]

        monkeypatch.setattr(optimizer, "_ascend_rows", recording_ascend)
        monkeypatch.setattr(optimizer, "maximize_ratio", recording_maximize)
        estimate_qn(3, seed=7)
        assert received[0] is None and len(received) == len(results) > 1
        carried = [(before.steps, steps) for before, steps in zip(results, received[1:])]
        assert all(np.array_equal(steps, np.maximum(prev, STEP_INIT)) for prev, steps in carried)
        assert any(np.any(prev < STEP_INIT) for prev, _ in carried)
        assert any(np.any(steps > STEP_INIT) for _, steps in carried)

    def test_tol_validation(self):
        # tol must lie in [1e-4, 2/3), below the width of [4/3, 2]
        for tol in (1e-5, 2 / 3, 1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                estimate_qn(2, tol=tol)
