"""End-to-end tracking loop, evaluation metrics, and failure paths.

The gait generator supplies ground truth, so these tests can make
absolute claims: a still minute must stay put, a closed walk must
close, and turning the stance machinery off must visibly hurt.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import re
import warnings

import numpy as np
import pytest

import pdrnav.ekf as ekf_module
import pdrnav.tracker as tracker_module
from pdrnav import constants
from pdrnav.cli import main
from pdrnav.ekf import FilterDivergenceError, default_filter_config
from pdrnav.gait import (
    GaitParams,
    NoiseParams,
    generate_gait,
    inverse_imu,
    razor_noise,
    scale_calibration,
    still_truth,
)
from pdrnav.io import (
    PipelineConfig,
    _to_doc,
    read_trajectory,
    write_calibration,
    write_config,
    write_log,
)
from pdrnav.tracker import (
    EvalReport,
    ImuLog,
    Trajectory,
    TrackerDivergence,
    checkpoint_errors,
    epsilon_ttd,
    evaluate_trajectory,
    run_tracker,
)
from pdrnav.zupt import (
    StanceConfig,
    default_stance_config,
    event_f1,
    stance_intervals,
)

from faults import RAISED, inject_fault, stage_inputs
from oracles import chain_tracker, loop_checkpoint_errors

FS = 100.0
LSB_A = constants.DEFAULT_LSB_ACCEL
LSB_W = constants.DEFAULT_LSB_GYRO
CAL_A = scale_calibration(LSB_A)
CAL_W = scale_calibration(LSB_W)

# Peak swing specific force grows like step_length / T_swing^2; this
# pairing keeps it near 2 g, inside the +-4 g converter range.
STEP = 1.0
CADENCE = 1.5


def make_log(truth, seed):
    counts_a, counts_w = inverse_imu(truth, CAL_A, CAL_W,
                                     razor_noise(truth.fs), seed=seed)
    return ImuLog(t=truth.t, accel=counts_a, gyro=counts_w, fs=truth.fs,
                  lsb_accel=LSB_A, lsb_gyro=LSB_W)


def closed_square(side, seed, fs=FS):
    path = [[0.0, 0.0], [side, 0.0], [side, side], [0.0, side], [0.0, 0.0]]
    params = GaitParams(step_length=STEP, cadence=CADENCE, path=path,
                        seed=seed)
    return generate_gait(params, fs)


@pytest.fixture(scope="module")
def short_walk():
    truth = closed_square(10.0, seed=4)
    return truth, make_log(truth, seed=4)


@pytest.fixture(scope="module")
def slow_walk():
    # 0.5 Hz cadence with 1.5 s stances: most samples get stance updates.
    path = [[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0], [0.0, 0.0]]
    params = GaitParams(step_length=STEP, cadence=0.5, stance_duration=1.5,
                        path=path, seed=5)
    truth = generate_gait(params, FS)
    return truth, make_log(truth, seed=5)


class TestLogType:
    def test_rejects_non_increasing_time(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ImuLog(t=np.array([0.0, 0.0]), accel=np.zeros((2, 3)),
                   gyro=np.zeros((2, 3)), fs=FS,
                   lsb_accel=LSB_A, lsb_gyro=LSB_W)

    def test_rejects_fractional_counts(self):
        with pytest.raises(ValueError, match="integer"):
            ImuLog(t=np.array([0.0, 0.01]), accel=np.full((2, 3), 0.5),
                   gyro=np.zeros((2, 3)), fs=FS,
                   lsb_accel=LSB_A, lsb_gyro=LSB_W)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16,
                                       np.int32, np.int64, np.uint16])
    def test_integer_counts_in_range_come_back_int16(self, dtype):
        # Every integer dtype is admitted, down to each rail it shares
        # with the ADC, and held as int16 with its values: int16 counts
        # as they are, not copied.
        info = np.iinfo(dtype)
        low = max(int(info.min), constants.ADC_MIN)
        high = min(int(info.max), constants.ADC_MAX)
        counts = np.array([[low, high, 0], [high, low, 1]], dtype=dtype)
        log = ImuLog(t=np.arange(2) / FS, accel=counts, gyro=counts[::-1],
                     fs=FS, lsb_accel=LSB_A, lsb_gyro=LSB_W)
        assert log.accel.dtype == log.gyro.dtype == np.int16
        np.testing.assert_array_equal(log.accel, counts)
        np.testing.assert_array_equal(log.gyro, counts[::-1])
        int16 = dtype is np.int16
        assert np.shares_memory(log.accel, counts) == int16
        assert np.shares_memory(log.gyro, counts) == int16

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.bool_])
    @pytest.mark.parametrize("sensor", ["accel", "gyro"])
    def test_float_and_bool_counts_refused(self, sensor, dtype):
        # Whole float counts too: a count is an integer by type, so a
        # caller rounds and casts float counts; `ImuLog` does not.
        with pytest.raises(ValueError, match=(
                f"^{sensor} counts must be integers, "
                f"not {np.dtype(dtype)}")):
            self.counts_log(sensor, lambda counts: None, dtype)

    def test_rejects_out_of_range_counts(self):
        with pytest.raises(ValueError, match="range"):
            ImuLog(t=np.array([0.0, 0.01]),
                   accel=np.full((2, 3), 40000, np.int32),
                   gyro=np.zeros((2, 3), np.int16), fs=FS,
                   lsb_accel=LSB_A, lsb_gyro=LSB_W)

    @staticmethod
    def counts_log(sensor, spoil, dtype=np.int16, n=200):
        """A log of ``n`` int16 counts, but for ``sensor``'s: whole
        counts in ``dtype`` that ``spoil`` has changed in place."""
        arrays = {"accel": np.full((n, 3), 8192, np.int16),
                  "gyro": np.zeros((n, 3), np.int16)}
        arrays[sensor] = arrays[sensor].astype(dtype)
        spoil(arrays[sensor])
        return ImuLog(t=np.arange(n) / FS, fs=FS, lsb_accel=LSB_A,
                      lsb_gyro=LSB_W, **arrays)

    @pytest.mark.parametrize("shapes", [
        ((5,), (5, 3), (4, 3)),
        ((5,), (4, 3), (5, 3)),
        ((5,), (5, 2), (5, 2)),
        ((6,), (5, 3), (5, 3)),
        ((5,), (5, 3, 1), (5, 3)),
    ], ids=["gyro_short", "accel_short", "two_columns", "t_long", "three_d"])
    def test_rejects_arrays_that_do_not_match_t(self, shapes):
        t, accel, gyro = shapes
        with pytest.raises(ValueError, match=(
                r"^accel and gyro must be \(n, 3\) matching t$")):
            ImuLog(t=np.arange(t[0]) / FS, accel=np.zeros(accel),
                   gyro=np.zeros(gyro), fs=FS, lsb_accel=LSB_A,
                   lsb_gyro=LSB_W)

    @pytest.mark.parametrize("values", [[np.nan], [np.inf], [-np.inf],
                                        [np.inf, -np.inf]],
                             ids=["nan", "inf", "minus_inf", "both_infs"])
    @pytest.mark.parametrize("sensor", ["accel", "gyro"])
    def test_non_finite_sample_refused(self, sensor, values):
        # Only float counts hold a NaN or an infinity, and float counts
        # are refused by their dtype.
        def spoil(counts):
            counts[17:17 + len(values), 2] = values

        with pytest.raises(ValueError, match=(
                f"^{sensor} counts must be integers, not float64")):
            self.counts_log(sensor, spoil, float)

    @pytest.mark.parametrize("dtype, bad", [
        pytest.param(np.int32, 40000, id="int32"),
        pytest.param(np.int64, 40000, id="int64"),
        pytest.param(np.int32, -32769, id="int32_below"),
        pytest.param(np.int32, 32768, id="int32_above"),
        pytest.param(np.uint16, 32768, id="uint16_above")])
    @pytest.mark.parametrize("sensor", ["accel", "gyro"])
    def test_counts_outside_the_adc_range_refused(self, sensor, dtype, bad):
        # An integer, but no 16-bit ADC gives it; a dtype other than
        # int16 is scanned, down to one step past either rail, and the
        # refusal names the count.
        def spoil(counts):
            counts[17, 0] = bad

        with pytest.raises(ValueError, match=re.escape(
                f"{sensor} count {bad} is outside the 16-bit ADC range "
                f"[-32768, 32767]")):
            self.counts_log(sensor, spoil, dtype)

    @pytest.mark.parametrize("sensor", ["accel", "gyro"])
    def test_int16_counts_at_both_rails_accepted(self, sensor):
        # int16's range is the ADC range, so its counts are in range by
        # type and no scan is needed to accept the rails.
        def spoil(counts):
            counts[17, 0], counts[18, 1] = -32768, 32767

        log = self.counts_log(sensor, spoil, np.int16)
        counts = getattr(log, sensor)
        assert counts.dtype == np.int16
        assert (counts.min(), counts.max()) == (-32768, 32767)

    @pytest.mark.parametrize("values", [[1e308, 1e308], [1e200, -1e200]],
                             ids=["max_float", "opposite"])
    @pytest.mark.parametrize("sensor", ["accel", "gyro"])
    def test_huge_counts_refused_without_warnings(self, sensor, values):
        # Finite counts whose sum or squares would overflow float64 are
        # refused by their dtype, and the check itself stays quiet.
        def spoil(counts):
            counts[17:19, 2] = values

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=(
                    f"^{sensor} counts must be integers, not float64")):
                self.counts_log(sensor, spoil, float)

    def test_non_positive_gyro_scale_refused(self):
        for lsb in (0.0, -1e-3, np.nan, np.inf):
            with pytest.raises(ValueError, match=(
                    "^lsb_gyro must be positive and finite")):
                ImuLog(t=np.arange(3) / FS, accel=np.zeros((3, 3)),
                       gyro=np.zeros((3, 3)), fs=FS, lsb_accel=LSB_A,
                       lsb_gyro=lsb)


class TestRunTracker:
    def test_zero_length_log_is_refused(self):
        # Refused as a log of 1 to 49 samples is: there is no half
        # second of stillness to level on.
        log = make_log(still_truth(1.0, FS), seed=1)
        for n in (0, 1, 49):
            short = ImuLog(t=log.t[:n], accel=log.accel[:n],
                           gyro=log.gyro[:n], fs=FS,
                           lsb_accel=LSB_A, lsb_gyro=LSB_W)
            with pytest.raises(ValueError, match=(
                    rf"still period spans {n / FS:.2f} s, need at least 0\.5 s")):
                run_tracker(short, CAL_A, CAL_W)

    def test_still_minute_stays_within_five_centimeters(self):
        truth = still_truth(60.0, FS)
        log = make_log(truth, seed=1)
        traj = run_tracker(log, CAL_A, CAL_W)
        drift = np.linalg.norm(traj.p[-1] - traj.p[0])
        assert drift < 0.05

    def test_filter_period_must_match_the_log(self, short_walk):
        # A filter built for 200 Hz would propagate a 100 Hz log with
        # half its true time step.
        _, log = short_walk
        with pytest.raises(ValueError, match=r"ts 0\.005 s .* 100 Hz"):
            run_tracker(log, CAL_A, CAL_W, default_filter_config(2 * FS))

    def test_a_gap_in_the_log_is_an_input_error(self, short_walk):
        # Twenty rows (0.2 s) dropped: tracked with fixed 1/fs steps, this
        # walk used to close at 0.62 m against the intact log's 0.32 m.
        _, log = short_walk
        keep = np.r_[:500, 520:log.t.size]
        gapped = ImuLog(t=log.t[keep], accel=log.accel[keep],
                        gyro=log.gyro[keep], fs=FS,
                        lsb_accel=LSB_A, lsb_gyro=LSB_W)
        with pytest.raises(ValueError, match=r"sample 500 is 0\.21 s"):
            run_tracker(gapped, CAL_A, CAL_W)

    @pytest.mark.parametrize("periods, ok", [(0.4, False), (0.6, True),
                                             (1.4, True), (1.6, False)])
    def test_time_steps_may_be_half_a_period_off(self, short_walk, periods,
                                                 ok):
        # The step into sample 300 lasts ``periods`` sample periods.
        _, log = short_walk
        t = log.t.copy()
        t[300:] += (periods - 1.0) / FS
        retimed = ImuLog(t=t, accel=log.accel, gyro=log.gyro, fs=FS,
                         lsb_accel=LSB_A, lsb_gyro=LSB_W)
        if ok:
            assert run_tracker(retimed, CAL_A, CAL_W).t.size == t.size
        else:
            with pytest.raises(ValueError, match="into sample 300 is"):
                run_tracker(retimed, CAL_A, CAL_W)

    def test_trajectory_shape_matches_log(self, short_walk):
        truth, log = short_walk
        traj = run_tracker(log, CAL_A, CAL_W)
        assert traj.t.size == log.t.size
        np.testing.assert_array_equal(traj.t, log.t)
        # soft mode: the stance column is exactly the score threshold test
        cfg = default_stance_config(FS)
        np.testing.assert_array_equal(traj.stance,
                                      traj.sfs >= cfg.sfs_threshold)

    def test_same_inputs_give_identical_output(self, short_walk):
        _, log = short_walk
        a = run_tracker(log, CAL_A, CAL_W)
        b = run_tracker(log, CAL_A, CAL_W)
        np.testing.assert_array_equal(a.p, b.p)
        np.testing.assert_array_equal(a.q_nb, b.q_nb)
        np.testing.assert_array_equal(a.sfs, b.sfs)

    def test_non_still_start_is_an_input_error(self, short_walk):
        _, log = short_walk
        # drop the lead-in so the log opens mid-stride
        start = int(3.0 * FS)
        moving = ImuLog(t=log.t[start:], accel=log.accel[start:],
                        gyro=log.gyro[start:], fs=FS,
                        lsb_accel=LSB_A, lsb_gyro=LSB_W)
        with pytest.raises(ValueError, match="not still"):
            run_tracker(moving, CAL_A, CAL_W)

    def test_divergence_raises_with_diagnostic(self):
        truth = still_truth(5.0, FS)
        log = make_log(truth, seed=0)
        cfg = default_filter_config(FS)
        bad = dataclasses.replace(
            cfg, q_diag=np.full_like(cfg.q_diag, 1e300))
        with pytest.raises(TrackerDivergence) as info:
            run_tracker(log, CAL_A, CAL_W, filter_cfg=bad)
        exc = info.value
        # The trajectory keeps every sample before the failed one.
        assert exc.diagnostic.sample_index < log.t.size
        assert exc.trajectory.t.size == exc.diagnostic.sample_index
        assert exc.diagnostic.covariance_condition > 0.0
        assert exc.diagnostic.message

    def test_overflow_is_a_divergence_not_a_warning(self, short_walk):
        # A process noise of 1e307 on position overflows the covariance
        # a few swings in.  With every warning an error, numpy's
        # overflow and invalid-value warnings must not escape in place
        # of the divergence that the step's check reports.
        _, log = short_walk
        cfg = default_filter_config(FS)
        q_diag = cfg.q_diag.copy()
        q_diag[0:3] = 1e307
        bad = dataclasses.replace(cfg, q_diag=q_diag)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrackerDivergence) as info:
                run_tracker(log, CAL_A, CAL_W, filter_cfg=bad)
        exc = info.value
        assert exc.diagnostic.stage == "predict"
        assert exc.diagnostic.message == "covariance is no longer finite"
        assert exc.trajectory.t.size == exc.diagnostic.sample_index > 0

    def test_divergence_midway_keeps_processed_samples(self, short_walk,
                                                       monkeypatch):
        _, log = short_walk
        real_update = tracker_module.update
        calls = {"n": 0}

        def failing_update(*args):
            calls["n"] += 1
            if calls["n"] > 500:
                raise FilterDivergenceError("synthetic blow-up")
            return real_update(*args)

        monkeypatch.setattr(tracker_module, "update", failing_update)
        with pytest.raises(TrackerDivergence) as info:
            run_tracker(log, CAL_A, CAL_W)
        exc = info.value
        assert exc.diagnostic.sample_index == 500
        assert exc.trajectory.t.size == 500
        assert np.all(np.isfinite(exc.trajectory.p))

    def test_stance_threshold_is_inclusive(self, short_walk):
        # 4/13 is a score the 13-sample window really gives: a sample
        # whose score equals the threshold is stance.
        _, log = short_walk
        threshold = 4 / 13
        cfg = default_stance_config(FS)
        cfg.sfs_threshold = threshold
        traj = run_tracker(log, CAL_A, CAL_W, stance_cfg=cfg)
        assert np.any(traj.sfs == threshold)
        np.testing.assert_array_equal(traj.stance, traj.sfs >= threshold)

    def test_stance_config_is_read_afresh_each_run(self, short_walk):
        # The tracker copies the pseudo-measurement base variances once
        # per run; a config changed between two runs must be honoured by
        # the second, exactly as a fresh config is.
        _, log = short_walk
        cfg = default_stance_config(FS)
        first = run_tracker(log, CAL_A, CAL_W, stance_cfg=cfg)
        cfg.pseudo_variances[3:6] *= 1e4
        second = run_tracker(log, CAL_A, CAL_W, stance_cfg=cfg)
        variances = default_stance_config(FS).pseudo_variances
        variances[3:6] *= 1e4
        fresh = run_tracker(log, CAL_A, CAL_W, stance_cfg=StanceConfig(
            pseudo_variances=variances))
        assert np.max(np.abs(second.p - first.p)) > 1e-3
        np.testing.assert_array_equal(second.p, fresh.p)
        np.testing.assert_array_equal(second.q_nb, fresh.q_nb)


def _stance_variant(name):
    cfg = default_stance_config(FS)
    if name == "hard":
        cfg.mode = "hard"
    return cfg


# The stance kernel's call in a clean run of ``short_walk`` that falls
# on the first sample of a stance event (its third).
_ONSET_CALL = 134


class TestSingleStep:
    """`run_tracker` runs one step per sample on a mean and covariance
    it owns; it must be the chain of dense, per-call forms
    (`oracles.chain_tracker`) bit for bit and, checking once per step
    where the chain checks after every stage, fail at the sample and
    the stage where that chain fails."""

    @pytest.mark.parametrize("walk, variant", [
        ("short_walk", "soft"), ("short_walk", "hard"),
        ("short_walk", "biases_off"), ("slow_walk", "soft"),
        ("slow_walk", "hard"),
    ])
    def test_matches_per_call_chain(self, walk, variant, request):
        _, log = request.getfixturevalue(walk)
        stance_cfg = _stance_variant(variant)
        filter_cfg = default_filter_config(FS)
        if variant == "biases_off":
            filter_cfg = dataclasses.replace(filter_cfg, estimate_biases=False)
        step = run_tracker(log, CAL_A, CAL_W, filter_cfg, stance_cfg)
        chain = chain_tracker(log, CAL_A, CAL_W, filter_cfg, stance_cfg)
        assert step.stance.sum() > 0.2 * step.t.size
        np.testing.assert_array_equal(step.stance, chain.stance)
        np.testing.assert_array_equal(step.sfs, chain.sfs)
        np.testing.assert_array_equal(step.p, chain.p)
        np.testing.assert_array_equal(step.q_nb, chain.q_nb)

    @pytest.mark.parametrize("fault", ["nonfinite", "indefinite", "raises"])
    @pytest.mark.parametrize("stage, at", [
        ("predict", 300), ("imu", 300), ("stance", 40),
        ("stance", _ONSET_CALL),
    ])
    def test_divergence_parity(self, short_walk, monkeypatch, stage, fault, at):
        # A fault keyed to the ``at``-th call (1-based) of the stage's
        # kernel in a clean run (a sample for predict and the IMU
        # update, a stance sample for the stance update): the tracker's
        # one check per step sees it, or the kernel raises, and its
        # replay names the stage, as the chain that checks after every
        # stage does.  At a stance event's first sample the replay
        # latches the event again.
        _, log = short_walk
        key = stage_inputs(log, CAL_A, CAL_W, stage)[at - 1]
        caught = []
        with monkeypatch.context() as m:
            chain_kwargs = inject_fault(m, stage, fault, key)
            for tracker in (run_tracker, lambda *args: chain_tracker(
                    *args, **chain_kwargs)):
                with pytest.raises(TrackerDivergence) as info:
                    tracker(log, CAL_A, CAL_W)
                caught.append(info.value)
        step, chain = caught
        want = at - 1
        if stage == "stance":
            stance = run_tracker(log, CAL_A, CAL_W).stance
            want = int(np.flatnonzero(stance)[want])
            assert (not stance[want - 1]) == (at == _ONSET_CALL)
        message = {
            "nonfinite": "covariance is no longer finite",
            "indefinite": "innovation covariance not positive definite "
                          "(dpotrf info 1)",
            "raises": RAISED,
        }[fault]
        if (stage, fault) == ("predict", "indefinite"):
            message = "covariance lost positive semidefiniteness (min diag -1)"
        for exc in (step, chain):
            assert exc.diagnostic.sample_index == want
            assert exc.diagnostic.stage == stage
            assert exc.diagnostic.message == message
            assert exc.trajectory.t.size == want
        assert (step.diagnostic.covariance_condition
                == chain.diagnostic.covariance_condition)
        np.testing.assert_array_equal(step.trajectory.p, chain.trajectory.p)
        np.testing.assert_array_equal(step.trajectory.q_nb,
                                      chain.trajectory.q_nb)

    def test_failure_the_replay_does_not_repeat_is_reported_unstaged(
            self, short_walk, monkeypatch):
        # A failure on the 300th update call only: the replay calls the
        # update again and passes, so the diagnostic gives the step's
        # own failure and names no stage.
        _, log = short_walk
        real_update = tracker_module.update
        calls = {"n": 0}

        def once(*args):
            calls["n"] += 1
            if calls["n"] == 300:
                raise FilterDivergenceError("synthetic one-off")
            return real_update(*args)

        monkeypatch.setattr(tracker_module, "update", once)
        with pytest.raises(TrackerDivergence) as info:
            run_tracker(log, CAL_A, CAL_W)
        diagnostic = info.value.diagnostic
        assert (diagnostic.sample_index, diagnostic.stage) == (299, None)
        assert diagnostic.message == "synthetic one-off"
        assert str(info.value).startswith(
            "filter diverged at sample 299: synthetic one-off")

    def test_negative_variance_repaired_within_the_step_passes(
            self, short_walk, monkeypatch):
        # The step is checked once, at its end: a negative variance that
        # predict leaves and the IMU update of the same sample repairs
        # is no error to the tracker, while the chain, which checks
        # after every stage, stops at predict.
        _, log = short_walk
        clean = run_tracker(log, CAL_A, CAL_W)
        key = stage_inputs(log, CAL_A, CAL_W, "predict")[299]
        real_predict, real_update = ekf_module.predict, tracker_module.update
        held = {}

        def predict(x, p_mat, *rest):
            x1, p1 = real_predict(x, p_mat, *rest)
            if np.array_equal(x, key):
                held["p"], p1 = p1, p1.copy()
                p1[0, 0] = -1.0
            return x1, p1

        def update(x, p_mat, *rest):
            if "p" in held and p_mat[0, 0] == -1.0:
                p_mat = held["p"]
            return real_update(x, p_mat, *rest)

        monkeypatch.setattr(tracker_module, "predict", predict)
        monkeypatch.setattr(tracker_module, "update", update)
        traj = run_tracker(log, CAL_A, CAL_W)
        np.testing.assert_array_equal(traj.p, clean.p)
        np.testing.assert_array_equal(traj.q_nb, clean.q_nb)
        with pytest.raises(TrackerDivergence) as info:
            chain_tracker(log, CAL_A, CAL_W, predict=predict)
        assert info.value.diagnostic.sample_index == 299
        assert info.value.diagnostic.stage == "predict"

    def test_divergence_in_track_exits_three_with_partial_output(
            self, short_walk, monkeypatch, tmp_path, capsys):
        _, log = short_walk
        write_log(tmp_path / "walk.csv", log)
        write_calibration(tmp_path / "cal.json", CAL_A, CAL_W)
        write_config(tmp_path / "config.json", PipelineConfig(
            filter=default_filter_config(FS), stance=default_stance_config(FS),
            calibration_paths={"accel": "cal.json", "gyro": "cal.json"}))
        # The written log reads back to the same arrays, so the state
        # the stance update receives on its 40th call is the same.
        want = int(np.flatnonzero(run_tracker(log, CAL_A, CAL_W).stance)[39])
        inject_fault(monkeypatch, "stance", "indefinite",
                     stage_inputs(log, CAL_A, CAL_W, "stance")[39])
        code = main(["track", "--log", str(tmp_path / "walk.csv"),
                     "--cal", str(tmp_path / "cal.json"),
                     "--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path / "traj.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert f"diverged at sample {want} in the stance stage: " in err
        assert "not positive definite (dpotrf info 1)" in err
        assert read_trajectory(tmp_path / "traj.csv").t.size == want

    def test_each_kernel_is_written_once(self):
        # The loop and its divergence replay run one step function, so
        # `run_tracker` names each stage's kernel in one place.
        tree = ast.parse(inspect.getsource(run_tracker))
        names = [node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)]
        for kernel in ("predict", "update", "zupt_update"):
            assert names.count(kernel) == 1, kernel

    def test_step_products_skip_the_matmul_dispatch(self):
        # The per-sample kernels form their products with ``ndarray.dot``,
        # which runs the same BLAS routine as ``@`` without the matmul
        # ufunc's dispatch; ``@`` stays in the oracles.
        for kernel in (ekf_module.predict, ekf_module._measurement_update):
            tree = ast.parse(inspect.getsource(kernel))
            assert not any(isinstance(node, ast.MatMult)
                           for node in ast.walk(tree)), kernel.__name__

    def test_stance_policy_stays_in_zupt(self):
        # `zupt.stance_schedule` decides which samples get a stance
        # update and how hard each pulls; the tracker reads none of the
        # policy's settings and imports none of its parts.
        tree = ast.parse(inspect.getsource(tracker_module))
        attrs = {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)}
        assert not attrs & {"mode", "sfs_threshold", "covariance_gain"}
        names = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)}
        names |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert not names & {"sfs_series", "_conditions", "_window_fraction"}
        # Nor its windows: `stance_schedule` refuses one longer than the
        # log.  Field names can be read through ``getattr`` with a
        # string, so the source text is searched, not only the AST.
        source = inspect.getsource(tracker_module)
        for name in ("detect_half_width", "std_half_width"):
            assert name not in source, name

    def test_check_and_identity_counts(self, short_walk, monkeypatch):
        # Per sample: exactly one divergence check, at the end of the
        # step, and one LAPACK call (dposv) per update; no separate
        # factor and solve.  The identity is a module constant, so numpy
        # builds none during a run.
        from scipy.linalg import lapack

        _, log = short_walk
        counts = {"check": 0, "eye": 0, "dposv": 0, "dpotrf": 0, "dpotrs": 0}
        real_check, real_eye = tracker_module._check_state, np.eye

        def counted(name, fn):
            def call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(tracker_module, "_check_state",
                            counted("check", real_check))
        monkeypatch.setattr(np, "eye", counted("eye", real_eye))
        for name in ("dposv", "dpotrf", "dpotrs"):
            monkeypatch.setattr(lapack, name, counted(name, getattr(lapack, name)))
        # Bind BLAS and LAPACK afresh, from the counted routines.
        monkeypatch.setattr(ekf_module, "_ddot", None)
        monkeypatch.setattr(ekf_module, "_dposv", None)
        traj = run_tracker(log, CAL_A, CAL_W)
        assert counts["check"] == traj.t.size
        assert counts["dposv"] == traj.t.size + int(traj.stance.sum())
        assert counts["dpotrf"] == counts["dpotrs"] == 0
        assert counts["eye"] == 0


@pytest.fixture(scope="module")
def suite():
    # 80 m loops, 5 seeds; shared by the ablation tests
    walks = []
    for seed in range(5):
        truth = closed_square(20.0, seed=seed)
        walks.append((truth, make_log(truth, seed=seed)))
    return walks


class TestAblation:
    def median_eps(self, walks, *, stance_mode=None, filter_cfg=None):
        errs = []
        for truth, log in walks:
            scfg = default_stance_config(FS)
            if stance_mode is not None:
                scfg = dataclasses.replace(scfg, mode=stance_mode)
            traj = run_tracker(log, CAL_A, CAL_W, filter_cfg=filter_cfg,
                               stance_cfg=scfg)
            errs.append(epsilon_ttd(traj, truth.path_length))
        return float(np.median(errs))

    def test_stance_aiding_beats_no_aiding(self, suite):
        # Soft versus hard separates only over distance; the standard
        # 300 m suite settles that ordering.  At 80 m the robust fact
        # is that either form of aiding crushes free integration.
        soft = self.median_eps(suite, stance_mode="soft")
        hard = self.median_eps(suite, stance_mode="hard")
        none = self.median_eps(suite, stance_mode="none")
        assert soft <= none and hard <= none
        assert none > 10 * max(soft, hard)

    def test_disabling_bias_states_hurts_on_bias_drift(self):
        # Amplify the generator's bias random walk far above the razor
        # profile so the ablation has an unambiguous signal.
        base = razor_noise(FS)
        noise = NoiseParams(
            accel_sigma=base.accel_sigma,
            gyro_sigma=base.gyro_sigma,
            accel_walk_sigma=base.accel_walk_sigma * 100,
            gyro_walk_sigma=base.gyro_walk_sigma * 100,
        )
        cfg = default_filter_config(FS)
        frozen = dataclasses.replace(cfg, estimate_biases=False)
        errs = {True: [], False: []}
        for seed in range(5):
            truth = closed_square(20.0, seed=seed)
            counts_a, counts_w = inverse_imu(truth, CAL_A, CAL_W, noise,
                                             seed=seed)
            log = ImuLog(t=truth.t, accel=counts_a, gyro=counts_w, fs=FS,
                         lsb_accel=LSB_A, lsb_gyro=LSB_W)
            for estimate, fcfg in ((True, cfg), (False, frozen)):
                traj = run_tracker(log, CAL_A, CAL_W, filter_cfg=fcfg)
                errs[estimate].append(epsilon_ttd(traj, truth.path_length))
        assert np.median(errs[False]) > np.median(errs[True])


# The benchmark's three walk gaits, as (square side m, cadence Hz,
# stance s), with 1 m steps at 100 Hz, 1 s lead-in and tail and Razor
# noise, as `pdrnav simulate` renders them; the benchmark draws the
# noise with seed 0 only.
BENCH_GAITS = {"walk": (10.0, 1.5, 0.15), "slow_walk": (2.0, 0.5, 1.5),
               "imu_characterization": (5.0, 1.5, 0.15)}

# Bounds on the ten-draw medians, m: (closure, checkpoint RMS).  Each
# is 1.4 to 1.5 times the median the tracker reads now (closure 143.8 /
# 16.9 / 107.0 mm, checkpoint RMS 248.3 / 17.9 / 102.6 mm), so a gross
# loss of accuracy fails while accuracy work has room to move them.
DRAW_MEDIAN_BOUNDS = {"walk": (0.20, 0.35), "slow_walk": (0.025, 0.025),
                      "imu_characterization": (0.15, 0.15)}


class TestNoiseDraws:
    def test_ten_draw_medians_of_the_benchmark_gaits(self):
        # One noise draw is a poor yardstick: seed 0 closes the walk
        # gait better than any of seeds 1-9.  The medians over seeds
        # 0-9 are printed beside their bounds (shown with -rP or -s),
        # with seed 0's closure, which the benchmark reports.
        lines = []
        for name, (side, cadence, stance) in BENCH_GAITS.items():
            path = [[0.0, 0.0], [side, 0.0], [side, side], [0.0, side],
                    [0.0, 0.0]]
            closure, cp_rms = [], []
            for seed in range(10):
                truth = generate_gait(GaitParams(
                    step_length=STEP, cadence=cadence, path=path,
                    stance_duration=stance, lead_in=1.0, tail=1.0,
                    seed=seed), FS)
                report = evaluate_trajectory(
                    run_tracker(make_log(truth, seed=seed), CAL_A, CAL_W),
                    truth, truth.path_length)
                errors = np.asarray(report.checkpoint_errors)
                closure.append(report.closure_error)
                cp_rms.append(float(np.sqrt(np.mean(errors ** 2))))
            medians = (float(np.median(closure)), float(np.median(cp_rms)))
            bounds = DRAW_MEDIAN_BOUNDS[name]
            lines.append(
                f"{name}: median closure {1e3 * medians[0]:.1f} mm "
                f"(bound {1e3 * bounds[0]:.0f}), median checkpoint RMS "
                f"{1e3 * medians[1]:.1f} mm (bound {1e3 * bounds[1]:.0f}), "
                f"seed 0 closure {1e3 * closure[0]:.2f} mm")
            assert medians[0] <= bounds[0] and medians[1] <= bounds[1], \
                lines[-1]
        print("\n".join(lines))


class TestSampleRates:
    """The default tracker at rates other than 100 Hz.  The detector
    windows are sized in seconds, so a 0.15 s stance spans the same part
    of them at 50 Hz and at 200 Hz as at 100 Hz."""

    @pytest.mark.parametrize("fs, windows", [(50.0, (3, 1)), (100.0, (6, 3)),
                                             (200.0, (12, 6))])
    def test_windows_follow_the_rate(self, fs, windows):
        cfg = default_stance_config(fs)
        assert (cfg.detect_half_width, cfg.std_half_width) == windows

    @pytest.mark.parametrize("mode", ["soft", "hard"])
    @pytest.mark.parametrize("fs", [50.0, 200.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_square_walk_finds_every_stance_and_closes(self, fs, seed, mode):
        # 80 m square; the event tolerance is 0.05 s, 5 samples at
        # 100 Hz as in criterion 6.
        truth = closed_square(20.0, seed=seed, fs=fs)
        stance_cfg = dataclasses.replace(default_stance_config(fs), mode=mode)
        traj = run_tracker(make_log(truth, seed=seed), CAL_A, CAL_W,
                           stance_cfg=stance_cfg)
        report = event_f1(stance_intervals(traj.stance),
                          stance_intervals(truth.stance),
                          tolerance=round(0.05 * fs))
        assert report["f1"] == 1.0
        assert epsilon_ttd(traj, truth.path_length) <= 0.02


class TestEpsilonTtd:
    def test_closed_trajectory_scores_zero(self):
        traj = Trajectory(t=np.array([0.0, 1.0, 2.0]),
                          p=np.array([[0.0, 0, 0], [1, 1, 0], [0, 0, 0]]),
                          q_nb=np.tile([1.0, 0, 0, 0], (3, 1)),
                          sfs=np.zeros(3), stance=np.zeros(3, dtype=bool))
        assert epsilon_ttd(traj, 300.0) == 0.0

    def test_three_meters_over_three_hundred(self):
        traj = Trajectory(t=np.array([0.0, 1.0]),
                          p=np.array([[0.0, 0, 0], [3.0, 0, 0]]),
                          q_nb=np.tile([1.0, 0, 0, 0], (2, 1)),
                          sfs=np.zeros(2), stance=np.zeros(2, dtype=bool))
        assert epsilon_ttd(traj, 300.0) == pytest.approx(0.01)

    def test_requires_positive_ttd_and_samples(self):
        traj = Trajectory(t=np.array([0.0]), p=np.zeros((1, 3)),
                          q_nb=np.array([[1.0, 0, 0, 0]]),
                          sfs=np.zeros(1), stance=np.zeros(1, dtype=bool))
        with pytest.raises(ValueError, match="positive"):
            epsilon_ttd(traj, 0.0)
        empty = Trajectory(t=np.empty(0), p=np.empty((0, 3)),
                           q_nb=np.empty((0, 4)), sfs=np.empty(0),
                           stance=np.empty(0, dtype=bool))
        with pytest.raises(ValueError, match="empty"):
            epsilon_ttd(empty, 300.0)

    def test_generator_arc_length_matches_requested_path(self):
        # ttd for a generated walk is the waypoint polyline length; the
        # horizontal track the walker lays down must agree with it.
        truth = closed_square(10.0, seed=2)
        assert truth.path_length == pytest.approx(40.0)
        horizontal = np.linalg.norm(np.diff(truth.p[:, :2], axis=0),
                                    axis=1).sum()
        assert abs(horizontal - truth.path_length) / truth.path_length < 0.01


class TestCheckpointErrors:
    def make_traj(self, t=None):
        t = np.arange(11.0) if t is None else t
        n = t.size
        p = np.column_stack([t, np.zeros(n), np.zeros(n)])
        return Trajectory(t=t, p=p, q_nb=np.tile([1.0, 0, 0, 0], (n, 1)),
                          sfs=np.zeros(n), stance=np.zeros(n, dtype=bool))

    def test_self_checkpoints_score_zero(self):
        traj = self.make_traj()
        cps = [(traj.t[k], traj.p[k]) for k in (0, 4, 10)]
        assert checkpoint_errors(traj, cps) == [0.0, 0.0, 0.0]

    def test_unit_offset_scores_one(self):
        traj = self.make_traj()
        cps = [(5.0, traj.p[5] + np.array([0.0, 1.0, 0.0]))]
        assert checkpoint_errors(traj, cps) == pytest.approx([1.0])

    def test_out_of_span_lists_offenders(self):
        traj = self.make_traj()
        cps = [(5.0, traj.p[5]), (99.0, traj.p[5]), (-1.0, traj.p[0])]
        with pytest.raises(ValueError, match=r"99\.0.*-1\.0"):
            checkpoint_errors(traj, cps)

    def test_nearest_sample_close_to_linear_interpolation(self, short_walk):
        # nearest-sample lookup differs from linear interpolation by at
        # most the distance covered in half a sample period
        truth, log = short_walk
        traj = run_tracker(log, CAL_A, CAL_W)
        v_max = np.linalg.norm(truth.v, axis=1).max()
        bound = v_max * (1.0 / FS)
        rng = np.random.default_rng(0)
        times = rng.uniform(traj.t[0], traj.t[-1], size=20)
        for tc in times:
            nearest = checkpoint_errors(traj, [(tc, np.zeros(3))])[0]
            linear = np.linalg.norm(
                [np.interp(tc, traj.t, traj.p[:, i]) for i in range(3)])
            assert abs(nearest - linear) <= bound

    @pytest.mark.parametrize("t, times, samples", [
        # Exactly midway the earlier sample wins.
        (np.arange(11.0), [4.5, 0.5, 9.5], [4, 0, 9]),
        (np.arange(11.0) / 4.0, [0.125, 2.375], [0, 9]),
        # The first and the last sample.
        (np.arange(11.0), [0.0, 10.0], [0, 10]),
        # A one-sample trajectory.
        (np.array([2.5]), [2.5, 2.5], [0, 0]),
        # Out of time order, and either side of a midpoint.
        (np.arange(11.0), [7.2, 1.6, 9.9, 0.4, 4.5000001, 4.4999999],
         [7, 2, 10, 0, 5, 4]),
    ], ids=["midway", "midway_quarter_steps", "first_and_last",
            "one_sample", "out_of_order"])
    def test_nearest_sample_matches_the_loop(self, t, times, samples):
        traj = self.make_traj(t)
        checkpoints = [(tc, np.zeros(3)) for tc in times]
        got = checkpoint_errors(traj, checkpoints)
        assert got == loop_checkpoint_errors(traj, checkpoints)
        # Positions run along x with time, so each error is the time of
        # the sample taken.
        assert got == [float(traj.t[s]) for s in samples]


class TestCheckpointLookup:
    """The one-pass nearest-sample lookup against the per-checkpoint
    loop, bit for bit, on the benchmark's walks."""

    # The benchmark's three walks: side (m), cadence (Hz), stance (s).
    WALKS = {"walk": (10.0, 1.5, 0.15), "slow_walk": (2.0, 0.5, 1.5),
             "imu_characterization": (5.0, 1.5, 0.15)}

    @pytest.fixture(scope="class", params=sorted(WALKS))
    def tracked(self, request):
        side, cadence, stance = self.WALKS[request.param]
        path = [[0.0, 0.0], [side, 0.0], [side, side], [0.0, side], [0.0, 0.0]]
        truth = generate_gait(GaitParams(
            step_length=STEP, cadence=cadence, stance_duration=stance,
            path=path, lead_in=1.0, tail=1.0, seed=0), FS)
        return truth, run_tracker(make_log(truth, seed=0), CAL_A, CAL_W)

    @pytest.mark.parametrize("shift", [0.0, 0.3, 0.5, 0.7])
    def test_matches_the_loop_on_the_benchmark_walks(self, tracked, shift):
        # Shifted by a fraction of a period, every stance midpoint falls
        # between two trajectory samples instead of on one.
        truth, traj = tracked
        traj = dataclasses.replace(traj, t=traj.t + shift / FS)
        report = evaluate_trajectory(traj, truth, truth.path_length)
        checkpoints = [(truth.t[mid], truth.p[mid]) for mid in
                       ((start + stop) // 2
                        for start, stop in stance_intervals(truth.stance))
                       if traj.t[0] <= truth.t[mid] <= traj.t[-1]]
        assert len(checkpoints) >= 5
        want = loop_checkpoint_errors(traj, checkpoints)
        assert checkpoint_errors(traj, checkpoints) == want
        assert report.checkpoint_errors == want


class TestEvalReport:
    def test_ratio_must_be_consistent(self):
        with pytest.raises(ValueError, match="epsilon_ttd"):
            EvalReport(epsilon_ttd=0.5, ttd=300.0, closure_error=3.0)

    def test_rejects_negative_errors(self):
        with pytest.raises(ValueError, match="non-negative"):
            EvalReport(epsilon_ttd=-0.01, ttd=300.0, closure_error=-3.0)

    @pytest.mark.parametrize("ttd", [np.inf, np.nan, 0.0])
    def test_rejects_ttd_that_is_not_positive_and_finite(self, ttd):
        with pytest.raises(ValueError, match="ttd must be positive and finite"):
            EvalReport(epsilon_ttd=0.0, ttd=ttd, closure_error=3.0)

    def test_report_doc(self):
        report = EvalReport(epsilon_ttd=0.01, ttd=300.0, closure_error=3.0,
                            checkpoint_errors=[0.1, 0.2])
        d = _to_doc(report)
        assert d["epsilon_ttd"] == 0.01
        assert d["checkpoint_errors"] == [0.1, 0.2]

    def test_evaluate_trajectory_builds_stance_checkpoints(self, short_walk):
        truth, log = short_walk
        traj = run_tracker(log, CAL_A, CAL_W)
        report = evaluate_trajectory(traj, truth, truth.path_length)
        assert report.ttd == truth.path_length
        assert report.epsilon_ttd == pytest.approx(
            report.closure_error / report.ttd)
        # one checkpoint per true stance interval, and the tracker stays
        # within a meter of each planted foot on a 40 m loop
        assert len(report.checkpoint_errors) >= 40
        assert max(report.checkpoint_errors) < 1.0
