"""End-to-end tracking loop, evaluation metrics, and failure paths.

The gait generator supplies ground truth, so these tests can make
absolute claims: a still minute must stay put, a closed walk must
close, and turning the stance machinery off must visibly hurt.
"""

from __future__ import annotations

import dataclasses
import sys

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
from pdrnav.zupt import PSEUDO_GROUPS, StanceConfig, default_stance_config

from oracles import chain_tracker

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
    counts_a, counts_w = inverse_imu(truth, CAL_A, CAL_W, razor_noise(FS),
                                     seed=seed)
    return ImuLog(t=truth.t, accel=counts_a, gyro=counts_w, fs=FS,
                  lsb_accel=LSB_A, lsb_gyro=LSB_W)


def closed_square(side, seed):
    path = [[0.0, 0.0], [side, 0.0], [side, side], [0.0, side], [0.0, 0.0]]
    params = GaitParams(step_length=STEP, cadence=CADENCE, path=path,
                        seed=seed)
    return generate_gait(params, FS)


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

    @pytest.mark.parametrize("row", [0, tracker_module._CHECK_ROWS - 1,
                                     tracker_module._CHECK_ROWS, -1])
    @pytest.mark.parametrize("bad", [0.5, -3.25, np.nan])
    def test_rejects_fractional_counts_in_any_block(self, row, bad):
        # Float counts are checked block by block; a bad value in the
        # ragged last block must be caught like one in the first.
        n = 2 * tracker_module._CHECK_ROWS + 5
        for sensor in ("accel", "gyro"):
            arrays = {"accel": np.full((n, 3), 7.0), "gyro": np.zeros((n, 3))}
            arrays[sensor][row, 2] = bad
            with pytest.raises(ValueError, match=f"{sensor} counts must be integers"):
                ImuLog(t=np.arange(n) / FS, fs=FS, lsb_accel=LSB_A,
                       lsb_gyro=LSB_W, **arrays)

    def test_accepts_whole_counts_of_any_dtype(self):
        n = tracker_module._CHECK_ROWS + 3
        for dtype in (np.int16, np.int32, np.int64, np.uint16, np.float64):
            counts = np.full((n, 3), 1234, dtype=dtype)
            log = ImuLog(t=np.arange(n) / FS, accel=counts, gyro=counts,
                         fs=FS, lsb_accel=LSB_A, lsb_gyro=LSB_W)
            assert log.accel.dtype == dtype

    def test_rejects_out_of_range_counts(self):
        with pytest.raises(ValueError, match="range"):
            ImuLog(t=np.array([0.0, 0.01]), accel=np.full((2, 3), 40000.0),
                   gyro=np.zeros((2, 3)), fs=FS,
                   lsb_accel=LSB_A, lsb_gyro=LSB_W)


class TestRunTracker:
    def test_zero_length_log_gives_empty_trajectory(self):
        log = ImuLog(t=np.empty(0), accel=np.empty((0, 3)),
                     gyro=np.empty((0, 3)), fs=FS,
                     lsb_accel=LSB_A, lsb_gyro=LSB_W)
        traj = run_tracker(log, CAL_A, CAL_W)
        assert traj.t.size == 0
        assert traj.p.shape == (0, 3)

    def test_still_minute_stays_within_five_centimeters(self):
        truth = still_truth(60.0, FS)
        log = make_log(truth, seed=1)
        traj = run_tracker(log, CAL_A, CAL_W)
        drift = np.linalg.norm(traj.p[-1] - traj.p[0])
        assert drift < 0.05

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
        assert exc.diagnostic.sample_index == 0
        assert exc.diagnostic.covariance_condition > 0.0
        assert exc.diagnostic.message
        assert exc.trajectory.t.size == 0

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

    def test_stance_config_is_read_afresh_each_run(self, short_walk):
        # The tracker builds the pseudo-measurement row mask and base
        # variances once per run; a config changed between two runs
        # must be honoured by the second, exactly as a fresh config is.
        _, log = short_walk
        cfg = default_stance_config(FS)
        first = run_tracker(log, CAL_A, CAL_W, stance_cfg=cfg)
        cfg.pseudo_groups["velocity"] = False
        second = run_tracker(log, CAL_A, CAL_W, stance_cfg=cfg)
        groups = {name: name != "velocity" for name, _ in PSEUDO_GROUPS}
        fresh = run_tracker(log, CAL_A, CAL_W, stance_cfg=StanceConfig(
            pseudo_variances=default_stance_config(FS).pseudo_variances,
            pseudo_groups=groups))
        assert np.max(np.abs(second.p - first.p)) > 1e-3
        np.testing.assert_array_equal(second.p, fresh.p)
        np.testing.assert_array_equal(second.q_nb, fresh.q_nb)

    def test_groups_switched_off_after_construction_are_refused(self,
                                                                short_walk):
        # The flags are a mutable dict, so the "at least one group" rule
        # is checked again when the run builds its stance stack: the run
        # is refused before its first sample, not diverged at it.
        _, log = short_walk
        cfg = default_stance_config(FS)
        for name in cfg.pseudo_groups:
            cfg.pseudo_groups[name] = False
        with pytest.raises(ValueError, match="pseudo_groups"):
            run_tracker(log, CAL_A, CAL_W, stance_cfg=cfg)


def _stance_variant(name):
    cfg = default_stance_config(FS)
    if name == "hard":
        cfg.mode = "hard"
    elif name == "groups":
        cfg.pseudo_groups["velocity"] = False
        cfg.pseudo_groups["gravity_norm"] = False
    return cfg


# The functions that run each stage of a step: the tracker's kernel, and
# the dense form of the two updates in `oracles.chain_tracker`, which
# reach the checks through `oracles.kalman_update`.
_STAGE_KERNELS = {"predict": {"predict"},
                  "imu": {"update", "dense_imu_update"},
                  "stance": {"_measurement_update", "dense_stance_update"}}


def inject_fault(monkeypatch, stage, fault, at):
    """Corrupt one matrix that a check inside ``stage``'s kernel reads,
    on that kernel's ``at``-th call (1-based): a NaN covariance entry
    (``"nonfinite"``), or a negative diagonal entry (``"indefinite"``) in
    the covariance at predict and in S at the two updates."""
    kernels = _STAGE_KERNELS[stage]
    if fault == "nonfinite" or stage == "predict":
        name = "_check_covariance"
        value = np.nan if fault == "nonfinite" else -1.0
    else:
        name, value = "_innovation_gain", -1.0
    real = getattr(ekf_module, name)
    calls = {"n": 0}

    def corrupt(mat, *rest):
        caller = sys._getframe(1).f_code.co_name
        if caller == "kalman_update":
            caller = sys._getframe(2).f_code.co_name
        if caller in kernels:
            calls["n"] += 1
            if calls["n"] == at:
                mat = mat.copy()
                mat[0, 0] = value
        return real(mat, *rest)

    monkeypatch.setattr(ekf_module, name, corrupt)


class TestSingleStep:
    """`run_tracker` runs one step per sample on a mean and covariance
    it owns; it must be the chain of dense, per-call forms
    (`oracles.chain_tracker`) bit for bit, fail where that chain fails,
    and run no more checks than the chain."""

    @pytest.mark.parametrize("walk, variant", [
        ("short_walk", "soft"), ("short_walk", "hard"),
        ("short_walk", "groups"), ("short_walk", "biases_off"),
        ("slow_walk", "soft"), ("slow_walk", "groups"),
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

    @pytest.mark.parametrize("fault", ["nonfinite", "indefinite"])
    @pytest.mark.parametrize("stage, at", [
        ("predict", 300), ("imu", 300), ("stance", 40),
    ])
    def test_divergence_parity(self, short_walk, monkeypatch, stage, fault, at):
        _, log = short_walk
        caught = []
        for tracker in (run_tracker, chain_tracker):
            with monkeypatch.context() as m:
                inject_fault(m, stage, fault, at)
                with pytest.raises(TrackerDivergence) as info:
                    tracker(log, CAL_A, CAL_W)
            caught.append(info.value)
        step, chain = caught
        want = at - 1
        if stage == "stance":
            want = int(np.flatnonzero(run_tracker(log, CAL_A, CAL_W).stance)[want])
        message = {
            "nonfinite": "covariance is no longer finite",
            "indefinite": "innovation covariance not positive definite "
                          "(dpotrf info 1)",
        }[fault]
        if (stage, fault) == ("predict", "indefinite"):
            message = "covariance lost positive semidefiniteness (min diag -1)"
        for exc in (step, chain):
            assert exc.diagnostic.sample_index == want
            assert exc.diagnostic.message == message
            assert exc.trajectory.t.size == want
        assert (step.diagnostic.covariance_condition
                == chain.diagnostic.covariance_condition)
        np.testing.assert_array_equal(step.trajectory.p, chain.trajectory.p)
        np.testing.assert_array_equal(step.trajectory.q_nb,
                                      chain.trajectory.q_nb)

    def test_divergence_in_track_exits_three_with_partial_output(
            self, short_walk, monkeypatch, tmp_path, capsys):
        _, log = short_walk
        write_log(tmp_path / "walk.csv", log)
        write_calibration(tmp_path / "cal.json", CAL_A, CAL_W)
        write_config(tmp_path / "config.json", PipelineConfig(
            filter=default_filter_config(FS), stance=default_stance_config(FS),
            calibration_paths={"accel": "cal.json", "gyro": "cal.json"}))
        want = int(np.flatnonzero(run_tracker(log, CAL_A, CAL_W).stance)[39])
        inject_fault(monkeypatch, "stance", "indefinite", 40)
        code = main(["track", "--log", str(tmp_path / "walk.csv"),
                     "--cal", str(tmp_path / "cal.json"),
                     "--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path / "traj.csv")])
        assert code == 3
        assert f"diverged at sample {want} " in capsys.readouterr().err
        assert read_trajectory(tmp_path / "traj.csv").t.size == want

    def test_check_and_identity_counts(self, short_walk, monkeypatch):
        # Per sample: one covariance check after predict, one after the
        # IMU update and one after each stance update; the identity is a
        # module constant, so numpy builds none during a run.
        _, log = short_walk
        counts = {"check": 0, "eye": 0}
        real_check, real_eye = ekf_module._check_covariance, np.eye

        def check(p_mat):
            counts["check"] += 1
            return real_check(p_mat)

        def eye(*args, **kwargs):
            counts["eye"] += 1
            return real_eye(*args, **kwargs)

        monkeypatch.setattr(ekf_module, "_check_covariance", check)
        monkeypatch.setattr(np, "eye", eye)
        traj = run_tracker(log, CAL_A, CAL_W)
        assert counts["check"] == 2 * traj.t.size + int(traj.stance.sum())
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
    def make_traj(self):
        n = 11
        t = np.arange(n, dtype=float)
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


class TestEvalReport:
    def test_ratio_must_be_consistent(self):
        with pytest.raises(ValueError, match="epsilon_ttd"):
            EvalReport(epsilon_ttd=0.5, ttd=300.0, closure_error=3.0)

    def test_rejects_negative_errors(self):
        with pytest.raises(ValueError, match="non-negative"):
            EvalReport(epsilon_ttd=-0.01, ttd=300.0, closure_error=-3.0)

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
