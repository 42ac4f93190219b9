"""Tests for the synthetic gait generator and inverse IMU model.

The generator is the ground-truth oracle for the whole pipeline, so it
gets checked against facts that need no reference implementation: exact
closure of closed paths, calculus consistency between p, v, and a, and
hand-countable stance structure.  The inverse model is checked by
round-tripping through an independent strapdown integrator.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from oracles import (
    mask_generate_gait,
    one_batch_inverse_imu,
    strapdown_integrate,
    zero_noise,
)
from pdrnav import constants, gait
from pdrnav.calibration import (
    SensorCalibration,
    apply_accel_calibration,
    apply_gyro_calibration,
)
from pdrnav.gait import (
    GaitParams,
    GroundTruth,
    NoiseParams,
    generate_gait,
    inverse_imu,
    razor_noise,
    scale_calibration,
    still_truth,
)
from pdrnav.quat import quat_from_rpy
from pdrnav.zupt import stance_intervals

G_VEC = np.array([0.0, 0.0, -constants.GRAVITY])


def straight_params(length=10.0, **kw):
    kw.setdefault("step_length", 1.0)
    kw.setdefault("cadence", 2.0)
    return GaitParams(path=[[0.0, 0.0], [length, 0.0]], **kw)


def square_params(side=4.0, **kw):
    kw.setdefault("step_length", 1.0)
    kw.setdefault("cadence", 2.0)
    path = [[0.0, 0.0], [side, 0.0], [side, side], [0.0, side], [0.0, 0.0]]
    return GaitParams(path=path, **kw)


def out_and_back_params(along=(1.0, 0.0), **kw):
    # 3.5 m out and 3.5 m back at 1 m steps: footfalls 3 and 4 both land
    # 0.5 m short of the far end, so step 3 has a zero chord.
    kw.setdefault("step_length", 1.0)
    kw.setdefault("cadence", 2.0)
    far = [3.5 * along[0], 3.5 * along[1]]
    return GaitParams(path=[[0.0, 0.0], far, [0.0, 0.0]], **kw)


def datasheet_cals():
    return (
        scale_calibration(constants.DEFAULT_LSB_ACCEL),
        scale_calibration(constants.DEFAULT_LSB_GYRO),
    )


class TestGaitStructure:
    def test_straight_walk_has_one_stance_per_step_plus_start(self):
        # 10 m at 1 m steps: ten landings, plus the initial standing
        # interval, gives eleven maximal stance runs.
        truth = generate_gait(straight_params(10.0), 100.0)
        intervals = stance_intervals(truth.stance)
        assert len(intervals) == 11
        assert truth.footfalls.shape == (11, 2)

    def test_footfalls_tile_the_path_evenly(self):
        truth = generate_gait(straight_params(10.0), 100.0)
        spacing = np.linalg.norm(np.diff(truth.footfalls, axis=0), axis=1)
        np.testing.assert_allclose(spacing, 1.0, rtol=1e-12)

    def test_step_count_rounds_to_nearest(self):
        # 10.4 m at 1 m nominal steps realizes 10 slightly longer steps.
        truth = generate_gait(straight_params(10.4), 100.0)
        assert truth.footfalls.shape[0] == 11
        spacing = np.linalg.norm(np.diff(truth.footfalls, axis=0), axis=1)
        np.testing.assert_allclose(spacing, 1.04, rtol=1e-12)

    def test_closed_path_returns_to_start_exactly(self):
        truth = generate_gait(square_params(), 100.0)
        assert np.array_equal(truth.p[-1], truth.p[0])
        assert np.array_equal(truth.footfalls[-1], truth.footfalls[0])

    def test_time_axis(self):
        truth = generate_gait(straight_params(), 100.0)
        assert truth.t[0] == 0.0
        np.testing.assert_allclose(np.diff(truth.t), 0.01, rtol=1e-12)

    def test_stance_mask_freezes_the_foot(self):
        truth = generate_gait(square_params(), 100.0)
        assert np.all(truth.v[truth.stance] == 0.0)
        assert np.all(truth.a[truth.stance] == 0.0)
        assert np.all(truth.omega[truth.stance] == 0.0)
        for start, stop in stance_intervals(truth.stance):
            assert np.all(truth.p[start:stop] == truth.p[start])

    def test_lead_in_and_tail_are_still(self):
        truth = generate_gait(straight_params(lead_in=1.0, tail=1.0), 100.0)
        assert np.all(truth.stance[:100])
        assert np.all(truth.stance[-100:])

    def test_swing_lifts_to_peak_height(self):
        # The sample grid straddles the mid-swing peak, so the sampled
        # maximum sits a hair below the analytic one.
        truth = generate_gait(straight_params(swing_peak_height=0.07), 100.0)
        assert truth.p[:, 2].max() == pytest.approx(0.07, rel=5e-3)
        assert truth.p[:, 2].min() >= 0.0

    @pytest.mark.parametrize("along", [(1.0, 0.0), (0.0, 1.0)], ids=["x", "y"])
    def test_zero_chord_holds_the_heading_and_lifts_in_place(self, along):
        # A step whose two footfalls coincide keeps the heading before
        # it.  Along y the held heading, pi/2, differs from
        # arctan2(0, 0) = 0, so only there would a dropped hold show.
        params = out_and_back_params(along, swing_peak_height=0.07)
        truth = generate_gait(params, 100.0)
        idx = gait._phase_table(params, 100.0).idx
        assert np.array_equal(truth.footfalls[3], truth.footfalls[4])
        yaw = 2.0 * np.arctan2(-truth.q_nb[:, 3], truth.q_nb[:, 0])

        # Swing 2 lands on the repeated footfall facing the held heading
        # throughout.
        onto = idx == 5
        assert np.all(yaw[onto] == yaw[onto][0])
        assert yaw[onto][0] == pytest.approx(np.arctan2(along[1], along[0]),
                                             abs=1e-15)
        assert np.all(truth.omega[onto] == 0.0)

        # Swing 3 runs the zero chord: xy stays on the footfall while
        # the foot still lifts to its peak and yaw turns to the return.
        zero = idx == 7
        assert np.all(truth.p[zero, :2] == truth.footfalls[3])
        assert np.all(truth.v[zero, :2] == 0.0)
        assert truth.p[zero, 2].max() == pytest.approx(0.07, rel=5e-3)
        back = np.arctan2(-along[1], -along[0])
        assert np.cos(yaw[zero][-1] - back) == pytest.approx(1.0, abs=1e-6)


class TestPhaseFill:
    """The whole-array fill against the phase-by-phase oracle, which
    places each footfall, sums each phase start and fills each phase
    through its own mask, bit for bit on every array."""

    WALKS = {
        # The benchmark's walk (40 m square, criterion-4 gait) and its
        # slow walk, and the 300 m acceptance square.
        "bench_walk": lambda: square_params(10.0, cadence=1.5,
                                            stance_duration=0.15),
        "slow_walk": lambda: square_params(2.0, cadence=0.5,
                                           stance_duration=1.5),
        "square_300m": lambda: square_params(75.0, cadence=1.5,
                                             stance_duration=0.15),
        "no_lead_in_or_tail": lambda: square_params(lead_in=0.0, tail=0.0),
        # A triangle whose first turn, from pi to -pi/2, crosses +-pi.
        "turn_across_pi": lambda: GaitParams(
            path=[[0.0, 0.0], [-5.0, 0.0], [-5.0, -5.0], [0.0, 0.0]],
            step_length=1.0, cadence=2.0),
        "out_and_back": out_and_back_params,
        # Closed, off the grid: the last footfall lands on the start only
        # because the end takes the stored waypoint, not arithmetic.
        "closed_off_grid": lambda: GaitParams(
            path=[[0.3, 0.7], [3.3, 0.7], [1.1, 4.9], [0.3, 0.7]],
            step_length=0.9, cadence=2.0),
    }

    CASES = [*((walk, 100.0) for walk in sorted(WALKS)),
             ("bench_walk", 50.0), ("bench_walk", 137.0),
             ("bench_walk", 200.0), ("out_and_back", 137.0)]

    @pytest.mark.parametrize("walk, fs", CASES, ids=[
        walk if fs == 100.0 else f"{walk}-{fs:g}Hz" for walk, fs in CASES])
    def test_matches_the_mask_loop(self, walk, fs):
        params = self.WALKS[walk]()
        got = generate_gait(params, fs)
        want = mask_generate_gait(params, fs)
        for f in fields(GroundTruth):
            g, w = getattr(got, f.name), getattr(want, f.name)
            if isinstance(w, np.ndarray):
                assert g.dtype == w.dtype, f.name
                np.testing.assert_array_equal(g, w, err_msg=f.name)
            else:
                assert g == w, f.name


class TestGaitCalculus:
    def test_velocity_integrates_acceleration(self):
        # Trapezoid integration of the analytic acceleration recovers
        # the analytic velocity; the comparison needs a fine grid
        # because the trapezoid rule itself carries O(h^2) error.
        params = straight_params(3.0, lead_in=0.5, tail=0.5)
        truth = generate_gait(params, 16000.0)
        v_int = np.cumsum((truth.a[1:] + truth.a[:-1]) / 2.0, axis=0) / truth.fs
        assert np.max(np.abs(truth.v[1:] - v_int)) < 1e-6

    def test_position_integrates_velocity(self):
        params = straight_params(3.0, lead_in=0.5, tail=0.5)
        truth = generate_gait(params, 16000.0)
        p_int = truth.p[0] + np.cumsum(
            (truth.v[1:] + truth.v[:-1]) / 2.0, axis=0) / truth.fs
        assert np.max(np.abs(truth.p[1:] - p_int)) < 1e-7

    def test_integration_error_shrinks_quadratically(self):
        # Halving the step divides the trapezoid mismatch by about four,
        # which is only possible when v really is the derivative of p
        # and a the derivative of v.
        errs = []
        for fs in (8000.0, 16000.0):
            params = straight_params(3.0, lead_in=0.5, tail=0.5)
            truth = generate_gait(params, fs)
            v_int = np.cumsum((truth.a[1:] + truth.a[:-1]) / 2.0, axis=0) / fs
            errs.append(np.max(np.abs(truth.v[1:] - v_int)))
        ratio = errs[0] / errs[1]
        assert 3.5 < ratio < 4.5

    def test_trajectory_is_c2(self):
        # Central differences of p match v, and of v match a, away from
        # phase boundaries where the jerk is allowed to jump.
        truth = generate_gait(square_params(), 4000.0)
        fs = truth.fs
        edges = np.flatnonzero(np.diff(truth.stance)) + 1
        interior = np.ones(truth.t.size, dtype=bool)
        interior[0] = interior[-1] = False
        for e in edges:
            interior[max(e - 2, 0):e + 2] = False
        k = np.flatnonzero(interior)
        dp = (truth.p[k + 1] - truth.p[k - 1]) * fs / 2.0
        dv = (truth.v[k + 1] - truth.v[k - 1]) * fs / 2.0
        assert np.max(np.abs(dp - truth.v[k])) < 1e-4
        assert np.max(np.abs(dv - truth.a[k])) < 2e-3

    def test_yaw_rate_integrates_heading(self):
        truth = generate_gait(square_params(), 4000.0)
        yaw = 2.0 * np.arctan2(-truth.q_nb[:, 3], truth.q_nb[:, 0])
        yaw = np.unwrap(yaw)
        y_int = yaw[0] + np.cumsum(
            (truth.omega[1:, 2] + truth.omega[:-1, 2]) / 2.0) / truth.fs
        assert np.max(np.abs(yaw[1:] - y_int)) < 1e-6


class TestAttitude:
    def test_quaternion_matches_pure_yaw_convention(self):
        # Walking along +y means heading pi/2; stance samples must carry
        # the same quaternion the attitude helper builds for that yaw.
        params = GaitParams(step_length=1.0, cadence=2.0,
                            path=[[0.0, 0.0], [0.0, 6.0]])
        truth = generate_gait(params, 100.0)
        expected = quat_from_rpy(0.0, 0.0, np.pi / 2.0)
        mid = truth.t.size // 2
        assert truth.stance[mid] or True  # sample choice is arbitrary
        np.testing.assert_allclose(truth.q_nb[-1], expected, atol=1e-12)
        norms = np.linalg.norm(truth.q_nb, axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-12)

    def test_heading_holds_during_stance(self):
        truth = generate_gait(square_params(), 100.0)
        for start, stop in stance_intervals(truth.stance):
            assert np.all(truth.q_nb[start:stop] == truth.q_nb[start])

    def test_turns_take_the_short_way(self):
        # A square path turns +90 degrees at each of its three interior
        # corners; yaw must pass through intermediate values rather than
        # swinging -270, and the walker finishes heading down the last
        # leg, three quarter-turns past where it started.
        truth = generate_gait(square_params(), 100.0)
        yaw = np.unwrap(2.0 * np.arctan2(-truth.q_nb[:, 3], truth.q_nb[:, 0]))
        assert np.max(np.abs(np.diff(yaw))) < np.pi / 8.0
        assert yaw[-1] - yaw[0] == pytest.approx(1.5 * np.pi, abs=1e-9)


class TestInverseImu:
    def test_still_level_sensor_reads_gravity_in_counts(self):
        truth = still_truth(5.0, 100.0)
        accel_cal, gyro_cal = datasheet_cals()
        counts_a, counts_w = inverse_imu(truth, accel_cal, gyro_cal,
                                         zero_noise(), seed=3)
        expected_z = np.rint(constants.GRAVITY / constants.DEFAULT_LSB_ACCEL)
        assert np.all(counts_a[:, 2] == expected_z)
        assert np.all(counts_a[:, :2] == 0)
        assert np.all(counts_w == 0)
        assert np.issubdtype(counts_a.dtype, np.integer)

    def test_counts_stay_in_sixteen_bit_range(self):
        truth = generate_gait(straight_params(), 100.0)
        accel_cal, gyro_cal = datasheet_cals()
        counts_a, counts_w = inverse_imu(truth, accel_cal, gyro_cal,
                                         razor_noise(100.0), seed=9)
        for counts in (counts_a, counts_w):
            assert counts.min() >= -32768
            assert counts.max() <= 32767

    def test_zero_noise_round_trip_strapdown(self):
        # Decode the unrounded counts with the same calibration and dead
        # reckon with an independent integrator: the walk with two turns
        # must come back to within a millimeter over ten seconds.
        truth = generate_gait(square_params(), 4000.0)
        accel_cal, gyro_cal = datasheet_cals()
        raw_a, raw_w = one_batch_inverse_imu(truth, accel_cal, gyro_cal,
                                             zero_noise(), quantize=False)
        f_b = apply_accel_calibration(accel_cal, raw_a)
        w_b = apply_gyro_calibration(gyro_cal, raw_w)
        p_hat, v_hat, _ = strapdown_integrate(
            truth.t, f_b, w_b, truth.q_nb[0], truth.p[0], truth.v[0], G_VEC)
        assert truth.t[-1] > 10.0
        assert np.max(np.linalg.norm(p_hat - truth.p, axis=1)) < 1e-3

    def test_constant_gyro_bias_drifts_heading_linearly(self):
        # Encode a still record with a gyro whose count bias hides
        # 0.01 rad/s about z, decode with the clean calibration, and the
        # integrated heading must ramp at exactly that rate.
        truth = still_truth(10.0, 100.0)
        accel_cal, gyro_cal = datasheet_cals()
        bias_rate = 0.01
        biased = scale_calibration(constants.DEFAULT_LSB_GYRO)
        biased.bias = biased.gain @ np.array([0.0, 0.0, bias_rate])
        raw_a, raw_w = one_batch_inverse_imu(truth, accel_cal, biased,
                                             zero_noise(), quantize=False)
        f_b = apply_accel_calibration(accel_cal, raw_a)
        w_b = apply_gyro_calibration(gyro_cal, raw_w)
        np.testing.assert_allclose(w_b[:, 2], bias_rate, rtol=1e-9)
        _, _, quats = strapdown_integrate(
            truth.t, f_b, w_b, truth.q_nb[0], truth.p[0], truth.v[0], G_VEC)
        yaw = 2.0 * np.arctan2(-quats[:, 3], quats[:, 0])
        np.testing.assert_allclose(yaw, bias_rate * truth.t, atol=1e-9)

    def test_same_seed_is_bit_identical(self):
        truth = generate_gait(straight_params(), 100.0)
        accel_cal, gyro_cal = datasheet_cals()
        first = inverse_imu(truth, accel_cal, gyro_cal, razor_noise(100.0), seed=7)
        second = inverse_imu(truth, accel_cal, gyro_cal, razor_noise(100.0), seed=7)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])
        other = inverse_imu(truth, accel_cal, gyro_cal, razor_noise(100.0), seed=8)
        assert not np.array_equal(first[0], other[0])

    def test_noise_magnitude_matches_density(self):
        # A still record decoded back to physical units should show the
        # white-noise sigma the density implies at this rate.
        fs = 100.0
        truth = still_truth(60.0, fs)
        accel_cal, gyro_cal = datasheet_cals()
        noise = razor_noise(fs)
        raw_a, _ = one_batch_inverse_imu(truth, accel_cal, gyro_cal, noise,
                                         seed=5, quantize=False)
        f_b = apply_accel_calibration(accel_cal, raw_a)
        measured = np.std(np.diff(f_b[:, 0])) / np.sqrt(2.0)
        expected = constants.RAZOR_ACCEL_N[0] * np.sqrt(fs)
        assert measured == pytest.approx(expected, rel=0.1)


class TestInverseImuBlocks:
    """The block rendering against the one-batch oracle, bit for bit.

    With 7-row blocks the short records cover several full blocks, a
    ragged tail, an exact multiple, a record shorter than one block, one
    of exactly one block (the kept first block of white gyro draws) and
    one a row longer (the first block drawn again from the saved state).
    """

    @staticmethod
    def coupled_cals():
        # Cross-coupled gains and count biases, so the count mapping
        # mixes axes and the rounding sees fractional values.
        rng = np.random.default_rng(70)
        accel = SensorCalibration(
            gain=(np.eye(3) + rng.uniform(-0.05, 0.05, (3, 3)))
            / constants.DEFAULT_LSB_ACCEL,
            bias=[412.3, -655.8, 71.5], noise_sigma=1.0)
        gyro = SensorCalibration(
            gain=(np.eye(3) + rng.uniform(-0.02, 0.02, (3, 3)))
            / constants.DEFAULT_LSB_GYRO,
            bias=[-3.25, 17.5, 0.4], noise_sigma=1.0)
        return accel, gyro

    RECORDS = {
        "walk": lambda: generate_gait(square_params(), 100.0),
        "still_ragged": lambda: still_truth(0.19, 100.0, yaw=0.7),
        "still_multiple": lambda: still_truth(0.13, 100.0, yaw=-2.1),
        "still_short": lambda: still_truth(0.04, 100.0, yaw=0.3),
        "still_one_block": lambda: still_truth(0.06, 100.0, yaw=1.1),
        "still_one_block_and_a_row": lambda: still_truth(0.07, 100.0, yaw=-0.6),
    }

    @pytest.mark.parametrize("record", sorted(RECORDS))
    # The oracle's rounded path, the only one `inverse_imu` renders.
    @pytest.mark.parametrize("quantize", [True])
    @pytest.mark.parametrize("noise", [razor_noise(100.0), zero_noise()],
                             ids=["razor", "zero"])
    def test_matches_one_batch(self, monkeypatch, record, quantize, noise):
        monkeypatch.setattr(gait, "_BLOCK_ROWS", 7)
        truth = self.RECORDS[record]()
        accel_cal, gyro_cal = self.coupled_cals()
        got = inverse_imu(truth, accel_cal, gyro_cal, noise, seed=11)
        want = one_batch_inverse_imu(truth, accel_cal, gyro_cal, noise,
                                     seed=11, quantize=quantize)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)

    def test_records_cover_the_block_cases(self):
        sizes = {name: make().t.size for name, make in self.RECORDS.items()}
        assert sizes["walk"] > 7 and sizes["walk"] % 7 != 0
        assert (sizes["still_ragged"], sizes["still_multiple"],
                sizes["still_short"], sizes["still_one_block"],
                sizes["still_one_block_and_a_row"]) == (20, 14, 5, 7, 8)

    def test_matches_one_batch_at_the_default_block(self):
        truth = still_truth(100.0, 100.0, yaw=0.7)
        assert truth.t.size > 2 * gait._BLOCK_ROWS
        assert truth.t.size % gait._BLOCK_ROWS != 0
        accel_cal, gyro_cal = self.coupled_cals()
        got = inverse_imu(truth, accel_cal, gyro_cal, razor_noise(100.0),
                          seed=12)
        want = one_batch_inverse_imu(truth, accel_cal, gyro_cal,
                                     razor_noise(100.0), seed=12)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)


class TestDetectorOnSyntheticWalks:
    def test_stance_detection_f1_at_default_thresholds(self):
        # The generator's stance mask is the ground truth the detector
        # defaults were tuned against: sample-level F1 must clear 0.95
        # on noisy walks, and every detected event must sit within five
        # samples of a true stance interval.
        from pdrnav.zupt import default_stance_config, match_intervals, \
            sfs_series
        fs = 100.0
        accel_cal, gyro_cal = datasheet_cals()
        cfg = default_stance_config(fs)
        path = [[0.0, 0.0], [15.0, 0.0], [15.0, 10.0], [0.0, 10.0], [0.0, 0.0]]
        for seed in range(5):
            params = GaitParams(step_length=1.0, cadence=2.0, path=path,
                                seed=seed)
            truth = generate_gait(params, fs)
            raw_a, raw_w = inverse_imu(truth, accel_cal, gyro_cal,
                                       razor_noise(fs), seed=seed)
            f_b = apply_accel_calibration(accel_cal, raw_a.astype(float))
            w_b = apply_gyro_calibration(gyro_cal, raw_w.astype(float))
            scores = sfs_series(f_b, w_b, cfg)
            active = scores >= cfg.sfs_threshold
            tp = np.sum(active & truth.stance)
            precision = tp / max(np.sum(active), 1)
            recall = tp / np.sum(truth.stance)
            f1 = 2.0 * precision * recall / (precision + recall)
            assert f1 >= 0.95, f"seed {seed}: sample F1 {f1:.3f}"
            events = stance_intervals(active)
            truth_iv = stance_intervals(truth.stance)
            matched = match_intervals(events, truth_iv, tolerance=5)
            assert matched == len(events), \
                f"seed {seed}: stray detection outside truth +-5 samples"


class TestValidation:
    def test_waypoints_closer_than_a_step(self):
        with pytest.raises(ValueError, match="segment"):
            GaitParams(step_length=1.0, cadence=2.0,
                       path=[[0.0, 0.0], [0.4, 0.0], [5.0, 0.0]])

    def test_bad_step_and_cadence(self):
        with pytest.raises(ValueError, match="step_length"):
            GaitParams(step_length=0.0, cadence=2.0, path=[[0, 0], [5, 0]])
        with pytest.raises(ValueError, match="cadence"):
            GaitParams(step_length=1.0, cadence=0.0, path=[[0, 0], [5, 0]])

    def test_stance_must_fit_in_cycle(self):
        with pytest.raises(ValueError, match="stance_duration"):
            GaitParams(step_length=1.0, cadence=2.0, stance_duration=0.5,
                       path=[[0, 0], [5, 0]])

    def test_path_shape(self):
        with pytest.raises(ValueError, match="path"):
            GaitParams(step_length=1.0, cadence=2.0, path=[[0, 0]])
        with pytest.raises(ValueError, match="path"):
            GaitParams(step_length=1.0, cadence=2.0, path=[0, 1, 2])

    def test_negative_height_and_margins(self):
        with pytest.raises(ValueError, match="swing_peak_height"):
            GaitParams(step_length=1.0, cadence=2.0, swing_peak_height=-0.1,
                       path=[[0, 0], [5, 0]])
        with pytest.raises(ValueError, match="lead_in"):
            GaitParams(step_length=1.0, cadence=2.0, lead_in=-1.0,
                       path=[[0, 0], [5, 0]])

    def test_sample_rate_floor(self):
        with pytest.raises(ValueError, match="fs"):
            generate_gait(straight_params(), 40.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["step_length", "cadence",
                                      "stance_duration", "swing_peak_height",
                                      "lead_in", "tail", "fs"])
    def test_non_finite_values_are_refused(self, name, value):
        # Each is refused by name, not rendered into a non-finite truth
        # or left to overflow the sample clock.
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            if name == "fs":
                generate_gait(straight_params(), value)
            else:
                params = dict(step_length=1.0, cadence=2.0,
                              path=[[0, 0], [5, 0]])
                params[name] = value
                generate_gait(GaitParams(**params), 100.0)

    def test_still_truth_validation(self):
        with pytest.raises(ValueError, match="duration"):
            still_truth(0.0, 100.0)
        with pytest.raises(ValueError, match="fs"):
            still_truth(5.0, -1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["duration", "fs"])
    def test_still_truth_refuses_non_finite(self, name, value):
        # Refused by name, not left to the sample count's conversion.
        args = {"duration": 5.0, "fs": 100.0, name: value}
        with pytest.raises(ValueError, match=rf"^{name} must be positive "
                                             rf"and finite, got {value!r}$"):
            still_truth(**args)

    @pytest.mark.parametrize("name", ["lead_in", "tail", "duration"])
    def test_a_clock_too_long_to_count_is_refused(self, name):
        # Finite, but its sample count overflows a float: refused by
        # name before any array of that length is sized.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"\b{name}\b.* too long"):
                if name == "duration":
                    still_truth(1e308, 100.0)
                else:
                    generate_gait(GaitParams(step_length=1.0, cadence=2.0,
                                             path=[[0, 0], [5, 0]],
                                             **{name: 1e308}), 100.0)
            assert tracemalloc.get_traced_memory()[1] < 1_000_000
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("value", [[0.1, 0.2], [[0.1, 0.2, 0.3]],
                                       np.zeros((3, 3))])
    def test_noise_of_the_wrong_shape_is_refused_by_name(self, value):
        with pytest.raises(ValueError, match=r"^accel_sigma must broadcast "
                                             r"to shape \(3,\), got shape"):
            NoiseParams(value, 0.0, 0.0, 0.0)

    def test_noise_params_validation(self):
        with pytest.raises(ValueError, match="accel_sigma"):
            NoiseParams(-1.0, 0.0, 0.0, 0.0)
        scalar = NoiseParams(0.01, 0.001, 0.0, 0.0)
        assert scalar.accel_sigma.shape == (3,)
        np.testing.assert_allclose(scalar.accel_sigma, 0.01)

    def test_scale_calibration_validation(self):
        with pytest.raises(ValueError, match="lsb"):
            scale_calibration(0.0)
        cal = scale_calibration(0.5)
        np.testing.assert_allclose(cal.gain, np.eye(3) * 2.0)

    @pytest.mark.parametrize("lsb", [constants.DEFAULT_LSB_ACCEL,
                                     constants.DEFAULT_LSB_GYRO])
    def test_scale_calibration_noise_is_one_count(self, lsb):
        # noise_sigma is in physical units, as the fit and `pdrnav
        # calibrate` write it; a datasheet calibration's is one count.
        assert scale_calibration(lsb).noise_sigma == lsb
        assert scale_calibration(lsb, noise_sigma=0.02).noise_sigma == 0.02
