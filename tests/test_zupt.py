"""Stance detection and pseudo-measurement tests.

The residual-stack oracle re-derives every row from scratch with scipy
rotations; the windowed standard deviations are pinned through the
public interface by bisecting the C2/C4 thresholds around hand-computed
two-pass values.
"""

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from pdrnav import ekf, zupt
from pdrnav.constants import GRAVITY
from pdrnav.quat import quat_from_rpy, quat_normalize, quat_rotate

from oracles import (
    condition_signals,
    hard_detector,
    kalman_update,
    random_covariance,
    richardson_jacobian,
    sfs,
)

G_VEC = np.array([0.0, 0.0, -GRAVITY])


def wide_open_config(**overrides):
    """Config whose std limits never bind, so C1/C3 drive everything."""
    base = dict(
        accel_std_max=1e9,
        gyro_std_max=1e9,
        detect_half_width=4,
        std_half_width=2,
    )
    base.update(overrides)
    return zupt.StanceConfig(**base)


def still_signals(n, mag=GRAVITY):
    accel = np.zeros((n, 3))
    accel[:, 2] = mag
    gyro = np.zeros((n, 3))
    return accel, gyro


def noisy_signals(n, seed, accel_noise=0.3, gyro_noise=0.2):
    """Signals rough enough to flip every condition somewhere."""
    rng = np.random.default_rng(seed)
    accel, gyro = still_signals(n)
    accel += accel_noise * rng.standard_normal((n, 3))
    gyro += gyro_noise * rng.standard_normal((n, 3))
    return accel, gyro


def two_pass_std(vals):
    """The textbook formula, independent of the package's running sums."""
    vals = np.asarray(vals, dtype=float)
    m = vals.sum() / vals.size
    return float(np.sqrt(((vals - m) ** 2).sum() / vals.size))


class TestConditionSignals:
    def test_still_samples_all_true(self):
        accel, gyro = still_signals(21)
        cfg = zupt.StanceConfig()
        for i in (0, 10, 20):
            assert condition_signals(accel, gyro, cfg, i) == (
                True, True, True, True,
            )

    def test_free_fall_fails_magnitude_band(self):
        accel, gyro = still_signals(21, mag=0.0)
        cfg = zupt.StanceConfig()
        c1, _, _, _ = condition_signals(accel, gyro, cfg, 10)
        assert not c1

    def test_magnitude_band_is_strict_two_sided(self):
        cfg = zupt.StanceConfig()
        for mag, want in [
            (cfg.accel_norm_min - 0.01, False),
            (cfg.accel_norm_max + 0.01, False),
            (0.5 * (cfg.accel_norm_min + cfg.accel_norm_max), True),
        ]:
            accel, gyro = still_signals(5, mag=mag)
            c1 = condition_signals(accel, gyro, cfg, 2)[0]
            assert c1 is want

    def test_gyro_threshold(self):
        accel, gyro = still_signals(11)
        gyro[:, 1] = 0.7
        cfg = zupt.StanceConfig(gyro_norm_max=0.6)
        assert condition_signals(accel, gyro, cfg, 5)[2] is False

    def test_std_matches_two_pass_formula(self):
        # Pin the computed window deviation by bisecting the threshold
        # around the hand formula, through both evaluation paths.
        mags = [9.8, 9.9, 9.7, 10.0, 9.6]
        accel, gyro = still_signals(5)
        accel[:, 2] = mags
        sigma = two_pass_std(mags)
        for eps, want in [(1e-9, True), (-1e-9, False)]:
            cfg = zupt.StanceConfig(
                accel_std_max=sigma * (1 + eps), std_half_width=2
            )
            assert condition_signals(accel, gyro, cfg, 2)[1] is want
            assert bool(zupt.condition_series(accel, gyro, cfg)[1][2]) is want

    def test_edge_window_is_truncated_not_padded(self):
        # At index 0 only samples 0..S exist; the deviation must be the
        # deviation of that prefix.
        mags = [9.8, 10.3, 9.5, 12.0, 7.0, 9.9]
        accel, gyro = still_signals(6)
        accel[:, 2] = mags
        sigma = two_pass_std(mags[:3])
        for eps, want in [(1e-9, True), (-1e-9, False)]:
            cfg = zupt.StanceConfig(
                accel_std_max=sigma * (1 + eps), std_half_width=2
            )
            assert condition_signals(accel, gyro, cfg, 0)[1] is want
            assert bool(zupt.condition_series(accel, gyro, cfg)[1][0]) is want

    def test_series_agrees_with_per_index(self):
        accel, gyro = noisy_signals(300, seed=7)
        cfg = zupt.StanceConfig()
        series = zupt.condition_series(accel, gyro, cfg)
        flips = sum(int(np.any(s) and not np.all(s)) for s in series)
        assert flips >= 2  # the data must actually exercise the logic
        for i in range(300):
            got = condition_signals(accel, gyro, cfg, i)
            want = tuple(bool(s[i]) for s in series)
            assert got == want, f"disagreement at sample {i}"

    def test_index_out_of_range(self):
        accel, gyro = still_signals(5)
        with pytest.raises(IndexError):
            condition_signals(accel, gyro, zupt.StanceConfig(), 5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            condition_signals(
                np.zeros((5, 3)), np.zeros((4, 3)), zupt.StanceConfig(), 0
            )


class TestSfs:
    def test_all_conditions_true_gives_one(self):
        accel, gyro = still_signals(61)
        cfg = zupt.StanceConfig()
        assert sfs(accel, gyro, cfg, 30) == 1.0
        assert zupt.sfs_series(accel, gyro, cfg)[30] == 1.0

    def test_all_false_gives_zero(self):
        accel, gyro = still_signals(61, mag=20.0)
        cfg = zupt.StanceConfig()
        assert sfs(accel, gyro, cfg, 30) == 0.0

    def test_half_window_true_is_near_half(self):
        # 10 in-band samples inside a 21-sample window.
        cfg = wide_open_config(detect_half_width=10)
        accel, gyro = still_signals(21, mag=20.0)
        accel[:10, 2] = GRAVITY
        score = sfs(accel, gyro, cfg, 10)
        width = 2 * cfg.detect_half_width + 1
        assert score == 10 / width
        assert abs(score - 0.5) <= 1.0 / width

    def test_score_range_and_series_consistency(self):
        accel, gyro = noisy_signals(400, seed=3)
        cfg = zupt.StanceConfig()
        series = zupt.sfs_series(accel, gyro, cfg)
        assert np.all(series >= 0.0) and np.all(series <= 1.0)
        for k in range(0, 400, 17):
            assert sfs(accel, gyro, cfg, k) == pytest.approx(
                series[k], abs=1e-12
            )

    def test_time_shift_invariance(self):
        # The same local pattern embedded at two offsets scores the same.
        rng = np.random.default_rng(11)
        pattern_a = GRAVITY + 0.3 * rng.standard_normal(41)
        pattern_w = 0.2 * np.abs(rng.standard_normal(41))
        cfg = zupt.StanceConfig(detect_half_width=8, std_half_width=3)
        pad = 30  # beyond detect + std half widths
        scores = []
        for offset in (pad, pad + 57):
            n = offset + 41 + pad + 60
            accel, gyro = still_signals(n, mag=20.0)
            accel[offset:offset + 41, 2] = pattern_a
            gyro[offset:offset + 41, 0] = pattern_w
            s = zupt.sfs_series(accel, gyro, cfg)
            scores.append(s[offset:offset + 41])
        np.testing.assert_array_equal(scores[0], scores[1])


class TestHardDetector:
    def test_all_true_window(self):
        accel, gyro = still_signals(31)
        cfg = zupt.StanceConfig()
        assert hard_detector(accel, gyro, cfg, 15) is True

    def test_all_false_window(self):
        accel, gyro = still_signals(31, mag=20.0)
        cfg = zupt.StanceConfig()
        assert hard_detector(accel, gyro, cfg, 15) is False

    def test_count_equal_to_half_width_over_two_is_rejected(self):
        # detect_half_width 4: a count of exactly 2 must not fire.
        cfg = wide_open_config(detect_half_width=4)
        accel, gyro = still_signals(9, mag=20.0)
        accel[3:5, 2] = GRAVITY  # count 2 == F / 2
        assert hard_detector(accel, gyro, cfg, 4) is False
        accel[5, 2] = GRAVITY  # count 3 > F / 2
        assert hard_detector(accel, gyro, cfg, 4) is True

    def test_fourth_condition_excluded(self):
        # Gyro magnitudes inside the norm limit but wildly unstable:
        # C4 false kills the score, the hard rule does not care.
        n = 61
        accel, gyro = still_signals(n)
        gyro[::2, 2] = 0.3
        cfg = zupt.StanceConfig(gyro_norm_max=0.6, gyro_std_max=0.1)
        assert sfs(accel, gyro, cfg, 30) == 0.0
        assert hard_detector(accel, gyro, cfg, 30) is True

    def test_series_agrees_with_per_index(self):
        # A still stretch into a violent stretch sweeps the windowed
        # count through the threshold, exercising both outcomes and the
        # truncated edges.
        accel, gyro = noisy_signals(150, seed=23, accel_noise=0.05,
                                    gyro_noise=0.01)
        rough_a, rough_w = noisy_signals(150, seed=24, accel_noise=8.0,
                                         gyro_noise=2.0)
        accel = np.vstack([accel, rough_a])
        gyro = np.vstack([gyro, rough_w])
        cfg = zupt.StanceConfig()
        series = zupt.hard_series(accel, gyro, cfg)
        assert series.any() and not series.all()
        for k in range(0, 300, 7):
            assert hard_detector(accel, gyro, cfg, k) == bool(series[k])


class TestIntervals:
    def test_hand_mask(self):
        mask = [False, True, True, False, True]
        assert zupt.stance_intervals(mask) == [(1, 3), (4, 5)]

    def test_degenerate_masks(self):
        assert zupt.stance_intervals([]) == []
        assert zupt.stance_intervals([False, False]) == []
        assert zupt.stance_intervals([True, True, True]) == [(0, 3)]

    def test_detect_stance_threshold_is_inclusive(self):
        scores = np.array([0.1, 0.6, 0.7, 0.59, 0.6, 0.2])
        assert zupt.detect_stance(scores, 0.6) == [(1, 3), (4, 5)]


def stance_truth_state(roll=0.0, pitch=0.0, yaw=0.0, p=(0.0, 0.0, 0.0)):
    """A state exactly consistent with a motionless, bias-free foot."""
    x = np.zeros(ekf.DIM)
    x[ekf.POS] = p
    x[ekf.QUAT] = quat_from_rpy(roll, pitch, yaw)
    x[ekf.ACC_B] = quat_rotate(x[ekf.QUAT], -G_VEC)
    return x


def truth_sample(x):
    """The calibrated IMU sample a noiseless sensor would report."""
    return x[ekf.ACC_B] + x[ekf.BIAS_A], x[ekf.OMEGA] + x[ekf.BIAS_W]


def oracle_residual(x, latched_xy, accel_s, gyro_s, g=GRAVITY):
    """Row-by-row re-derivation of the pseudo-measurement residual."""
    g_vec = np.array([0.0, 0.0, -g])
    rot = Rotation.from_quat(x[ekf.QUAT], scalar_first=True).as_matrix()
    rows = []
    rows.extend(latched_xy - x[ekf.POS][:2])
    rows.append(0.0 - x[ekf.POS][2])
    rows.extend(0.0 - x[ekf.VEL])
    rows.extend(0.0 - x[ekf.ACC])
    rows.extend(-g_vec - rot.T @ x[ekf.ACC_B])
    rows.append(g - np.linalg.norm(x[ekf.ACC_B]))
    rows.extend(0.0 - x[ekf.OMEGA])
    rows.extend(accel_s - (x[ekf.BIAS_A] - rot @ g_vec))
    rows.extend(gyro_s - x[ekf.BIAS_W])
    return np.array(rows)


def random_state(rng):
    x = rng.standard_normal(ekf.DIM)
    x[ekf.QUAT] = quat_normalize(rng.standard_normal(4))
    return x


class TestBuildPseudoMeasurements:
    def test_residual_zero_at_stance_truth(self):
        for roll, pitch, yaw in [(0, 0, 0), (0.3, -0.2, 1.0)]:
            x = stance_truth_state(roll, pitch, yaw, p=(2.0, -1.0, 0.0))
            accel_s, gyro_s = truth_sample(x)
            event = zupt.StanceEvent(0, x[ekf.POS][:2])
            cfg = zupt.StanceConfig()
            _, residual, _ = zupt.build_pseudo_measurements(
                x, event, accel_s, gyro_s, cfg
            )
            np.testing.assert_allclose(residual(x), 0.0, atol=1e-12)

    def test_velocity_rows_reflect_drift(self):
        x = stance_truth_state()
        x[ekf.VEL] = [0.1, 0.0, 0.0]
        event = zupt.StanceEvent(0, [0.0, 0.0])
        accel_s, gyro_s = truth_sample(x)
        _, residual, _ = zupt.build_pseudo_measurements(
            x, event, accel_s, gyro_s, zupt.StanceConfig()
        )
        np.testing.assert_allclose(residual(x)[3:6], [-0.1, 0.0, 0.0])

    def test_latched_target_drives_xy_rows(self):
        x = stance_truth_state(p=(3.0, -2.5, 0.2))
        event = zupt.StanceEvent(17, [3.5, -2.0])
        accel_s, gyro_s = truth_sample(x)
        _, residual, _ = zupt.build_pseudo_measurements(
            x, event, accel_s, gyro_s, zupt.StanceConfig()
        )
        r = residual(x)
        np.testing.assert_allclose(r[:2], [0.5, 0.5])
        np.testing.assert_allclose(r[2], -0.2)

    def test_event_owns_its_latched_copy(self):
        xy = np.array([1.0, 2.0])
        event = zupt.StanceEvent(0, xy)
        xy[:] = 99.0
        np.testing.assert_array_equal(event.latched_xy, [1.0, 2.0])

    def test_residual_matches_independent_derivation(self):
        rng = np.random.default_rng(42)
        cfg = zupt.StanceConfig()
        for _ in range(25):
            x = random_state(rng)
            latched = rng.standard_normal(2)
            accel_s = rng.standard_normal(3)
            gyro_s = rng.standard_normal(3)
            event = zupt.StanceEvent(0, latched)
            z_p, residual, _ = zupt.build_pseudo_measurements(
                x, event, accel_s, gyro_s, cfg
            )
            want = oracle_residual(x, latched, accel_s, gyro_s)
            np.testing.assert_allclose(residual(x), want, atol=1e-12)
            assert z_p.shape == (zupt.N_PSEUDO,)

    def test_residual_batch_matches_single(self):
        rng = np.random.default_rng(5)
        x0 = stance_truth_state()
        event = zupt.StanceEvent(0, [0.0, 0.0])
        accel_s, gyro_s = truth_sample(x0)
        _, residual, _ = zupt.build_pseudo_measurements(
            x0, event, accel_s, gyro_s, zupt.StanceConfig()
        )
        batch = np.stack([random_state(rng) for _ in range(6)], axis=1)
        out = residual(batch)
        assert out.shape == (zupt.N_PSEUDO, 6)
        for j in range(6):
            np.testing.assert_allclose(
                out[:, j], residual(batch[:, j]), atol=1e-13
            )

    def test_group_mask_selects_rows(self):
        rng = np.random.default_rng(9)
        x = random_state(rng)
        event = zupt.StanceEvent(0, [0.5, 0.5])
        accel_s, gyro_s = rng.standard_normal(3), rng.standard_normal(3)
        full_cfg = zupt.StanceConfig()
        z_full, res_full, _ = zupt.build_pseudo_measurements(
            x, event, accel_s, gyro_s, full_cfg
        )
        groups = {name: True for name, _ in zupt.PSEUDO_GROUPS}
        groups["velocity"] = False
        groups["gravity_norm"] = False
        cfg = zupt.StanceConfig(pseudo_groups=groups)
        mask = cfg.row_mask()
        assert mask.sum() == zupt.N_PSEUDO - 4
        z_p, residual, scale = zupt.build_pseudo_measurements(
            x, event, accel_s, gyro_s, cfg
        )
        np.testing.assert_array_equal(z_p, z_full[mask])
        np.testing.assert_allclose(residual(x), res_full(x)[mask], atol=1e-13)
        assert scale.shape == (mask.sum(),)

    def test_degenerate_specific_force_inflates_norm_row(self):
        x = stance_truth_state()
        x[ekf.ACC_B] = 0.0
        event = zupt.StanceEvent(0, [0.0, 0.0])
        _, _, scale = zupt.build_pseudo_measurements(
            x, event, np.zeros(3), np.zeros(3), zupt.StanceConfig()
        )
        assert scale[12] == 1e6
        assert np.all(np.delete(scale, 12) == 1.0)

    def test_healthy_specific_force_leaves_scale_alone(self):
        x = stance_truth_state()
        event = zupt.StanceEvent(0, [0.0, 0.0])
        accel_s, gyro_s = truth_sample(x)
        _, _, scale = zupt.build_pseudo_measurements(
            x, event, accel_s, gyro_s, zupt.StanceConfig()
        )
        assert np.all(scale == 1.0)


class TestStanceJacobian:
    """The closed-form stance Jacobian against Richardson-extrapolated
    differences of the residual itself."""

    def build(self, x, rng, cfg=None):
        cfg = zupt.StanceConfig() if cfg is None else cfg
        event = zupt.StanceEvent(0, x[ekf.POS][:2] + 0.01)
        accel_s = x[ekf.ACC_B] + rng.normal(0.0, 0.01, 3)
        gyro_s = rng.normal(0.0, 0.01, 3)
        _, residual, _ = zupt.build_pseudo_measurements(
            x, event, accel_s, gyro_s, cfg)
        return residual

    def test_full_stack(self):
        rng = np.random.default_rng(40)
        for _ in range(30):
            x = random_state(rng)
            x[ekf.QUAT] *= rng.uniform(0.8, 1.2)  # off-unit, as perturbed
            x[ekf.ACC_B] *= 5.0
            residual = self.build(x, rng)
            ref = richardson_jacobian(residual, x, zupt.N_PSEUDO)
            jac = residual.jacobian(x)
            assert jac.shape == (zupt.N_PSEUDO, ekf.DIM)
            assert np.max(np.abs(jac - ref)) <= 1e-5

    @pytest.mark.parametrize("off", [
        ("gravity_direction",),
        ("position_xy", "gravity_norm", "gyro_bias"),
        ("velocity", "acceleration", "angular_rate", "accel_bias"),
    ])
    def test_groups_disabled(self, off):
        groups = {name: name not in off for name, _ in zupt.PSEUDO_GROUPS}
        cfg = zupt.StanceConfig(pseudo_groups=groups)
        rng = np.random.default_rng(42)
        x = random_state(rng)
        residual = self.build(x, rng, cfg)
        m = int(cfg.row_mask().sum())
        ref = richardson_jacobian(residual, x, m)
        jac = residual.jacobian(x)
        assert jac.shape == (m, ekf.DIM)
        assert np.max(np.abs(jac - ref)) <= 1e-5

    def test_zero_specific_force(self):
        # |a_b| has no gradient direction at a_b = 0; the row is zero,
        # which is also what the symmetric difference gives there.
        rng = np.random.default_rng(43)
        x = random_state(rng)
        x[ekf.ACC_B] = 0.0
        residual = self.build(x, rng)
        jac = residual.jacobian(x)
        np.testing.assert_array_equal(jac[12], 0.0)
        ref = richardson_jacobian(residual, x, zupt.N_PSEUDO)
        assert np.max(np.abs(jac - ref)) <= 1e-5


class TestSoftCovariance:
    def test_full_confidence_returns_base(self):
        cfg = zupt.StanceConfig()
        np.testing.assert_array_equal(
            zupt.soft_covariance(cfg, 1.0), cfg.pseudo_variances
        )

    def test_plug_in_factor(self):
        cfg = zupt.StanceConfig(covariance_gain=9.0)
        got = zupt.soft_covariance(cfg, 0.5)
        np.testing.assert_allclose(got, 5.5 * cfg.pseudo_variances)

    def test_monotone_in_score(self):
        cfg = zupt.StanceConfig()
        grid = np.linspace(0.0, 1.0, 21)
        factors = [zupt.soft_covariance(cfg, s)[0] for s in grid]
        assert all(a >= b for a, b in zip(factors, factors[1:]))

    def test_score_out_of_range_rejected(self):
        cfg = zupt.StanceConfig()
        for bad in (-0.01, 1.01):
            with pytest.raises(ValueError):
                zupt.soft_covariance(cfg, bad)

    def test_disabled_groups_shrink_vector(self):
        groups = {name: name != "acceleration" for name, _ in zupt.PSEUDO_GROUPS}
        cfg = zupt.StanceConfig(pseudo_groups=groups)
        assert zupt.soft_covariance(cfg, 1.0).shape == (zupt.N_PSEUDO - 3,)


def estimate_at(x, p_scale=1e-2):
    return ekf.StateEstimate(x=x.copy(), P=p_scale * np.eye(ekf.DIM))


class TestZuptUpdate:
    def setup_method(self):
        self.cfg = zupt.StanceConfig()

    def inject(self, est, x_for_build=None, var_scale=1.0):
        x = est.x if x_for_build is None else x_for_build
        accel_s, gyro_s = truth_sample(stance_truth_state())
        event = zupt.StanceEvent(0, [0.0, 0.0])
        _, residual, scale = zupt.build_pseudo_measurements(
            x, event, accel_s, gyro_s, self.cfg
        )
        variances = zupt.soft_covariance(self.cfg, 1.0) * scale * var_scale
        return zupt.zupt_update(est, residual, variances)

    def test_zero_innovation_keeps_mean(self):
        x = stance_truth_state()
        est = estimate_at(x)
        out = self.inject(est)
        np.testing.assert_allclose(out.x, x, atol=1e-12)

    def test_covariance_contracts_and_stays_sound(self):
        x = stance_truth_state()
        est = estimate_at(x)
        out = self.inject(est)
        assert np.trace(out.P) < np.trace(est.P)
        np.testing.assert_allclose(out.P, out.P.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(out.P) > -1e-12)

    def test_velocity_drift_is_pulled_down(self):
        x = stance_truth_state()
        x[ekf.VEL] = [0.3, 0.2, -0.1]
        est = estimate_at(x)
        out = self.inject(est)
        assert np.linalg.norm(out.x[ekf.VEL]) < 0.1 * np.linalg.norm(x[ekf.VEL])

    def test_huge_variances_are_a_noop(self):
        x = stance_truth_state()
        x[ekf.VEL] = [0.3, 0.2, -0.1]
        x[ekf.POS] = [1.0, 2.0, 0.3]
        est = estimate_at(x)
        out = self.inject(est, var_scale=1e12)
        np.testing.assert_allclose(out.x, x, atol=1e-6)
        np.testing.assert_allclose(out.P, est.P, atol=1e-6)

    def test_quaternion_stays_unit(self):
        x = stance_truth_state(roll=0.2, pitch=-0.1, yaw=0.7)
        x[ekf.VEL] = [0.2, -0.3, 0.1]
        est = estimate_at(x)
        out = self.inject(est)
        assert np.linalg.norm(out.x[ekf.QUAT]) == pytest.approx(1.0, abs=1e-12)


class TestEventScoring:
    def test_perfect_detection(self):
        truth = [(10, 25), (50, 65), (90, 105)]
        report = zupt.event_f1(truth, truth)
        assert report["f1"] == 1.0
        assert report["true_positives"] == 3

    def test_shifted_within_tolerance_counts(self):
        truth = [(10, 25)]
        pred = [(7, 28)]
        assert zupt.event_f1(pred, truth, tolerance=5)["f1"] == 1.0
        assert zupt.event_f1(pred, truth, tolerance=2)["f1"] == 0.0

    def test_fragmented_detection_is_penalized(self):
        truth = [(10, 30)]
        pred = [(10, 15), (20, 30)]
        report = zupt.event_f1(pred, truth)
        assert report["true_positives"] == 1
        assert report["precision"] == 0.5
        assert report["recall"] == 1.0

    def test_missed_and_spurious(self):
        truth = [(10, 20), (40, 50)]
        pred = [(11, 19), (70, 80)]
        report = zupt.event_f1(pred, truth)
        assert report["true_positives"] == 1
        assert report["precision"] == 0.5
        assert report["recall"] == 0.5

    def test_empty_cases(self):
        assert zupt.event_f1([], [(0, 5)])["f1"] == 0.0
        assert zupt.event_f1([(0, 5)], [])["f1"] == 0.0
        assert zupt.event_f1([], [])["f1"] == 0.0

    def test_non_overlapping_but_inside_widened_span_rejected(self):
        # A detection entirely in the widened margin must still overlap
        # the true span itself.
        truth = [(10, 12)]
        pred = [(12, 14)]
        assert zupt.match_intervals(pred, truth, tolerance=5) == 0


class TestStanceConfig:
    def test_round_trip(self):
        cfg = zupt.StanceConfig(
            sfs_threshold=0.4,
            covariance_gain=7.0,
            pseudo_groups={
                name: name != "gyro_bias" for name, _ in zupt.PSEUDO_GROUPS
            },
            mode="hard",
        )
        clone = zupt.StanceConfig.from_dict(cfg.to_dict())
        assert clone.to_dict() == cfg.to_dict()

    def test_missing_and_unknown_keys_rejected(self):
        d = zupt.StanceConfig().to_dict()
        d.pop("sfs_threshold")
        with pytest.raises(ValueError, match="missing"):
            zupt.StanceConfig.from_dict(d)
        d2 = zupt.StanceConfig().to_dict()
        d2["typo"] = 1
        with pytest.raises(ValueError, match="unknown"):
            zupt.StanceConfig.from_dict(d2)

    def test_validation(self):
        with pytest.raises(ValueError):
            zupt.StanceConfig(accel_norm_min=11.0, accel_norm_max=10.0)
        with pytest.raises(ValueError):
            zupt.StanceConfig(sfs_threshold=1.5)
        with pytest.raises(ValueError):
            zupt.StanceConfig(detect_half_width=0)
        with pytest.raises(ValueError):
            zupt.StanceConfig(mode="sometimes")
        with pytest.raises(ValueError):
            zupt.StanceConfig(pseudo_groups={"velocity": True})

    def test_group_flags_accept_sequence(self):
        cfg = zupt.StanceConfig(pseudo_groups=[True] * 8 + [False])
        assert cfg.pseudo_groups["gyro_bias"] is False
        assert cfg.row_mask().sum() == zupt.N_PSEUDO - 3


class TestStanceStack:
    """The tracker's per-run stance update must be `zupt_update` on the
    `build_pseudo_measurements` stack with `soft_covariance` variances,
    bit for bit, and `zupt_update` the general dense update.  A quarter
    of the states have ``a_b = 0``, where the stack's variance scale
    inflates the gravity-norm row that the tracker's update leaves as
    is."""

    @staticmethod
    def cases(rng):
        for k in range(24):
            x = random_state(rng)
            x[ekf.ACC_B] *= 5.0
            if k % 4 == 0:
                x[ekf.ACC_B] = 0.0  # gravity-norm row defused
            yield x, random_covariance(rng, scale=rng.uniform(1e-3, 1.0))

    @pytest.mark.parametrize("off", [(), ("velocity",), ("gravity_norm",),
                                     ("position_xy", "accel_bias")])
    @pytest.mark.parametrize("joseph", [True, False])
    def test_matches_zupt_update(self, off, joseph):
        groups = {name: name not in off for name, _ in zupt.PSEUDO_GROUPS}
        cfg = zupt.StanceConfig(pseudo_groups=groups)
        stack = zupt._StanceStack(cfg, GRAVITY)
        rng = np.random.default_rng(60)
        for x, p_mat in self.cases(rng):
            sample = rng.standard_normal(6)
            score = rng.uniform(0.3, 1.0)
            event = zupt.StanceEvent(0, x[ekf.POS][:2])
            stack.latch(x)
            _, residual, scale = zupt.build_pseudo_measurements(
                x, event, sample[:3], sample[3:], cfg)
            want = zupt.zupt_update(
                ekf.StateEstimate(x=x.copy(), P=p_mat.copy()), residual,
                zupt.soft_covariance(cfg, score) * scale, joseph=joseph)
            factor = zupt._confidence_factor(cfg, np.array([score]))[0]
            got_x, got_p = stack.update(x, p_mat, sample, factor, joseph)
            np.testing.assert_array_equal(got_x, want.x)
            np.testing.assert_array_equal(got_p, want.P)

    @pytest.mark.parametrize("joseph", [True, False])
    def test_zupt_update_is_the_general_update(self, joseph):
        cfg = zupt.StanceConfig()
        rng = np.random.default_rng(61)
        for x, p_mat in self.cases(rng):
            event = zupt.StanceEvent(0, rng.standard_normal(2))
            _, residual, scale = zupt.build_pseudo_measurements(
                x, event, rng.standard_normal(3), rng.standard_normal(3), cfg)
            variances = zupt.soft_covariance(cfg, 0.8) * scale
            out = zupt.zupt_update(ekf.StateEstimate(x=x.copy(), P=p_mat.copy()),
                                   residual, variances, joseph=joseph)
            nu, jac = residual.linearize(x)
            want_x, want_p = kalman_update(x, p_mat, nu, np.zeros_like(nu),
                                           jac, variances, joseph)
            want_x[ekf.QUAT] = quat_normalize(want_x[ekf.QUAT])
            np.testing.assert_array_equal(out.x, want_x)
            np.testing.assert_array_equal(out.P, want_p)
