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
from pdrnav.io import _from_doc, _to_doc as to_doc
from pdrnav.quat import quat_from_rpy, quat_normalize, quat_rotate

from oracles import (
    build_pseudo_measurements,
    condition_signals,
    dense_stance_update,
    hard_detector,
    kalman_update,
    random_covariance,
    richardson_jacobian,
    sfs,
    soft_covariance,
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


def latched_stack(cfg, latched_xy, g=GRAVITY):
    """A run's stance stack with an event latched at ``latched_xy``."""
    stack = zupt.StanceStack(cfg, g)
    x_start = np.zeros(ekf.DIM)
    x_start[ekf.POS][:2] = latched_xy
    stack.latch(x_start)
    return stack


def stance_residual(cfg, latched_xy, accel_s, gyro_s):
    """The stance residual of one sample as a function of one state."""
    stack = latched_stack(cfg, latched_xy)
    sample = np.concatenate([accel_s, gyro_s])
    return lambda x: stack.linearize(x, sample)[0]


class TestBuildPseudoMeasurements:
    """The run's stance stack: its targets, latching and row masks, and
    its residual against a row-by-row re-derivation."""

    def test_residual_zero_at_stance_truth(self):
        for roll, pitch, yaw in [(0, 0, 0), (0.3, -0.2, 1.0)]:
            x = stance_truth_state(roll, pitch, yaw, p=(2.0, -1.0, 0.0))
            accel_s, gyro_s = truth_sample(x)
            residual = stance_residual(zupt.StanceConfig(), x[ekf.POS][:2],
                                       accel_s, gyro_s)
            np.testing.assert_allclose(residual(x), 0.0, atol=1e-12)

    def test_velocity_rows_reflect_drift(self):
        x = stance_truth_state()
        x[ekf.VEL] = [0.1, 0.0, 0.0]
        accel_s, gyro_s = truth_sample(x)
        residual = stance_residual(zupt.StanceConfig(), [0.0, 0.0],
                                   accel_s, gyro_s)
        np.testing.assert_allclose(residual(x)[3:6], [-0.1, 0.0, 0.0])

    def test_latched_target_drives_xy_rows(self):
        x = stance_truth_state(p=(3.0, -2.5, 0.2))
        accel_s, gyro_s = truth_sample(x)
        residual = stance_residual(zupt.StanceConfig(), [3.5, -2.0],
                                   accel_s, gyro_s)
        r = residual(x)
        np.testing.assert_allclose(r[:2], [0.5, 0.5])
        np.testing.assert_allclose(r[2], -0.2)

    def test_event_owns_its_latched_copy(self):
        # The stack holds the latched xy by value: later writes to the
        # state it was latched from cannot move the event's target.
        stack = zupt.StanceStack(zupt.StanceConfig(), GRAVITY)
        x = stance_truth_state(p=(1.0, 2.0, 0.0))
        stack.latch(x)
        x[ekf.POS] = 99.0
        nu, _ = stack.linearize(stance_truth_state(), np.zeros(6))
        np.testing.assert_array_equal(nu[:2], [1.0, 2.0])

    def test_residual_matches_independent_derivation(self):
        rng = np.random.default_rng(42)
        cfg = zupt.StanceConfig()
        for _ in range(25):
            x = random_state(rng)
            latched = rng.standard_normal(2)
            accel_s = rng.standard_normal(3)
            gyro_s = rng.standard_normal(3)
            residual = stance_residual(cfg, latched, accel_s, gyro_s)
            want = oracle_residual(x, latched, accel_s, gyro_s)
            np.testing.assert_allclose(residual(x), want, atol=1e-12)
            assert residual(x).shape == (zupt.N_PSEUDO,)

    def test_group_mask_selects_rows(self):
        rng = np.random.default_rng(9)
        x = random_state(rng)
        sample = rng.standard_normal(6)
        full = latched_stack(zupt.StanceConfig(), [0.5, 0.5])
        nu_full, jac_full = full.linearize(x, sample)
        groups = {name: True for name, _ in zupt.PSEUDO_GROUPS}
        groups["velocity"] = False
        groups["gravity_norm"] = False
        cfg = zupt.StanceConfig(pseudo_groups=groups)
        mask = cfg.row_mask()
        assert mask.sum() == zupt.N_PSEUDO - 4
        stack = latched_stack(cfg, [0.5, 0.5])
        nu, jac = stack.linearize(x, sample)
        np.testing.assert_array_equal(nu, nu_full[mask])
        np.testing.assert_array_equal(jac, jac_full[mask])
        np.testing.assert_array_equal(stack.base_variances,
                                      cfg.pseudo_variances[mask])

    def test_degenerate_specific_force_row_ignores_its_variance(self):
        # At a_b = 0 the gravity-norm row of H is zero, so the update
        # cannot depend on that row's variance: inflating it a
        # million-fold leaves the result unchanged bit for bit.
        rng = np.random.default_rng(44)
        cfg = zupt.StanceConfig()
        for _ in range(8):
            x = random_state(rng)
            x[ekf.ACC_B] = 0.0
            p_mat = random_covariance(rng, scale=rng.uniform(1e-3, 1.0))
            sample = rng.standard_normal(6)
            plain = latched_stack(cfg, x[ekf.POS][:2])
            inflated = latched_stack(cfg, x[ekf.POS][:2])
            inflated.base_variances[12] *= 1e6
            want_x, want_p = zupt.zupt_update(x, p_mat, plain, sample, 1.5)
            got_x, got_p = zupt.zupt_update(x, p_mat, inflated, sample, 1.5)
            np.testing.assert_array_equal(got_x, want_x)
            np.testing.assert_array_equal(got_p, want_p)


class TestStanceJacobian:
    """The closed-form stance Jacobian against Richardson-extrapolated
    differences of the residual itself."""

    def build(self, x, rng, cfg=None):
        """The stance linearisation at one sample, as a function of one
        state."""
        cfg = zupt.StanceConfig() if cfg is None else cfg
        stack = latched_stack(cfg, x[ekf.POS][:2] + 0.01)
        accel_s = x[ekf.ACC_B] + rng.normal(0.0, 0.01, 3)
        gyro_s = rng.normal(0.0, 0.01, 3)
        sample = np.concatenate([accel_s, gyro_s])
        return lambda s: stack.linearize(s, sample)

    @staticmethod
    def residual_and_jacobian(linearize, x):
        """The residual as a function, and its derivative ``-H`` at x."""
        return (lambda s: linearize(s)[0]), -linearize(x)[1]

    def test_full_stack(self):
        rng = np.random.default_rng(40)
        for _ in range(30):
            x = random_state(rng)
            x[ekf.QUAT] *= rng.uniform(0.8, 1.2)  # off-unit, as perturbed
            x[ekf.ACC_B] *= 5.0
            residual, jac = self.residual_and_jacobian(self.build(x, rng), x)
            ref = richardson_jacobian(residual, x, zupt.N_PSEUDO)
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
        residual, jac = self.residual_and_jacobian(self.build(x, rng, cfg), x)
        m = int(cfg.row_mask().sum())
        ref = richardson_jacobian(residual, x, m)
        assert jac.shape == (m, ekf.DIM)
        assert np.max(np.abs(jac - ref)) <= 1e-5

    def test_zero_specific_force(self):
        # |a_b| has no gradient direction at a_b = 0; the row is zero,
        # which is also what the symmetric difference gives there.
        rng = np.random.default_rng(43)
        x = random_state(rng)
        x[ekf.ACC_B] = 0.0
        residual, jac = self.residual_and_jacobian(self.build(x, rng), x)
        np.testing.assert_array_equal(jac[12], 0.0)
        ref = richardson_jacobian(residual, x, zupt.N_PSEUDO)
        assert np.max(np.abs(jac - ref)) <= 1e-5


def stance_variances(cfg, score):
    """The variances `zupt_update` gives the enabled rows at one score:
    the run's confidence factor times the stack's base variances."""
    return (zupt._confidence_factor(cfg, score)
            * zupt.StanceStack(cfg, GRAVITY).base_variances)


class TestSoftCovariance:
    def test_full_confidence_returns_base(self):
        cfg = zupt.StanceConfig()
        np.testing.assert_array_equal(
            stance_variances(cfg, 1.0), cfg.pseudo_variances
        )

    def test_plug_in_factor(self):
        cfg = zupt.StanceConfig(covariance_gain=9.0)
        got = stance_variances(cfg, 0.5)
        np.testing.assert_allclose(got, 5.5 * cfg.pseudo_variances)

    def test_monotone_in_score(self):
        cfg = zupt.StanceConfig()
        grid = np.linspace(0.0, 1.0, 21)
        factors = [stance_variances(cfg, s)[0] for s in grid]
        assert all(a >= b for a, b in zip(factors, factors[1:]))

    def test_disabled_groups_shrink_vector(self):
        groups = {name: name != "acceleration" for name, _ in zupt.PSEUDO_GROUPS}
        cfg = zupt.StanceConfig(pseudo_groups=groups)
        assert stance_variances(cfg, 1.0).shape == (zupt.N_PSEUDO - 3,)


def estimate_at(x, p_scale=1e-2):
    return x.copy(), p_scale * np.eye(ekf.DIM)


class TestZuptUpdate:
    def setup_method(self):
        self.cfg = zupt.StanceConfig()

    def inject(self, est, var_scale=1.0):
        """One stance update latched at the origin, the variances scaled
        by ``var_scale`` through the confidence factor."""
        accel_s, gyro_s = truth_sample(stance_truth_state())
        stack = latched_stack(self.cfg, [0.0, 0.0])
        return zupt.zupt_update(*est, stack, np.concatenate([accel_s, gyro_s]),
                                var_scale)

    def test_zero_innovation_keeps_mean(self):
        x = stance_truth_state()
        x1, _ = self.inject(estimate_at(x))
        np.testing.assert_allclose(x1, x, atol=1e-12)

    def test_covariance_contracts_and_stays_sound(self):
        x = stance_truth_state()
        _, p_mat = est = estimate_at(x)
        _, p1 = self.inject(est)
        assert np.trace(p1) < np.trace(p_mat)
        np.testing.assert_allclose(p1, p1.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(p1) > -1e-12)

    def test_velocity_drift_is_pulled_down(self):
        x = stance_truth_state()
        x[ekf.VEL] = [0.3, 0.2, -0.1]
        x1, _ = self.inject(estimate_at(x))
        assert np.linalg.norm(x1[ekf.VEL]) < 0.1 * np.linalg.norm(x[ekf.VEL])

    def test_huge_variances_are_a_noop(self):
        x = stance_truth_state()
        x[ekf.VEL] = [0.3, 0.2, -0.1]
        x[ekf.POS] = [1.0, 2.0, 0.3]
        _, p_mat = est = estimate_at(x)
        x1, p1 = self.inject(est, var_scale=1e12)
        np.testing.assert_allclose(x1, x, atol=1e-6)
        np.testing.assert_allclose(p1, p_mat, atol=1e-6)

    def test_quaternion_stays_unit(self):
        x = stance_truth_state(roll=0.2, pitch=-0.1, yaw=0.7)
        x[ekf.VEL] = [0.2, -0.3, 0.1]
        x1, _ = self.inject(estimate_at(x))
        assert np.linalg.norm(x1[ekf.QUAT]) == pytest.approx(1.0, abs=1e-12)


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


def from_doc(doc):
    """A stance section read as `read_config` reads it."""
    return _from_doc(zupt.StanceConfig, doc, "stance")


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
        clone = from_doc(to_doc(cfg))
        assert to_doc(clone) == to_doc(cfg)

    def test_missing_and_unknown_keys_rejected(self):
        d = to_doc(zupt.StanceConfig())
        d.pop("sfs_threshold")
        with pytest.raises(ValueError, match="missing"):
            from_doc(d)
        d2 = to_doc(zupt.StanceConfig())
        d2["typo"] = 1
        with pytest.raises(ValueError, match="unknown"):
            from_doc(d2)

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

    def test_group_flags_reject_sequence(self):
        with pytest.raises(ValueError, match="pseudo_groups"):
            zupt.StanceConfig(pseudo_groups=[True] * 8 + [False])

    @pytest.mark.parametrize("flag", ["false", 0, 1.0, None])
    def test_group_flags_must_be_booleans(self, flag):
        groups = {name: True for name, _ in zupt.PSEUDO_GROUPS}
        groups["velocity"] = flag
        with pytest.raises(ValueError, match="pseudo_groups.*velocity"):
            zupt.StanceConfig(pseudo_groups=groups)

    @pytest.mark.parametrize("mode", ["soft", "hard"])
    def test_all_groups_off_needs_mode_none(self, mode):
        off = {name: False for name, _ in zupt.PSEUDO_GROUPS}
        with pytest.raises(ValueError, match="pseudo_groups"):
            zupt.StanceConfig(pseudo_groups=off, mode=mode)
        assert not zupt.StanceConfig(pseudo_groups=off, mode="none").row_mask().any()

    @pytest.mark.parametrize("key", ["detect_half_width", "std_half_width"])
    @pytest.mark.parametrize("value", [6.9, "6", True])
    def test_half_widths_must_be_whole_numbers(self, key, value):
        d = to_doc(zupt.StanceConfig())
        d[key] = value
        with pytest.raises(ValueError, match=key):
            from_doc(d)

    def test_half_widths_accept_whole_floats(self):
        d = to_doc(zupt.StanceConfig())
        d["detect_half_width"] = 6.0
        assert from_doc(d).detect_half_width == 6


class TestStanceStack:
    """The tracker's stance update, `zupt_update` with one `StanceStack`
    per run, must be the per-call stance stack
    (`oracles.build_pseudo_measurements` with `soft_covariance`
    variances) through the general dense update, bit for bit, under the
    score's confidence factor (``soft``) and the hard detector's unit
    factor.  A quarter of the states have ``a_b = 0``, where the
    gravity-norm row of H is zero."""

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
    @pytest.mark.parametrize("soft", [True, False])
    def test_matches_zupt_update(self, off, soft):
        groups = {name: name not in off for name, _ in zupt.PSEUDO_GROUPS}
        cfg = zupt.StanceConfig(pseudo_groups=groups)
        stack = zupt.StanceStack(cfg, GRAVITY)
        rng = np.random.default_rng(60)
        for x, p_mat in self.cases(rng):
            sample = rng.standard_normal(6)
            score = rng.uniform(0.3, 1.0) if soft else 1.0
            stack.latch(x)
            linearize = build_pseudo_measurements(
                x[ekf.POS][:2], sample[:3], sample[3:], cfg)
            want_x, want_p = dense_stance_update(
                x, p_mat, linearize, soft_covariance(cfg, score))
            # The tracker takes each factor from the run's score array.
            factor = zupt._confidence_factor(cfg, np.array([score]))[0]
            got_x, got_p = zupt.zupt_update(x, p_mat, stack, sample, factor)
            np.testing.assert_array_equal(got_x, want_x)
            np.testing.assert_array_equal(got_p, want_p)

    @pytest.mark.parametrize("soft", [True, False])
    def test_zupt_update_is_the_general_update(self, soft):
        cfg = zupt.StanceConfig()
        rng = np.random.default_rng(61)
        factor = zupt._confidence_factor(cfg, 0.8) if soft else 1.0
        for x, p_mat in self.cases(rng):
            stack = latched_stack(cfg, rng.standard_normal(2))
            sample = rng.standard_normal(6)
            got_x, got_p = zupt.zupt_update(x, p_mat, stack, sample, factor)
            nu, jac = stack.linearize(x, sample)
            want_x, want_p = kalman_update(x, p_mat, nu, np.zeros_like(nu), jac,
                                           factor * cfg.pseudo_variances)
            want_x[ekf.QUAT] = quat_normalize(want_x[ekf.QUAT])
            np.testing.assert_array_equal(got_x, want_x)
            np.testing.assert_array_equal(got_p, want_p)
