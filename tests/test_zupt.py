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
            assert bool(zupt._conditions(accel, gyro, cfg)[1][2]) is want

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
            assert bool(zupt._conditions(accel, gyro, cfg)[1][0]) is want

    def test_series_agrees_with_per_index(self):
        accel, gyro = noisy_signals(300, seed=7)
        cfg = zupt.StanceConfig()
        series = zupt._conditions(accel, gyro, cfg)
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
        # detect_half_width 4, a window of 9 samples, threshold 0.3:
        # 2 of 9 (0.22) must not fire, 3 of 9 (0.33) must.
        cfg = wide_open_config(detect_half_width=4)
        assert cfg.sfs_threshold == 0.3
        accel, gyro = still_signals(9, mag=20.0)
        accel[3:5, 2] = GRAVITY  # 2 of 9
        assert hard_detector(accel, gyro, cfg, 4) is False
        accel[5, 2] = GRAVITY  # 3 of 9
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
        cfg = zupt.StanceConfig(mode="hard")
        _, series, _ = zupt.stance_schedule(accel, gyro, cfg)
        assert series.any() and not series.all()
        for k in range(300):
            assert hard_detector(accel, gyro, cfg, k) == bool(series[k]), k


class TestStanceSchedule:
    """Each mode's policy: the score in every mode; soft updates at or
    above the threshold with the confidence factor, hard updates where
    the binary detector fires with factor 1, none never.  The detectors
    and the stance variances are the per-index oracles'."""

    @pytest.mark.parametrize("mode", ["soft", "hard", "none"])
    def test_matches_the_detectors(self, mode):
        accel, gyro = noisy_signals(150, seed=23, accel_noise=0.05,
                                    gyro_noise=0.01)
        rough_a, rough_w = noisy_signals(150, seed=24, accel_noise=8.0,
                                         gyro_noise=2.0)
        accel = np.vstack([accel, rough_a, accel])
        gyro = np.vstack([gyro, rough_w, gyro])
        cfg = zupt.StanceConfig(mode=mode)
        scores, active, factors = zupt.stance_schedule(accel, gyro, cfg)

        want_scores = zupt.sfs_series(accel, gyro, cfg)
        # Scores of 0, 1 and between, so the soft factors vary.
        assert want_scores.min() == 0.0 and want_scores.max() == 1.0
        assert ((want_scores > 0.0) & (want_scores < 1.0)).any()
        if mode == "soft":
            want_active = want_scores >= cfg.sfs_threshold
            for k, score in enumerate(want_scores):
                np.testing.assert_array_equal(
                    factors[k] * cfg.pseudo_variances,
                    soft_covariance(cfg, score))
        elif mode == "hard":
            want_active = [hard_detector(accel, gyro, cfg, k)
                           for k in range(450)]
        else:
            want_active = np.zeros(450, dtype=bool)
        if mode != "soft":
            np.testing.assert_array_equal(factors, np.ones(450))
        np.testing.assert_array_equal(scores, want_scores)
        assert active.dtype == bool
        np.testing.assert_array_equal(active, want_active)
        assert mode == "none" or (active.any() and not active.all())


class TestIntervals:
    def test_hand_mask(self):
        mask = [False, True, True, False, True]
        assert zupt.stance_intervals(mask) == [(1, 3), (4, 5)]

    def test_degenerate_masks(self):
        assert zupt.stance_intervals([]) == []
        assert zupt.stance_intervals([False, False]) == []
        assert zupt.stance_intervals([True, True, True]) == [(0, 3)]


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


def oracle_residual(x, latched_xy, accel_s, g=GRAVITY):
    """Row-by-row re-derivation of the pseudo-measurement residual; no
    row reads the gyro sample."""
    g_vec = np.array([0.0, 0.0, -g])
    rot = Rotation.from_quat(x[ekf.QUAT], scalar_first=True).as_matrix()
    rows = []
    rows.extend(latched_xy - x[ekf.POS][:2])
    rows.append(0.0 - x[ekf.POS][2])
    rows.extend(0.0 - x[ekf.VEL])
    rows.extend(-g_vec - rot.T @ x[ekf.ACC_B])
    rows.extend(0.0 - x[ekf.OMEGA])
    rows.extend(accel_s - (x[ekf.BIAS_A] - rot @ g_vec))
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
    """The run's stance stack: its targets and latching, and its
    residual against a row-by-row re-derivation."""

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
            want = oracle_residual(x, latched, accel_s)
            np.testing.assert_allclose(residual(x), want, atol=1e-12)
            assert residual(x).shape == (zupt.N_PSEUDO,)


class TestStanceJacobian:
    """The closed-form stance Jacobian against Richardson-extrapolated
    differences of the residual itself."""

    def build(self, x, rng):
        """The stance linearisation at one sample, as a function of one
        state."""
        stack = latched_stack(zupt.StanceConfig(), x[ekf.POS][:2] + 0.01)
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

    def test_zero_specific_force(self):
        # Every row is smooth at a_b = 0, so the closed form needs no
        # special case there.
        rng = np.random.default_rng(43)
        x = random_state(rng)
        x[ekf.ACC_B] = 0.0
        residual, jac = self.residual_and_jacobian(self.build(x, rng), x)
        ref = richardson_jacobian(residual, x, zupt.N_PSEUDO)
        assert np.max(np.abs(jac - ref)) <= 1e-5

    def test_no_row_reads_the_acceleration(self):
        # The filter rebuilds the acceleration state every step from
        # the attitude and the specific force, which the
        # gravity-direction rows already pin, so no stance row reads it.
        rng = np.random.default_rng(44)
        for _ in range(10):
            x = random_state(rng)
            _, jac = self.build(x, rng)(x)
            np.testing.assert_array_equal(jac[:, ekf.ACC], 0.0)


class TestSoftCovariance:
    """The stance variances at one score, as `soft_covariance` states
    them; `TestStanceSchedule` holds the schedule's factors to it."""

    def test_full_confidence_returns_base(self):
        cfg = zupt.StanceConfig()
        np.testing.assert_array_equal(
            soft_covariance(cfg, 1.0), cfg.pseudo_variances
        )
        np.testing.assert_array_equal(
            zupt.StanceStack(cfg, GRAVITY).base_variances, cfg.pseudo_variances
        )

    def test_plug_in_factor(self):
        cfg = zupt.StanceConfig(covariance_gain=9.0)
        got = soft_covariance(cfg, 0.5)
        np.testing.assert_allclose(got, 5.5 * cfg.pseudo_variances)

    def test_monotone_in_score(self):
        cfg = zupt.StanceConfig()
        grid = np.linspace(0.0, 1.0, 21)
        factors = [soft_covariance(cfg, s)[0] for s in grid]
        assert all(a >= b for a, b in zip(factors, factors[1:]))

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
            pseudo_variances=np.linspace(1e-6, 1e-2, zupt.N_PSEUDO),
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
        for key, value in [("accel_std_max", -1.0), ("gyro_norm_max", 0.0),
                           ("gyro_std_max", 0.0), ("sfs_threshold", 0.0)]:
            with pytest.raises(ValueError, match=key):
                zupt.StanceConfig(**{key: value})
        assert zupt.StanceConfig(sfs_threshold=1.0).sfs_threshold == 1.0
        with pytest.raises(ValueError):
            zupt.StanceConfig(detect_half_width=0)
        with pytest.raises(ValueError):
            zupt.StanceConfig(mode="sometimes")
        with pytest.raises(ValueError, match="pseudo_variances must be 15"):
            zupt.StanceConfig(pseudo_variances=np.ones(21))
        with pytest.raises(ValueError, match="pseudo_variances must be 15"):
            zupt.StanceConfig(pseudo_variances=np.ones(18))

    @pytest.mark.parametrize("key, value", [
        ("covariance_gain", np.nan), ("covariance_gain", np.inf),
        ("pseudo_variances", np.nan), ("pseudo_variances", np.inf),
        ("accel_std_max", np.inf), ("gyro_norm_max", np.inf),
        ("gyro_std_max", np.inf), ("accel_norm_max", np.inf),
        ("accel_norm_min", -np.inf),
    ])
    def test_non_finite_values_are_refused(self, key, value):
        # Each of these passes the range checks alone; a NaN or infinite
        # weight would reach the tracker and show only as a divergence.
        got = rf"got {value!r}$"
        if key == "pseudo_variances":
            got = rf"got array\(.*,\s*{value!r},"
            value = np.where(np.arange(zupt.N_PSEUDO) == 5, value,
                             zupt.StanceConfig().pseudo_variances)
        with pytest.raises(ValueError,
                           match=rf"(?s)'{key}' must be a finite number.*{got}"):
            zupt.StanceConfig(**{key: value})

    @pytest.mark.parametrize("key", ["detect_half_width", "std_half_width"])
    @pytest.mark.parametrize("value", [6.9, 6.5, "6", True])
    def test_half_widths_must_be_whole_numbers(self, key, value):
        # Refused when read and when constructed: 6.5 would otherwise
        # reach the score's window indices and fail there.
        d = to_doc(zupt.StanceConfig())
        d[key] = value
        with pytest.raises(ValueError, match=key):
            from_doc(d)
        with pytest.raises(ValueError, match=key):
            zupt.StanceConfig(**{key: value})

    def test_half_widths_accept_whole_floats(self):
        d = to_doc(zupt.StanceConfig())
        d["detect_half_width"] = 6.0
        assert from_doc(d).detect_half_width == 6
        cfg = zupt.StanceConfig(detect_half_width=6.0, std_half_width=3.0)
        assert type(cfg.detect_half_width) is int and cfg.detect_half_width == 6
        assert type(cfg.std_half_width) is int and cfg.std_half_width == 3
        accel, gyro = noisy_signals(40, seed=5)
        np.testing.assert_array_equal(
            zupt.sfs_series(accel, gyro, cfg),
            zupt.sfs_series(accel, gyro, zupt.StanceConfig()))


class TestStanceStack:
    """The tracker's stance update, `zupt_update` with one `StanceStack`
    per run, must be the per-call stance stack
    (`oracles.build_pseudo_measurements` with `soft_covariance`
    variances) through the general dense update, bit for bit, under the
    score's confidence factor (``soft``) and the hard detector's unit
    factor.  A quarter of the states have ``a_b = 0``."""

    @staticmethod
    def cases(rng):
        for k in range(24):
            x = random_state(rng)
            x[ekf.ACC_B] *= 5.0
            if k % 4 == 0:
                x[ekf.ACC_B] = 0.0
            yield x, random_covariance(rng, scale=rng.uniform(1e-3, 1.0))

    @pytest.mark.parametrize("soft", [True, False])
    def test_matches_zupt_update(self, soft):
        cfg = zupt.StanceConfig()
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
            # The factor `stance_schedule` gives this score.
            factor = 1.0 + cfg.covariance_gain * (1.0 - score)
            got_x, got_p = zupt.zupt_update(x, p_mat, stack, sample, factor)
            np.testing.assert_array_equal(got_x, want_x)
            np.testing.assert_array_equal(got_p, want_p)

    @pytest.mark.parametrize("soft", [True, False])
    def test_zupt_update_is_the_general_update(self, soft):
        cfg = zupt.StanceConfig()
        rng = np.random.default_rng(61)
        factor = 1.0 + cfg.covariance_gain * (1.0 - 0.8) if soft else 1.0
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

    def test_gyro_half_of_the_sample_is_not_read(self):
        # No row targets the gyro sample: the angular-rate rows pin omega
        # to 0, and the step's IMU update already measures omega + b_w
        # against that sample.
        cfg = zupt.StanceConfig()
        rng = np.random.default_rng(62)
        for x, p_mat in self.cases(rng):
            stack = latched_stack(cfg, rng.standard_normal(2))
            sample = rng.standard_normal(6)
            spun = sample.copy()
            spun[3:] = 10.0 * rng.standard_normal(3)
            want_x, want_p = zupt.zupt_update(x, p_mat, stack, sample, 2.0)
            got_x, got_p = zupt.zupt_update(x, p_mat, stack, spun, 2.0)
            np.testing.assert_array_equal(got_x, want_x)
            np.testing.assert_array_equal(got_p, want_p)
