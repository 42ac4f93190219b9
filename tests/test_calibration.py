"""Calibration fit against brute-force and hand-derived oracles."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize
from scipy.spatial.transform import Rotation

from pdrnav.calibration import (
    CalibrationError,
    _distances_and_jacobian,
    _sphere_residuals,
    _theta_to_gain_bias,
    OrientationBatch,
    apply_accel_calibration,
    apply_gyro_calibration,
    batch_means,
    canonical_gain,
    fit_accel_calibration,
    spread_directions,
)
from pdrnav.constants import GRAVITY
from pdrnav.gait import scale_calibration

from oracles import (
    brentq_sphere_residuals,
    gravity_sphere_residual,
    richardson_jacobian,
)


def brute_force_residual(gain, bias, mean, g, n_grid=1_000_000):
    """Direct minimization over unit directions: dense grid, then polish.

    Independent of the secular-equation solver: parametrizes the sphere
    and minimizes the squared distance numerically.
    """
    dirs = spread_directions(n_grid)
    pts = dirs * g @ gain.T + bias
    d2 = np.sum((pts - mean) ** 2, axis=1)
    k = int(np.argmin(d2))
    u0 = dirs[k]
    theta0 = np.array([np.arctan2(u0[1], u0[0]), np.arccos(np.clip(u0[2], -1, 1))])

    def objective(angles):
        t, p = angles
        u = np.array([np.sin(p) * np.cos(t), np.sin(p) * np.sin(t), np.cos(p)])
        e = gain @ (g * u) + bias - mean
        return float(e @ e)

    out = minimize(
        objective, theta0, method="Nelder-Mead",
        options={"xatol": 1e-13, "fatol": 1e-15, "maxiter": 4000},
    )
    return min(float(d2[k]), float(out.fun))


def random_lower_triangular(rng, scale=1.0):
    gain = np.tril(rng.uniform(-0.15, 0.15, (3, 3)))
    np.fill_diagonal(gain, rng.uniform(0.8, 1.2, 3))
    return gain * scale


def points_off_surface(rng, gain, bias, n_in, n_out, g=GRAVITY):
    """Means along random directions at 0.3-0.8 (inside) and 1.25-2.5
    (outside) times the model radius: clear of the surface, where the
    distance has a kink, and of the centre."""
    u = rng.standard_normal((n_in + n_out, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    radius = np.r_[rng.uniform(0.3, 0.8, n_in), rng.uniform(1.25, 2.5, n_out)]
    return (g * radius[:, None] * u) @ gain.T + bias


def synth_means(gain, bias, n_orient, g=GRAVITY, sigma_phys=0.0, n_samples=1, seed=0):
    """Forward sensor model at spread orientations; optional sample noise."""
    rng = np.random.default_rng(seed)
    dirs = spread_directions(n_orient)
    means = np.empty((n_orient, 3))
    for p in range(n_orient):
        truth = g * dirs[p]
        if sigma_phys > 0:
            samples = truth + rng.normal(0.0, sigma_phys, (n_samples, 3))
            means[p] = (samples @ gain.T + bias).mean(axis=0)
        else:
            means[p] = gain @ truth + bias
    return means


class TestGravitySphereResidual:
    def test_unit_sphere_by_hand(self):
        # Point at distance 2g from the center of a radius-g sphere.
        g = GRAVITY
        res = gravity_sphere_residual(np.eye(3), np.zeros(3), np.array([2 * g, 0, 0]))
        assert res == pytest.approx(g * g, rel=1e-12)

    def test_point_inside_sphere_by_hand(self):
        g = GRAVITY
        res = gravity_sphere_residual(
            np.eye(3), np.zeros(3), np.array([0.0, g / 2, 0.0])
        )
        assert res == pytest.approx((g / 2) ** 2, rel=1e-12)

    def test_point_on_ellipsoid_is_zero(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            gain = random_lower_triangular(rng)
            bias = rng.uniform(-5, 5, 3)
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            mean = gain @ (GRAVITY * u) + bias
            assert gravity_sphere_residual(gain, bias, mean) < 1e-16

    def test_center_of_scaled_sphere_by_hand(self):
        # Ellipsoid semi-axes (g, g, 0.3 g); nearest surface point to the
        # center is along z at distance 0.3 g.
        g = GRAVITY
        res = gravity_sphere_residual(
            np.diag([1.0, 1.0, 0.3]), np.zeros(3), np.zeros(3), g
        )
        assert res == pytest.approx((0.3 * g) ** 2, rel=1e-12)

    def test_symmetry_axis_interior_point_by_hand(self):
        # Prolate ellipsoid semi-axes (g, g, 2g), point (0, 0, m) on the
        # symmetry axis with 2m < 3g: the closest points form a ring at
        # cos(phi) = 2m/(3g) and the squared distance is g^2 - m^2/3.
        g = GRAVITY
        m = 1.0
        res = gravity_sphere_residual(
            np.diag([1.0, 1.0, 2.0]), np.zeros(3), np.array([0.0, 0.0, m]), g
        )
        assert res == pytest.approx(g * g - m * m / 3.0, rel=1e-12)

    def test_against_brute_force_grid(self):
        rng = np.random.default_rng(7)
        for case in range(8):
            gain = random_lower_triangular(rng)
            bias = rng.uniform(-3, 3, 3)
            mean = rng.uniform(-2.5 * GRAVITY, 2.5 * GRAVITY, 3)
            want = brute_force_residual(gain, bias, mean, GRAVITY)
            got = gravity_sphere_residual(gain, bias, mean)
            assert got == pytest.approx(want, rel=1e-6), f"case {case}"

    def test_brute_force_near_symmetry_axis(self):
        # Exercise the tied-singular-value handling against the oracle.
        gain = np.diag([1.0, 1.0, 1.7])
        for z in (0.0, 0.5, 3.0 * GRAVITY):
            mean = np.array([0.0, 0.0, z])
            want = brute_force_residual(gain, np.zeros(3), mean, GRAVITY)
            got = gravity_sphere_residual(gain, np.zeros(3), mean)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-9)


class TestVectorizedSecularSolve:
    """The one-pass solve over all means against the scalar brentq oracle.

    Away from the surface the oracle's own bracket tolerance (1e-12 on
    the multiplier) costs at most a few 1e-11 of the residual; right at
    the surface it is amplified by ``min(s^2) / |lam|`` and the
    comparison would measure the oracle.
    """

    @staticmethod
    def assert_matches_oracle(gain, bias, means, g=GRAVITY):
        means = np.atleast_2d(np.asarray(means, dtype=float))
        got = _sphere_residuals(np.asarray(gain, dtype=float),
                                np.asarray(bias, dtype=float), means, g)
        want = brentq_sphere_residuals(gain, bias, means, g)
        assert_allclose(got, want, rtol=1e-10, atol=1e-16)
        for p in range(means.shape[0]):
            assert gravity_sphere_residual(gain, bias, means[p], g) == (
                pytest.approx(got[p], rel=1e-12, abs=1e-16))

    def test_hand_cases(self):
        g = GRAVITY
        self.assert_matches_oracle(np.eye(3), np.zeros(3), [2 * g, 0, 0])
        self.assert_matches_oracle(np.eye(3), np.zeros(3), [0.0, g / 2, 0.0])
        self.assert_matches_oracle(np.diag([1.0, 1.0, 0.3]), np.zeros(3),
                                   np.zeros(3))
        self.assert_matches_oracle(np.diag([1.0, 1.0, 2.0]), np.zeros(3),
                                   [0.0, 0.0, 1.0])
        for z in (0.0, 0.5, 3.0 * g):
            self.assert_matches_oracle(np.diag([1.0, 1.0, 1.7]), np.zeros(3),
                                       [0.0, 0.0, z])

    def test_points_on_ellipsoid_case(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            gain = random_lower_triangular(rng)
            bias = rng.uniform(-5, 5, 3)
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            self.assert_matches_oracle(gain, bias, gain @ (GRAVITY * u) + bias)

    def test_brute_force_grid_cases(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            gain = random_lower_triangular(rng)
            bias = rng.uniform(-3, 3, 3)
            mean = rng.uniform(-2.5 * GRAVITY, 2.5 * GRAVITY, 3)
            self.assert_matches_oracle(gain, bias, mean)

    def test_random_batches(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            gain = random_lower_triangular(rng, scale=rng.choice([1.0, 835.0]))
            bias = rng.uniform(-3, 3, 3) * gain[0, 0]
            self.assert_matches_oracle(
                gain, bias, points_off_surface(rng, gain, bias, 8, 8))

    def test_random_batches_with_tied_singular_values(self):
        # Spheroids in rotated bases: the centre, points on the symmetry
        # axis (inside and outside, so the tied directions take up the
        # slack or the Newton solve starts at the pole) and generic means
        # in one batch.
        rng = np.random.default_rng(23)
        for trial in range(60):
            a, b = rng.uniform(0.5, 1.5, 2)
            s = rng.permutation([a, a, b])
            u = Rotation.random(random_state=rng).as_matrix()
            v = Rotation.random(random_state=rng).as_matrix()
            if trial % 3 == 0:
                u = v = np.eye(3)
            gain = u @ np.diag(s) @ v.T * rng.choice([1.0, 835.0])
            bias = rng.uniform(-3, 3, 3)
            axis = u[:, int(np.flatnonzero(s == b)[0])]
            on_axis = [bias + axis * t * GRAVITY * s.max()
                       for t in rng.uniform(-3.0, 3.0, 4)]
            means = np.vstack([bias, *on_axis,
                               points_off_surface(rng, gain, bias, 3, 3)])
            self.assert_matches_oracle(gain, bias, means)


class TestClosedFormJacobian:
    def test_against_richardson(self):
        # Distances and their derivative by the 6 lower-triangular gain
        # entries and the bias, for means inside and outside.
        rng = np.random.default_rng(29)
        for _ in range(20):
            gain = random_lower_triangular(rng, scale=rng.choice([1.0, 835.0]))
            bias = rng.uniform(-3, 3, 3) * gain[0, 0]
            means = points_off_surface(rng, gain, bias, 6, 6)
            theta = np.r_[gain[np.tril_indices(3)], bias]

            def distances(t):
                return _distances_and_jacobian(*_theta_to_gain_bias(t),
                                               means, GRAVITY)[0]

            ref = richardson_jacobian(distances, theta, means.shape[0])
            dist, jac = _distances_and_jacobian(gain, bias, means, GRAVITY)
            assert_allclose(dist**2, brentq_sphere_residuals(
                gain, bias, means, GRAVITY), rtol=1e-10)
            assert_allclose(jac, ref, rtol=1e-6, atol=1e-6 * np.abs(ref).max())

    def test_zero_distance_takes_the_outward_normal(self):
        # A mean on the unit sphere's surface: the bias row is the
        # outward normal, not the 0/0 of e / r.
        g = GRAVITY
        dist, jac = _distances_and_jacobian(np.eye(3), np.zeros(3),
                                            np.array([[0.0, g, 0.0]]), g)
        assert dist[0] == 0.0
        assert_allclose(jac[0, 6:], [0.0, 1.0, 0.0], atol=1e-15)


class TestFit:
    def test_noise_free_recovery(self):
        rng = np.random.default_rng(3)
        gain_true = random_lower_triangular(rng, scale=800.0)
        bias_true = rng.uniform(-300, 300, 3)
        means = synth_means(gain_true, bias_true, 12)
        cal = fit_accel_calibration(OrientationBatch(means, 1))
        assert_allclose(cal.gain, gain_true, rtol=1e-7, atol=1e-7 * 800)
        assert_allclose(cal.bias, bias_true, rtol=0, atol=1e-4)

    def test_full_cross_coupling_recovers_canonical_factor(self):
        # A gain with all nine entries populated: the magnitude-only fit
        # can only see gain @ gain', i.e. the Cholesky representative.
        rng = np.random.default_rng(11)
        gain_true = np.eye(3) * 820 + rng.uniform(-40, 40, (3, 3))
        bias_true = rng.uniform(-200, 200, 3)
        means = synth_means(gain_true, bias_true, 14)
        cal = fit_accel_calibration(OrientationBatch(means, 1))
        want = canonical_gain(gain_true)
        assert_allclose(cal.gain, want, rtol=1e-6, atol=1e-6 * 820)
        assert_allclose(cal.bias, bias_true, rtol=0, atol=1e-3)

    def test_noisy_recovery_is_close(self):
        rng = np.random.default_rng(5)
        gain_true = random_lower_triangular(rng, scale=835.0)
        bias_true = rng.uniform(-300, 300, 3)
        means = synth_means(
            gain_true, bias_true, 16,
            sigma_phys=0.005 * GRAVITY, n_samples=500, seed=17,
        )
        cal = fit_accel_calibration(OrientationBatch(means, 500))
        assert np.max(np.abs(cal.gain - gain_true)) / 835.0 < 0.05
        assert np.max(np.abs(cal.bias - bias_true)) < 0.05 * 835

    def test_scale_consistency(self):
        rng = np.random.default_rng(9)
        gain_true = random_lower_triangular(rng, scale=100.0)
        bias_true = rng.uniform(-30, 30, 3)
        means = synth_means(
            gain_true, bias_true, 12, sigma_phys=0.002 * GRAVITY,
            n_samples=200, seed=2,
        )
        cal1 = fit_accel_calibration(OrientationBatch(means, 200))
        cal2 = fit_accel_calibration(OrientationBatch(2.0 * means, 200))
        assert_allclose(cal2.gain, 2.0 * cal1.gain, rtol=1e-6)
        assert_allclose(cal2.bias, 2.0 * cal1.bias, rtol=1e-6, atol=1e-6)

    def test_cost_history_non_increasing(self):
        rng = np.random.default_rng(13)
        gain_true = random_lower_triangular(rng, scale=835.0)
        bias_true = rng.uniform(-100, 100, 3)
        means = synth_means(
            gain_true, bias_true, 16, sigma_phys=0.01 * GRAVITY,
            n_samples=100, seed=3,
        )
        _, info = fit_accel_calibration(OrientationBatch(means, 100), return_info=True)
        hist = np.array(info.cost_history)
        assert np.all(np.diff(hist) <= 0)
        assert info.converged

    def test_minimum_of_the_oracle_cost(self):
        # The fitted parameters sit at a stationary point of the exact
        # cost evaluated with the brentq oracle.
        rng = np.random.default_rng(13)
        gain_true = random_lower_triangular(rng, scale=835.0)
        bias_true = rng.uniform(-100, 100, 3)
        means = synth_means(
            gain_true, bias_true, 16, sigma_phys=0.01 * GRAVITY,
            n_samples=100, seed=3,
        )
        cal, info = fit_accel_calibration(OrientationBatch(means, 100),
                                          return_info=True)
        theta = np.r_[cal.gain[np.tril_indices(3)], cal.bias]

        def oracle_cost(t):
            gain, bias = _theta_to_gain_bias(t)
            return np.array([brentq_sphere_residuals(gain, bias, means,
                                                     GRAVITY).sum()])

        assert oracle_cost(theta)[0] == pytest.approx(info.cost_history[-1],
                                                      rel=1e-10)
        grad = richardson_jacobian(oracle_cost, theta, 1, h0=1e-3)[0]
        assert np.max(np.abs(grad) * np.maximum(np.abs(theta), 1.0)) < (
            1e-6 * info.cost_history[-1])

    def test_iteration_budget_exhausted(self):
        rng = np.random.default_rng(13)
        gain_true = random_lower_triangular(rng, scale=835.0)
        bias_true = rng.uniform(-100, 100, 3)
        means = synth_means(
            gain_true, bias_true, 16, sigma_phys=0.01 * GRAVITY,
            n_samples=100, seed=3,
        )
        with pytest.raises(CalibrationError, match="did not converge") as err:
            fit_accel_calibration(OrientationBatch(means, 100), max_iter=1)
        assert err.value.gain.shape == (3, 3)
        assert np.all(np.isfinite(err.value.gain))
        assert err.value.bias.shape == (3,)
        assert np.all(np.isfinite(err.value.bias))
        assert np.isfinite(err.value.cost) and err.value.cost > 0

    def test_too_few_orientations(self):
        means = synth_means(np.eye(3), np.zeros(3), 8)
        with pytest.raises(CalibrationError, match="9"):
            fit_accel_calibration(OrientationBatch(means, 1))


class TestBatchMeans:
    def test_means_and_counts(self):
        rng = np.random.default_rng(1)
        segs = []
        expect = []
        for _ in range(3):
            acc = rng.normal(100.0, 2.0, (200, 3))
            gyr = rng.normal(0.0, 1.0, (200, 3))
            segs.append((acc, gyr))
            expect.append(acc.mean(axis=0))
        batch = batch_means(segs, lsb_gyro=1e-3)
        assert_allclose(batch.means, np.array(expect), rtol=0)
        assert batch.samples_per_orientation == 200
        assert batch.noise_counts == pytest.approx(2.0, rel=0.2)

    def test_moving_segment_rejected_with_index(self):
        rng = np.random.default_rng(2)
        quiet = (rng.normal(0, 1, (100, 3)), rng.normal(0, 1, (100, 3)))
        spinning = (rng.normal(0, 1, (100, 3)), rng.normal(0, 1, (100, 3)) + 500.0)
        with pytest.raises(CalibrationError, match="segment 1"):
            batch_means([quiet, spinning], lsb_gyro=1e-3)

    def test_short_segment_rejected(self):
        seg = (np.zeros((10, 3)), np.zeros((10, 3)))
        with pytest.raises(CalibrationError, match="segment 0"):
            batch_means([seg], lsb_gyro=1e-3)


class TestApply:
    def test_accel_round_trip(self):
        rng = np.random.default_rng(21)
        gain = random_lower_triangular(rng, scale=835.0)
        bias = rng.uniform(-100, 100, 3)
        cal_obj = {"gain": gain, "bias": bias, "noise_sigma": 1.0}
        from pdrnav.calibration import SensorCalibration

        cal = SensorCalibration(**cal_obj)
        truth = rng.uniform(-2 * GRAVITY, 2 * GRAVITY, (50, 3))
        raw = truth @ gain.T + bias
        assert_allclose(apply_accel_calibration(cal, raw), truth, atol=1e-9)
        assert_allclose(apply_accel_calibration(cal, raw[0]), truth[0], atol=1e-9)

    def test_gyro_datasheet_round_trip(self):
        lsb = np.deg2rad(500.0) / 32768.0
        cal = scale_calibration(lsb)
        rng = np.random.default_rng(22)
        truth = rng.uniform(-5, 5, (40, 3))
        raw = truth / lsb
        assert np.max(np.abs(apply_gyro_calibration(cal, raw) - truth)) < 1e-9


class TestSpreadDirections:
    def test_unit_norm_and_coverage(self):
        d = spread_directions(64)
        assert_allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)
        # Both hemispheres populated on every axis.
        assert np.all(d.max(axis=0) > 0.5)
        assert np.all(d.min(axis=0) < -0.5)
