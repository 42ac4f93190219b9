"""Tracking filter: dynamics oracles, Jacobian accuracy, update algebra."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pdrnav.tracker as tracker_module
from pdrnav import constants
from pdrnav.constants import GRAVITY
from pdrnav.ekf import (
    ACC,
    ACC_B,
    BIAS_A,
    BIAS_W,
    DIM,
    MEAS_DIM,
    OMEGA,
    POS,
    QUAT,
    VEL,
    FilterConfig,
    FilterDivergenceError,
    NavState,
    StateEstimate,
    default_filter_config,
    init_state,
    kalman_update,
    measurement_jacobian,
    measurement_model,
    predict,
    process_jacobian,
    propagate,
    update,
)
from pdrnav.gait import GaitParams, generate_gait, inverse_imu, razor_noise, scale_calibration
from pdrnav.quat import quat_normalize, quat_rotate, rot_matrix, rpy_from_quat
from pdrnav.tracker import ImuLog, run_tracker

from oracles import (
    chain_rule_quaternion_rows,
    finite_difference_jacobian,
    random_covariance,
    random_nav_state,
    richardson_jacobian,
)


@pytest.fixture
def cfg():
    return default_filter_config()


def rest_state(rng, cfg):
    """A physically at-rest state: the body feels the upward reaction."""
    x = np.zeros(DIM)
    q = rng.standard_normal(4)
    x[QUAT] = q / np.linalg.norm(q)
    x[ACC_B] = quat_rotate(x[QUAT], -cfg.g_vec)
    return x


class TestPropagate:
    def test_rest_is_a_fixed_point(self, cfg):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rest_state(rng, cfg)
            assert_allclose(propagate(x, cfg), x, atol=1e-13)

    def test_constant_yaw_rate_integrates_exactly(self, cfg):
        # 90 deg/s about body z for 1 s advances yaw by 90 deg.
        x = np.zeros(DIM)
        x[QUAT][0] = 1.0
        x[OMEGA] = [0.0, 0.0, np.pi / 2]
        for _ in range(100):
            x = propagate(x, cfg)
        _, _, yaw = rpy_from_quat(x[QUAT])
        assert yaw == pytest.approx(np.pi / 2, abs=1e-6)

    def test_ballistic_closed_form(self, cfg):
        # Zero specific force: discrete sums have a closed form.
        rng = np.random.default_rng(1)
        p0, v0 = rng.standard_normal(3), rng.standard_normal(3)
        x = np.zeros(DIM)
        x[POS], x[VEL] = p0, v0
        x[QUAT][0] = 1.0
        x[ACC] = cfg.g_vec  # already propagated once from a_b = 0
        n = 50
        for _ in range(n):
            x = propagate(x, cfg)
        ts = cfg.ts
        assert_allclose(x[VEL], v0 + n * ts * cfg.g_vec, atol=1e-12)
        assert_allclose(
            x[POS], p0 + n * ts * v0 + 0.5 * n * n * ts * ts * cfg.g_vec, atol=1e-10
        )

    def test_batch_matches_single(self, cfg):
        rng = np.random.default_rng(2)
        xs = np.column_stack([random_nav_state(rng) for _ in range(7)])
        batch = propagate(xs, cfg)
        for i in range(7):
            assert_allclose(batch[:, i], propagate(xs[:, i], cfg), rtol=1e-15)

    def test_output_quaternion_is_unit(self, cfg):
        rng = np.random.default_rng(3)
        x = random_nav_state(rng)
        x[QUAT] *= 1.01  # slightly off-unit input
        out = propagate(x, cfg)
        assert np.linalg.norm(out[QUAT]) == pytest.approx(1.0, abs=1e-12)

    def test_specific_force_maps_through_attitude(self, cfg):
        rng = np.random.default_rng(4)
        x = random_nav_state(rng)
        out = propagate(x, cfg)
        expected = rot_matrix(x[QUAT]).T @ x[ACC_B] + cfg.g_vec
        assert_allclose(out[ACC], expected, atol=1e-12)


class TestJacobians:
    def test_measurement_fd_matches_constant_matrix(self, cfg):
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = random_nav_state(rng)
            fd = finite_difference_jacobian(measurement_model, x, MEAS_DIM)
            assert np.max(np.abs(fd - measurement_jacobian())) < 1e-8

    def test_dynamics_fd_vs_richardson(self, cfg):
        rng = np.random.default_rng(6)
        f = lambda xs: propagate(xs, cfg)
        for _ in range(5):
            x = random_nav_state(rng)
            fd = finite_difference_jacobian(f, x, DIM)
            ref = richardson_jacobian(lambda s: propagate(s, cfg), x, DIM)
            assert np.max(np.abs(fd - ref)) < 1e-5

    def test_linear_blocks_are_exact(self, cfg):
        rng = np.random.default_rng(7)
        x = random_nav_state(rng)
        jac = finite_difference_jacobian(lambda xs: propagate(xs, cfg), x, DIM)
        ts = cfg.ts
        eye = np.eye(3)
        assert_allclose(jac[POS, VEL], ts * eye, atol=1e-9)
        assert_allclose(jac[POS, ACC], 0.5 * ts * ts * eye, atol=1e-9)
        assert_allclose(jac[VEL, ACC], ts * eye, atol=1e-9)
        assert_allclose(jac[ACC, ACC_B], rot_matrix(x[QUAT]).T, atol=1e-7)
        assert_allclose(jac[BIAS_A, BIAS_A], eye, atol=1e-9)
        assert_allclose(jac[BIAS_W, BIAS_W], eye, atol=1e-9)

    def test_one_sided_difference_consistency(self, cfg):
        # Central and forward differences agree to O(h): loose bound.
        rng = np.random.default_rng(8)
        x = random_nav_state(rng)
        central = finite_difference_jacobian(lambda xs: propagate(xs, cfg), x, DIM)
        h = np.maximum(1e-6, 1e-6 * np.abs(x))
        forward = np.empty_like(central)
        fx = propagate(x, cfg)
        for j in range(DIM):
            xp = x.copy()
            xp[j] += h[j]
            forward[:, j] = (propagate(xp, cfg) - fx) / h[j]
        assert np.max(np.abs(central - forward)) < 1e-4

    def test_nonfinite_output_names_coordinate(self):
        base = np.arange(1.0, DIM + 1.0)

        def broken(xs):
            out = xs[:3].copy()
            out[0, xs[7] != base[7]] = np.nan
            return out

        with pytest.raises(ValueError, match="coordinate 7"):
            finite_difference_jacobian(broken, base, 3)


class TestProcessJacobian:
    def test_matches_richardson_on_random_states(self, cfg):
        # Off-unit quaternions too: the state quaternion is perturbed
        # additively, so the derivative must hold off the unit sphere.
        rng = np.random.default_rng(30)
        for _ in range(50):
            x = random_nav_state(rng)
            x[QUAT] *= rng.uniform(0.8, 1.2)
            ref = richardson_jacobian(lambda s: propagate(s, cfg), x, DIM)
            assert np.max(np.abs(process_jacobian(x, cfg) - ref)) <= 1e-5

    def test_matches_richardson_near_still(self, cfg):
        # |ts omega / 2| ~ 6e-10 sits under the 1e-8 series cutoff of
        # quat_exp, so the series branch of the derivative runs.
        rng = np.random.default_rng(32)
        x = rest_state(rng, cfg)
        x[OMEGA] = [1e-7, -5e-8, 2e-8]
        assert np.linalg.norm(0.5 * cfg.ts * x[OMEGA]) < 1e-8
        ref = richardson_jacobian(lambda s: propagate(s, cfg), x, DIM)
        assert np.max(np.abs(process_jacobian(x, cfg) - ref)) <= 1e-5

    def test_quaternion_rows_match_chain_rule(self, cfg):
        # The kernel folds the normalisation Jacobian into closed forms
        # (u^T dm/dq = q^T / |m|, and the rate columns only scale); the
        # plain product of the three factor Jacobians must agree with it
        # to rounding, on and off the unit sphere and on both branches
        # of the exponential.
        rng = np.random.default_rng(36)
        for k in range(50):
            x = random_nav_state(rng)
            x[QUAT] *= rng.uniform(0.8, 1.2)
            if k % 5 == 0:
                x[OMEGA] *= 1e-7
            rows = chain_rule_quaternion_rows(x, cfg.ts)
            assert np.max(np.abs(process_jacobian(x, cfg)[QUAT] - rows)) <= 1e-12

    def test_predict_pushes_covariance_through_it(self, cfg):
        rng = np.random.default_rng(34)
        est = StateEstimate(x=random_nav_state(rng), P=random_covariance(rng))
        jac = process_jacobian(est.x, cfg)
        want = jac @ est.P @ jac.T + np.diag(cfg.effective_q_diag())
        out = predict(est, cfg)
        assert_allclose(out.x, propagate(est.x, cfg), rtol=0, atol=0)
        assert_allclose(out.P, 0.5 * (want + want.T), rtol=0, atol=0)


def fd_predict(est, cfg):
    """The time update with the finite-difference oracle Jacobian."""
    jac = finite_difference_jacobian(lambda xs: propagate(xs, cfg), est.x, DIM)
    p1 = jac @ est.P @ jac.T + np.diag(cfg.effective_q_diag())
    return StateEstimate(x=propagate(est.x, cfg), P=0.5 * (p1 + p1.T))


def fd_zupt_update(est, residual, variances, *, joseph=True):
    """The stance update with the finite-difference oracle Jacobian."""
    nu = residual(est.x)
    jac = -finite_difference_jacobian(residual, est.x, nu.size)
    x1, p1 = kalman_update(est.x, est.P, nu, np.zeros_like(nu), jac,
                           variances, joseph)
    x1[QUAT] = quat_normalize(x1[QUAT])
    return StateEstimate(x=x1, P=p1)


def test_tracker_matches_finite_difference_oracle(monkeypatch):
    # A 4 m L-shaped walk, tracked once with the closed-form
    # Jacobians and once with both swapped for the difference oracle.
    fs = 100.0
    lsb_a, lsb_w = constants.DEFAULT_LSB_ACCEL, constants.DEFAULT_LSB_GYRO
    cal_a, cal_w = scale_calibration(lsb_a), scale_calibration(lsb_w)
    params = GaitParams(step_length=1.0, cadence=1.5,
                        path=[[0.0, 0.0], [2.0, 0.0], [2.0, 2.0]], seed=3)
    truth = generate_gait(params, fs)
    counts_a, counts_w = inverse_imu(truth, cal_a, cal_w, razor_noise(fs), seed=3)
    log = ImuLog(t=truth.t, accel=counts_a, gyro=counts_w, fs=fs,
                 lsb_accel=lsb_a, lsb_gyro=lsb_w)

    closed = run_tracker(log, cal_a, cal_w)
    monkeypatch.setattr(tracker_module, "predict", fd_predict)
    monkeypatch.setattr(tracker_module, "zupt_update", fd_zupt_update)
    oracle = run_tracker(log, cal_a, cal_w)

    assert closed.stance.any()
    np.testing.assert_array_equal(closed.stance, oracle.stance)
    err = np.linalg.norm(closed.p - oracle.p, axis=1)
    assert np.max(err) < 1e-6


class TestPredict:
    def test_bias_trace_grows_by_exactly_q(self, cfg):
        # Bias rows propagate through an identity Jacobian, so their
        # covariance block gains exactly the q entries.  Sized so the
        # 1e-10 relative noise of the difference quotient is invisible.
        q_diag = cfg.q_diag.copy()
        q_diag[19:25] = np.linspace(1e-3, 6e-3, 6)
        loud = FilterConfig(ts=cfg.ts, q_diag=q_diag, r_diag=cfg.r_diag)
        rng = np.random.default_rng(9)
        est = StateEstimate(x=random_nav_state(rng), P=random_covariance(rng))
        out = predict(est, loud)
        grew = np.trace(out.P[19:25, 19:25]) - np.trace(est.P[19:25, 19:25])
        assert grew == pytest.approx(np.sum(q_diag[19:25]), rel=1e-6)

    def test_symmetric_and_unit_quaternion(self, cfg):
        rng = np.random.default_rng(10)
        est = StateEstimate(x=random_nav_state(rng), P=random_covariance(rng))
        out = predict(est, cfg)
        assert np.array_equal(out.P, out.P.T)
        assert np.linalg.norm(out.x[QUAT]) == pytest.approx(1.0, abs=1e-12)

    def test_nonfinite_covariance_raises(self, cfg):
        rng = np.random.default_rng(11)
        p_bad = random_covariance(rng)
        p_bad[0, 0] = np.inf
        est = StateEstimate(x=random_nav_state(rng), P=p_bad)
        with np.errstate(invalid="ignore"), pytest.raises(FilterDivergenceError):
            predict(est, cfg)


class TestUpdate:
    def test_zero_innovation_fixes_mean_and_contracts_trace(self, cfg):
        rng = np.random.default_rng(12)
        est = StateEstimate(x=random_nav_state(rng), P=random_covariance(rng))
        est.x[QUAT] /= np.linalg.norm(est.x[QUAT])
        z = measurement_model(est.x)
        out = update(est, z, cfg)
        assert_allclose(out.x, est.x, atol=1e-12)
        assert np.trace(out.P) < np.trace(est.P)
        assert np.min(np.linalg.eigvalsh(out.P)) > -1e-9 * np.trace(out.P)

    def test_huge_r_is_a_noop(self, cfg):
        rng = np.random.default_rng(13)
        est = StateEstimate(x=random_nav_state(rng), P=random_covariance(rng))
        big = FilterConfig(
            ts=cfg.ts, q_diag=cfg.q_diag, r_diag=np.full(MEAS_DIM, 1e12)
        )
        z = measurement_model(est.x) + rng.standard_normal(MEAS_DIM)
        out = update(est, z, big)
        assert np.max(np.abs(out.x - est.x)) < 1e-6 * (1 + np.max(np.abs(est.x)))
        assert np.max(np.abs(out.P - est.P)) < 1e-6 * np.max(np.abs(est.P))

    def test_joseph_and_plain_agree_when_healthy(self, cfg):
        rng = np.random.default_rng(14)
        x = random_nav_state(rng)
        p0 = random_covariance(rng)
        z = measurement_model(x) + 0.1 * rng.standard_normal(MEAS_DIM)
        est = StateEstimate(x=x.copy(), P=p0.copy())
        plain_cfg = FilterConfig(
            ts=cfg.ts, q_diag=cfg.q_diag, r_diag=cfg.r_diag, joseph=False
        )
        a = update(est, z, cfg)
        b = update(StateEstimate(x=x.copy(), P=p0.copy()), z, plain_cfg)
        assert_allclose(a.x, b.x, rtol=1e-12)
        assert_allclose(a.P, b.P, rtol=1e-9, atol=1e-12)

    def test_scalar_case_hand_numbers(self):
        # P=4, R=1: S=5, K=0.8, x1 = 2 + 0.8(3-2) = 2.8, P1 = 0.8.
        x1, p1 = kalman_update(
            np.array([2.0]), np.array([[4.0]]), np.array([3.0]),
            np.array([2.0]), np.array([[1.0]]), np.array([1.0]),
        )
        assert x1[0] == pytest.approx(2.8, rel=1e-12)
        assert p1[0, 0] == pytest.approx(0.8, rel=1e-12)

    def test_divergent_covariance_raises(self, cfg):
        est = StateEstimate(x=np.zeros(DIM), P=-10.0 * np.eye(DIM))
        est.x[QUAT][0] = 1.0
        tiny_r = FilterConfig(ts=cfg.ts, q_diag=cfg.q_diag, r_diag=np.full(6, 1e-9))
        with pytest.raises(FilterDivergenceError):
            update(est, np.zeros(MEAS_DIM), tiny_r)


class TestStructuredUpdate:
    """`update` writes out H = [0 | I | I]; it must be the general
    `kalman_update` with that matrix, and both must refuse an innovation
    covariance that cannot be factored."""

    @pytest.mark.parametrize("joseph", [True, False])
    def test_matches_general_update(self, cfg, joseph):
        cfg = dataclasses.replace(cfg, joseph=joseph)
        rng = np.random.default_rng(50)
        for _ in range(50):
            x = random_nav_state(rng)
            p0 = random_covariance(rng, scale=rng.uniform(1e-3, 1.0))
            z = measurement_model(x) + 0.1 * rng.standard_normal(MEAS_DIM)
            out = update(StateEstimate(x=x.copy(), P=p0.copy()), z, cfg)
            want_x, want_p = kalman_update(
                x, p0, z, measurement_model(x), measurement_jacobian(),
                cfg.r_diag, joseph)
            want_x[QUAT] = quat_normalize(want_x[QUAT])
            assert np.max(np.abs(out.x - want_x)) <= 1e-12 * np.max(np.abs(want_x))
            assert np.max(np.abs(out.P - want_p)) <= 1e-12 * np.max(np.abs(want_p))

    @staticmethod
    def imu_update(p_mat, r_diag):
        x = np.zeros(DIM)
        x[QUAT][0] = 1.0
        cfg = FilterConfig(q_diag=np.zeros(DIM), r_diag=r_diag)
        return update(StateEstimate(x=x, P=p_mat), np.zeros(MEAS_DIM), cfg)

    @staticmethod
    def general_update(p_mat, r_diag):
        x = np.zeros(DIM)
        return kalman_update(x, p_mat, np.zeros(MEAS_DIM), np.zeros(MEAS_DIM),
                             measurement_jacobian(), r_diag)

    @pytest.mark.parametrize("path", ["imu_update", "general_update"])
    def test_nan_innovation_covariance_raises(self, path):
        # LAPACK's dpotrf factors a NaN matrix with info 0; the finite
        # check must catch it before the gain is formed.
        p_mat = np.eye(DIM)
        p_mat[14, 20] = p_mat[20, 14] = np.nan
        with pytest.raises(FilterDivergenceError,
                           match="innovation covariance is not finite"):
            getattr(self, path)(p_mat, np.full(MEAS_DIM, 1e-3))

    @pytest.mark.parametrize("path", ["imu_update", "general_update"])
    def test_indefinite_innovation_covariance_raises(self, path):
        p_mat = np.eye(DIM)
        p_mat[16, 16] = -5.0
        with pytest.raises(FilterDivergenceError, match="not positive definite"):
            getattr(self, path)(p_mat, np.full(MEAS_DIM, 1e-3))


class TestInitState:
    def make_still(self, roll_deg, n=80, g=GRAVITY):
        roll = np.deg2rad(roll_deg)
        f = np.array([0.0, g * np.sin(roll), g * np.cos(roll)])
        return np.tile(f, (n, 1)), np.zeros((n, 3))

    def test_recovers_tilt(self, cfg):
        accel, gyro = self.make_still(10.0)
        est = init_state(np.zeros(3), 0.3, accel, gyro, cfg, fs=100.0)
        roll, pitch, yaw = rpy_from_quat(est.x[QUAT])
        assert roll == pytest.approx(np.deg2rad(10.0), abs=1e-12)
        assert pitch == pytest.approx(0.0, abs=1e-12)
        assert yaw == pytest.approx(0.3, abs=1e-12)

    def test_level_start_is_filter_fixed_point(self, cfg):
        accel, gyro = self.make_still(0.0)
        est = init_state(np.zeros(3), 0.0, accel, gyro, cfg, fs=100.0)
        assert_allclose(propagate(est.x, cfg), est.x, atol=1e-13)

    def test_covariance_equals_process_noise(self, cfg):
        accel, gyro = self.make_still(5.0)
        est = init_state(np.zeros(3), 0.0, accel, gyro, cfg, fs=100.0)
        assert_allclose(est.P, np.diag(cfg.q_diag), rtol=0)

    def test_too_short_raises(self, cfg):
        accel, gyro = self.make_still(0.0, n=20)
        with pytest.raises(ValueError, match="0.5 s"):
            init_state(np.zeros(3), 0.0, accel, gyro, cfg, fs=100.0)

    def test_moving_raises(self, cfg):
        accel, gyro = self.make_still(0.0)
        gyro = gyro + 2.0
        with pytest.raises(ValueError, match="not still"):
            init_state(np.zeros(3), 0.0, accel, gyro, cfg, fs=100.0)


class TestNavState:
    def test_round_trip(self):
        rng = np.random.default_rng(15)
        x = random_nav_state(rng)
        assert_allclose(NavState.from_vector(x).as_vector(), x, rtol=0)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            NavState.from_vector(np.zeros(24))


class TestStability:
    def test_thousand_cycles_stay_psd(self, cfg):
        rng = np.random.default_rng(16)
        est = StateEstimate(
            x=rest_state(rng, cfg), P=np.diag(cfg.q_diag).copy()
        )
        z0 = measurement_model(est.x)
        for k in range(1000):
            est = predict(est, cfg)
            z = z0 + rng.normal(0.0, np.sqrt(cfg.r_diag))
            est = update(est, z, cfg)
        assert np.all(np.isfinite(est.P))
        assert np.min(np.linalg.eigvalsh(est.P)) > -1e-9 * np.trace(est.P)
        assert np.linalg.norm(est.x[QUAT]) == pytest.approx(1.0, abs=1e-9)
