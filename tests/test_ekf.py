"""Tracking filter: dynamics oracles, Jacobian accuracy, update algebra."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pdrnav.tracker as tracker_module
from pdrnav import constants, ekf
from pdrnav.calibration import apply_accel_calibration, apply_gyro_calibration
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
    _transition,
    default_filter_config,
    init_state,
    measurement_model,
    predict,
    propagate,
    update,
)
from pdrnav.gait import GaitParams, generate_gait, inverse_imu, razor_noise, scale_calibration
from pdrnav.quat import quat_normalize, quat_rotate
from pdrnav.tracker import ImuLog, TrackerDivergence, run_tracker
from pdrnav.zupt import StanceStack, default_stance_config, sfs_series, zupt_update

from faults import stage_inputs
from oracles import (
    chain_rule_quaternion_rows,
    chain_tracker,
    dense_imu_update,
    finite_difference_jacobian,
    kalman_update,
    measurement_jacobian,
    random_covariance,
    random_nav_state,
    richardson_jacobian,
    rot_matrix,
    rpy_from_quat,
)


@pytest.fixture
def cfg():
    return default_filter_config()


def process_jacobian(x, cfg):
    """The closed-form process Jacobian that `predict` runs."""
    return _transition(np.asarray(x, dtype=float), cfg)[1]


def g_vec(cfg):
    """Gravity in the navigation frame (z up, so it points down)."""
    return np.array([0.0, 0.0, -cfg.g])


def rest_state(rng, cfg):
    """A physically at-rest state: the body feels the upward reaction."""
    x = np.zeros(DIM)
    q = rng.standard_normal(4)
    x[QUAT] = q / np.linalg.norm(q)
    x[ACC_B] = quat_rotate(x[QUAT], -g_vec(cfg))
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
        x[ACC] = g_vec(cfg)  # already propagated once from a_b = 0
        n = 50
        for _ in range(n):
            x = propagate(x, cfg)
        ts = cfg.ts
        assert_allclose(x[VEL], v0 + n * ts * g_vec(cfg), atol=1e-12)
        assert_allclose(
            x[POS], p0 + n * ts * v0 + 0.5 * n * n * ts * ts * g_vec(cfg), atol=1e-10
        )

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
        expected = rot_matrix(x[QUAT]).T @ x[ACC_B] + g_vec(cfg)
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

        def broken(x):
            out = x[:3].copy()
            if x[7] != base[7]:
                out[0] = np.nan
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

    @pytest.mark.parametrize("seed, still", [
        (34, False), (35, False), (37, False), (38, True), (39, True),
    ], ids=["seed34", "seed35", "seed37", "seed38-series", "seed39-series"])
    def test_predict_pushes_covariance_through_it(self, cfg, seed, still):
        # Bit for bit against the ``@`` products, on both branches of
        # the quaternion exponential (``still``: the series branch).
        rng = np.random.default_rng(seed)
        x, p_mat = random_nav_state(rng), random_covariance(rng)
        if still:
            x[OMEGA] *= 1e-7
            assert np.linalg.norm(0.5 * cfg.ts * x[OMEGA]) < 1e-8
        jac = process_jacobian(x, cfg)
        want = jac @ p_mat @ jac.T + np.diag(cfg.effective_q_diag())
        x1, p1 = predict(x, p_mat, cfg, cfg.effective_q_diag())
        assert_allclose(x1, propagate(x, cfg), rtol=0, atol=0)
        assert_allclose(p1, 0.5 * (want + want.T), rtol=0, atol=0)


def fd_predict(x, p_mat, cfg, q_diag):
    """The time update with the finite-difference oracle Jacobian."""
    jac = finite_difference_jacobian(lambda s: propagate(s, cfg), x, DIM)
    p1 = jac @ p_mat @ jac.T + np.diag(q_diag)
    return propagate(x, cfg), 0.5 * (p1 + p1.T)


def fd_zupt_update(x, p_mat, linearize, variances):
    """The stance update with the finite-difference oracle Jacobian."""
    residual = lambda s: linearize(s)[0]
    nu = residual(x)
    jac = -finite_difference_jacobian(residual, x, nu.size)
    x1, p1 = kalman_update(x, p_mat, nu, np.zeros_like(nu), jac, variances)
    x1[QUAT] = quat_normalize(x1[QUAT])
    return x1, p1


def l_walk():
    """A 4 m L-shaped walk at 100 Hz: the log and its datasheet
    calibrations."""
    fs = 100.0
    lsb_a, lsb_w = constants.DEFAULT_LSB_ACCEL, constants.DEFAULT_LSB_GYRO
    cal_a, cal_w = scale_calibration(lsb_a), scale_calibration(lsb_w)
    params = GaitParams(step_length=1.0, cadence=1.5,
                        path=[[0.0, 0.0], [2.0, 0.0], [2.0, 2.0]], seed=3)
    truth = generate_gait(params, fs)
    counts_a, counts_w = inverse_imu(truth, cal_a, cal_w, razor_noise(fs), seed=3)
    log = ImuLog(t=truth.t, accel=counts_a, gyro=counts_w, fs=fs,
                 lsb_accel=lsb_a, lsb_gyro=lsb_w)
    return log, cal_a, cal_w


def test_tracker_matches_finite_difference_oracle():
    # The L walk, tracked once with the closed-form Jacobians and once
    # by the per-call chain with both swapped for the difference oracle.
    log, cal_a, cal_w = l_walk()
    closed = run_tracker(log, cal_a, cal_w)
    oracle = chain_tracker(log, cal_a, cal_w, predict=fd_predict,
                           stance_update=fd_zupt_update)

    assert closed.stance.any()
    np.testing.assert_array_equal(closed.stance, oracle.stance)
    err = np.linalg.norm(closed.p - oracle.p, axis=1)
    assert np.max(err) < 1e-6


class TestFilterConfig:
    @pytest.mark.parametrize("flag", ["false", 0, 1.0, None])
    def test_estimate_biases_must_be_a_boolean(self, flag):
        # "false" is truthy: read as a flag it would switch the biases on.
        with pytest.raises(ValueError, match="estimate_biases"):
            FilterConfig(estimate_biases=flag)

    @pytest.mark.parametrize("g", [0.0, -GRAVITY, np.nan, np.inf])
    def test_gravity_must_be_positive_and_finite(self, g):
        rule = "g must be positive" if np.isfinite(g) else "'g' must be a finite number"
        with pytest.raises(ValueError, match=rf"{rule}, got {g!r}$"):
            FilterConfig(g=g)

    @pytest.mark.parametrize("key", ["q_diag", "r_diag"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_noise_variances_must_be_finite(self, key, value):
        # NaN passes the sign checks, and so does +inf.
        noise = getattr(FilterConfig(), key).copy()
        noise[2] = value
        with pytest.raises(ValueError, match=rf"(?s)'{key}' must be a finite "
                                             rf"number.*,\s*{value!r},"):
            FilterConfig(**{key: noise})


class TestPredict:
    def test_bias_trace_grows_by_exactly_q(self, cfg):
        # Bias rows propagate through an identity Jacobian, so their
        # covariance block gains exactly the q entries.  Sized so the
        # 1e-10 relative noise of the difference quotient is invisible.
        q_diag = cfg.q_diag.copy()
        q_diag[19:25] = np.linspace(1e-3, 6e-3, 6)
        loud = FilterConfig(ts=cfg.ts, q_diag=q_diag, r_diag=cfg.r_diag)
        rng = np.random.default_rng(9)
        x, p_mat = random_nav_state(rng), random_covariance(rng)
        _, p1 = predict(x, p_mat, loud, loud.effective_q_diag())
        grew = np.trace(p1[19:25, 19:25]) - np.trace(p_mat[19:25, 19:25])
        assert grew == pytest.approx(np.sum(q_diag[19:25]), rel=1e-6)

    def test_symmetric_and_unit_quaternion(self, cfg):
        rng = np.random.default_rng(10)
        x1, p1 = predict(random_nav_state(rng), random_covariance(rng), cfg,
                         cfg.effective_q_diag())
        assert np.array_equal(p1, p1.T)
        assert np.linalg.norm(x1[QUAT]) == pytest.approx(1.0, abs=1e-12)

    def test_nonfinite_covariance_raises(self, monkeypatch):
        # predict returns the covariance unchecked; the tracker's one
        # check per step refuses an infinite entry predict receives on
        # one sample of the L walk, and its replay names predict, at
        # the sample, with the message and partial trajectory of the
        # chain that checks after every stage.
        log, cal_a, cal_w = l_walk()
        key = stage_inputs(log, cal_a, cal_w, "predict")[150]

        def infinite_input(kernel):
            def run(x, p_mat, *rest):
                if np.array_equal(x, key):
                    p_mat = p_mat.copy()
                    p_mat[0, 0] = np.inf
                return kernel(x, p_mat, *rest)
            return run

        caught = []
        with np.errstate(invalid="ignore"):
            x, p_mat = key, np.eye(DIM)
            p_mat[0, 0] = np.inf
            cfg = default_filter_config(log.fs)
            _, p1 = predict(x, p_mat, cfg, cfg.effective_q_diag())
            assert not np.isfinite(p1).all()
            monkeypatch.setattr(tracker_module, "predict",
                                infinite_input(predict))
            for run in (run_tracker, lambda *args: chain_tracker(
                    *args, predict=infinite_input(predict))):
                with pytest.raises(TrackerDivergence) as info:
                    run(log, cal_a, cal_w)
                caught.append(info.value)
        step, chain = caught
        for exc in (step, chain):
            assert exc.diagnostic.sample_index == 150
            assert exc.diagnostic.stage == "predict"
            assert exc.diagnostic.message == "covariance is no longer finite"
            assert exc.trajectory.t.size == 150
        np.testing.assert_array_equal(step.trajectory.p, chain.trajectory.p)
        np.testing.assert_array_equal(step.trajectory.q_nb,
                                      chain.trajectory.q_nb)


class TestUpdate:
    def test_zero_innovation_fixes_mean_and_contracts_trace(self, cfg):
        rng = np.random.default_rng(12)
        x, p_mat = random_nav_state(rng), random_covariance(rng)
        x[QUAT] /= np.linalg.norm(x[QUAT])
        x1, p1 = update(x, p_mat, measurement_model(x), cfg.r_diag)
        assert_allclose(x1, x, atol=1e-12)
        assert np.trace(p1) < np.trace(p_mat)
        assert np.min(np.linalg.eigvalsh(p1)) > -1e-9 * np.trace(p1)

    def test_huge_r_is_a_noop(self, cfg):
        rng = np.random.default_rng(13)
        x, p_mat = random_nav_state(rng), random_covariance(rng)
        z = measurement_model(x) + rng.standard_normal(MEAS_DIM)
        x1, p1 = update(x, p_mat, z, np.full(MEAS_DIM, 1e12))
        assert np.max(np.abs(x1 - x)) < 1e-6 * (1 + np.max(np.abs(x)))
        assert np.max(np.abs(p1 - p_mat)) < 1e-6 * np.max(np.abs(p_mat))

    def test_scalar_case_hand_numbers(self):
        # P=4, R=1: S=5, K=0.8, x1 = 2 + 0.8(3-2) = 2.8, P1 = 0.8.
        x1, p1 = kalman_update(
            np.array([2.0]), np.array([[4.0]]), np.array([3.0]),
            np.array([2.0]), np.array([[1.0]]), np.array([1.0]),
        )
        assert x1[0] == pytest.approx(2.8, rel=1e-12)
        assert p1[0, 0] == pytest.approx(0.8, rel=1e-12)

    def test_divergent_covariance_raises(self):
        x = np.zeros(DIM)
        x[QUAT][0] = 1.0
        with pytest.raises(FilterDivergenceError):
            update(x, -10.0 * np.eye(DIM), np.zeros(MEAS_DIM), np.full(6, 1e-9))


class TestStructuredUpdate:
    """`update` passes the dense H = [0 | I | I] to the one Joseph-form
    update; it must be the general `kalman_update` with that matrix bit
    for bit, and both must refuse an innovation covariance that cannot
    be factored."""

    def test_matches_general_update(self, cfg):
        rng = np.random.default_rng(50)
        for _ in range(50):
            x = random_nav_state(rng)
            p0 = random_covariance(rng, scale=rng.uniform(1e-3, 1.0))
            z = measurement_model(x) + 0.1 * rng.standard_normal(MEAS_DIM)
            got_x, got_p = update(x, p0, z, cfg.r_diag)
            want_x, want_p = dense_imu_update(x, p0, z, cfg.r_diag)
            np.testing.assert_array_equal(got_x, want_x)
            np.testing.assert_array_equal(got_p, want_p)

    @staticmethod
    def imu_update(p_mat, r_diag):
        x = np.zeros(DIM)
        x[QUAT][0] = 1.0
        return update(x, p_mat, np.zeros(MEAS_DIM), r_diag)

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


_NON_FINITE = (np.nan, np.inf, -np.inf)


class TestFiniteChecks:
    """The finite checks on P, S and x are one dot product with zeros:
    0 * NaN and 0 * +-inf are NaN, 0 * finite is +-0.  Every non-finite
    value at every entry must be caught, and the largest finite values
    must pass."""

    def test_covariance_entry(self):
        p_mat = random_covariance(np.random.default_rng(60))
        for index in np.ndindex(p_mat.shape):
            for value in _NON_FINITE:
                bad = p_mat.copy()
                bad[index] = value
                with pytest.raises(FilterDivergenceError,
                                   match="covariance is no longer finite"):
                    ekf._check_covariance(bad)

    @pytest.mark.parametrize("m", [MEAS_DIM, 22])
    def test_innovation_covariance_entry(self, m):
        rng = np.random.default_rng(61)
        s_mat = random_covariance(rng, dim=m)
        hp = rng.standard_normal((m, DIM))
        for index in np.ndindex(s_mat.shape):
            for value in _NON_FINITE:
                bad = s_mat.copy()
                bad[index] = value
                with pytest.raises(FilterDivergenceError,
                                   match="innovation covariance is not finite"):
                    ekf._innovation_gain(bad, hp)

    def test_state_entry(self):
        rng = np.random.default_rng(62)
        x, p_mat = random_nav_state(rng), random_covariance(rng)
        tracker_module._check_state(x, p_mat)
        for i in range(DIM):
            for value in _NON_FINITE:
                bad = x.copy()
                bad[i] = value
                with pytest.raises(FilterDivergenceError,
                                   match="state became non-finite"):
                    tracker_module._check_state(bad, p_mat)

    def test_largest_finite_entries_pass(self):
        signs = np.random.default_rng(63).choice([-1.0, 1.0], (DIM, DIM))
        huge = 1e308 * signs
        assert ekf._finite(huge)
        np.fill_diagonal(huge, 1e308)
        ekf._check_covariance(huge)


def joseph_error(p_mat, p1, gain, jac, r_diag):
    """Largest entry of ``p1`` minus (I - K H) P (I - K H)^T + K R K^T,
    evaluated in extended precision from the same float64 P, K, H and R,
    relative to sqrt(P1_ii P1_jj) of that evaluation."""
    p_mat, gain, jac = (np.asarray(a, dtype=np.longdouble)
                        for a in (p_mat, gain, jac))
    r_diag = np.asarray(r_diag, dtype=np.longdouble)
    ikh = np.eye(DIM, dtype=np.longdouble) - gain @ jac
    want = ikh @ p_mat @ ikh.T + (gain * r_diag) @ gain.T
    scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
    return float(np.max(np.abs(p1 - want) / scale))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="long double is no wider than float64 here")
def test_update_covariance_matches_extended_precision():
    # The updates keep the Joseph product form for its accuracy: along
    # the L walk, stepped as the tracker steps it, the covariance of
    # sampled IMU and stance updates agrees with an extended-precision
    # evaluation of the same formula for the same gain to about 1e-15
    # relative, where the expanded form P - K H P - (K H P)^T + K S K^T
    # is off by about 1e-11.
    log, cal_a, cal_w = l_walk()
    cfg, stance_cfg = default_filter_config(log.fs), default_stance_config(log.fs)
    f_b = apply_accel_calibration(cal_a, np.asarray(log.accel, dtype=float))
    w_b = apply_gyro_calibration(cal_w, np.asarray(log.gyro, dtype=float))
    scores = sfs_series(f_b, w_b, stance_cfg)
    active = scores >= stance_cfg.sfs_threshold
    x, p_mat = init_state(np.zeros(3), 0.0, f_b[:100], w_b[:100], cfg, log.fs)
    q_diag, h_imu = cfg.effective_q_diag(), measurement_jacobian()
    stance = StanceStack(stance_cfg, cfg.g)
    errors = {"imu": [], "stance": []}
    for k in range(log.t.size):
        z = np.concatenate([f_b[k], w_b[k]])
        x, p_mat = predict(x, p_mat, cfg, q_diag)
        x1, p1 = update(x, p_mat, z, cfg.r_diag)
        if k % 10 == 0:
            hp = h_imu @ p_mat
            gain = ekf._innovation_gain(hp @ h_imu.T + np.diag(cfg.r_diag), hp)
            errors["imu"].append(joseph_error(p_mat, p1, gain, h_imu, cfg.r_diag))
        x, p_mat = x1, p1
        if active[k]:
            if k == 0 or not active[k - 1]:
                stance.latch(x)
            factor = 1.0 + stance_cfg.covariance_gain * (1.0 - scores[k])
            x1, p1 = zupt_update(x, p_mat, stance, z, factor)
            if k % 5 == 0:
                _, jac = stance.linearize(x, z)
                variances = factor * stance.base_variances
                hp = jac @ p_mat
                gain = ekf._innovation_gain(hp @ jac.T + np.diag(variances), hp)
                errors["stance"].append(
                    joseph_error(p_mat, p1, gain, jac, variances))
            x, p_mat = x1, p1
    assert len(errors["stance"]) > 20
    for kind, errs in errors.items():
        assert max(errs) < 1e-13, (kind, max(errs))


class TestInitState:
    def make_still(self, roll_deg, n=80, g=GRAVITY):
        roll = np.deg2rad(roll_deg)
        f = np.array([0.0, g * np.sin(roll), g * np.cos(roll)])
        return np.tile(f, (n, 1)), np.zeros((n, 3))

    def test_recovers_tilt(self, cfg):
        accel, gyro = self.make_still(10.0)
        x, _ = init_state(np.zeros(3), 0.3, accel, gyro, cfg, fs=100.0)
        roll, pitch, yaw = rpy_from_quat(x[QUAT])
        assert roll == pytest.approx(np.deg2rad(10.0), abs=1e-12)
        assert pitch == pytest.approx(0.0, abs=1e-12)
        assert yaw == pytest.approx(0.3, abs=1e-12)

    def test_level_start_is_filter_fixed_point(self, cfg):
        accel, gyro = self.make_still(0.0)
        x, _ = init_state(np.zeros(3), 0.0, accel, gyro, cfg, fs=100.0)
        assert_allclose(propagate(x, cfg), x, atol=1e-13)

    def test_covariance_equals_process_noise(self, cfg):
        accel, gyro = self.make_still(5.0)
        _, p_mat = init_state(np.zeros(3), 0.0, accel, gyro, cfg, fs=100.0)
        assert_allclose(p_mat, np.diag(cfg.q_diag), rtol=0)

    def test_too_short_raises(self, cfg):
        accel, gyro = self.make_still(0.0, n=20)
        with pytest.raises(ValueError, match="0.5 s"):
            init_state(np.zeros(3), 0.0, accel, gyro, cfg, fs=100.0)

    def test_moving_raises(self, cfg):
        accel, gyro = self.make_still(0.0)
        gyro = gyro + 2.0
        with pytest.raises(ValueError, match="not still"):
            init_state(np.zeros(3), 0.0, accel, gyro, cfg, fs=100.0)

    def test_median_rate_may_equal_the_still_limit(self, cfg):
        assert constants.STILL_RATE_LIMIT == 0.05
        accel, gyro = self.make_still(0.0)
        gyro[:, 0] = constants.STILL_RATE_LIMIT
        init_state(np.zeros(3), 0.0, accel, gyro, cfg, fs=100.0)
        gyro[:, 0] = np.nextafter(constants.STILL_RATE_LIMIT, 1.0)
        with pytest.raises(ValueError, match="not still"):
            init_state(np.zeros(3), 0.0, accel, gyro, cfg, fs=100.0)

    @pytest.mark.parametrize("spread, still", [(0.5 * (1 - 1e-9), True),
                                               (0.5 * (1 + 1e-9), False)])
    def test_accel_spread_limit_is_half_a_unit(self, cfg, spread, still):
        # Magnitudes alternate g + d and g - d: their deviation is d.
        accel, gyro = self.make_still(0.0)
        accel[0::2, 2] += spread
        accel[1::2, 2] -= spread
        if still:
            init_state(np.zeros(3), 0.0, accel, gyro, cfg, fs=100.0)
        else:
            with pytest.raises(ValueError, match="not still"):
                init_state(np.zeros(3), 0.0, accel, gyro, cfg, fs=100.0)


class TestStability:
    def test_thousand_cycles_stay_psd(self, cfg):
        rng = np.random.default_rng(16)
        x, p_mat = rest_state(rng, cfg), np.diag(cfg.q_diag).copy()
        z0 = measurement_model(x)
        for k in range(1000):
            x, p_mat = predict(x, p_mat, cfg, cfg.effective_q_diag())
            z = z0 + rng.normal(0.0, np.sqrt(cfg.r_diag))
            x, p_mat = update(x, p_mat, z, cfg.r_diag)
        assert np.all(np.isfinite(p_mat))
        assert np.min(np.linalg.eigvalsh(p_mat)) > -1e-9 * np.trace(p_mat)
        assert np.linalg.norm(x[QUAT]) == pytest.approx(1.0, abs=1e-9)
