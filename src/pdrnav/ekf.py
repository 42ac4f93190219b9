"""Strapdown tracking filter for a foot-mounted IMU.

The state is a flat length-25 vector (slices exported below):

====  =========  =====================================================
dim   slice      meaning
====  =========  =====================================================
3     POS        position, navigation frame (m)
3     VEL        velocity, navigation frame (m/s)
3     ACC        acceleration, navigation frame (m/s^2)
4     QUAT       unit quaternion, navigation-to-body (w, x, y, z)
3     ACC_B      specific force, body frame (m/s^2)
3     OMEGA      angular rate, body frame (rad/s)
3     BIAS_A     accelerometer fine bias, residual after calibration
3     BIAS_W     gyroscope fine bias
====  =========  =====================================================

The IMU does not drive the dynamics as an input; it is a measurement of
the ACC_B and OMEGA states plus their biases.  Position, velocity and
acceleration integrate forward unobserved between the stance-phase
pseudo-measurement updates (see the stance module), which is what makes
the filter a dead-reckoning engine rather than an aided INS.

Both Jacobians are closed forms.  The IMU measurement matrix is exactly
constant.  The process Jacobian (`process_jacobian`) is the identity
plus the position/velocity/acceleration chain, the derivative of the
Rodrigues rotation that carries the specific force to the navigation
frame, and the derivative of the normalised quaternion increment
``normalize(exp(-ts omega / 2) * q)``; see Sola, "Quaternion kinematics
for the error-state Kalman filter" (arXiv:1711.02583), sections 4 and 6.
The quaternion is perturbed additively, as the state stores it, so these
are the derivatives of `propagate` as written, not tangent-space
approximations; the tests hold them to Richardson-extrapolated
differences of `propagate` itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from . import constants
from .quat import (
    quat_conj,
    quat_exp,
    quat_exp_jacobian,
    quat_from_rpy,
    quat_mul,
    quat_mul_jacobian,
    quat_normalize,
    quat_normalize_jacobian,
    quat_rotate,
    quat_rotate_jacobian,
)

__all__ = [
    "DIM",
    "MEAS_DIM",
    "POS",
    "VEL",
    "ACC",
    "QUAT",
    "ACC_B",
    "OMEGA",
    "BIAS_A",
    "BIAS_W",
    "FilterDivergenceError",
    "NavState",
    "StateEstimate",
    "FilterConfig",
    "default_filter_config",
    "propagate",
    "measurement_model",
    "measurement_jacobian",
    "process_jacobian",
    "predict",
    "update",
    "kalman_update",
    "init_state",
]

DIM = 25
MEAS_DIM = 6

POS = slice(0, 3)
VEL = slice(3, 6)
ACC = slice(6, 9)
QUAT = slice(9, 13)
ACC_B = slice(13, 16)
OMEGA = slice(16, 19)
BIAS_A = slice(19, 22)
BIAS_W = slice(22, 25)

_BIAS_IDX = np.r_[19:25]

# Entries of the process Jacobian set by the kinematic chain, in the
# order POS/VEL, POS/ACC, VEL/ACC, ACC/ACC (diagonals of 3x3 blocks).
_CHAIN_ROWS = np.r_[0:3, 0:3, 3:6, 6:9]
_CHAIN_COLS = np.r_[3:6, 6:9, 6:9, 6:9]


class FilterDivergenceError(RuntimeError):
    """The filter state or covariance is no longer numerically usable."""


@dataclass
class NavState:
    """Named view of one state vector; conversion to/from the flat form."""

    p: NDArray[np.float64]
    v: NDArray[np.float64]
    a: NDArray[np.float64]
    q_nb: NDArray[np.float64]
    a_b: NDArray[np.float64]
    omega: NDArray[np.float64]
    bias_a: NDArray[np.float64]
    bias_w: NDArray[np.float64]

    def as_vector(self) -> NDArray[np.float64]:
        return np.concatenate(
            [self.p, self.v, self.a, self.q_nb, self.a_b, self.omega,
             self.bias_a, self.bias_w]
        ).astype(float)

    @classmethod
    def from_vector(cls, x: NDArray[np.float64]) -> "NavState":
        x = np.asarray(x, dtype=float)
        if x.shape != (DIM,):
            raise ValueError(f"state vector must have shape ({DIM},)")
        return cls(
            p=x[POS].copy(), v=x[VEL].copy(), a=x[ACC].copy(),
            q_nb=x[QUAT].copy(), a_b=x[ACC_B].copy(), omega=x[OMEGA].copy(),
            bias_a=x[BIAS_A].copy(), bias_w=x[BIAS_W].copy(),
        )


@dataclass
class StateEstimate:
    """Filter mean and covariance."""

    x: NDArray[np.float64]
    P: NDArray[np.float64]


@dataclass
class FilterConfig:
    """Tracking filter tuning.

    ``q_diag`` and ``r_diag`` are the diagonal process and measurement
    noise variances (state order above; measurement order accel xyz then
    gyro xyz).  ``joseph`` selects the numerically symmetric update
    form; the plain form is kept for comparison.  With
    ``estimate_biases`` off the two bias blocks are frozen at zero.
    """

    ts: float = 1.0 / constants.DEFAULT_FS
    g: float = constants.GRAVITY
    q_diag: NDArray[np.float64] = field(
        default_factory=lambda: _default_q_diag()
    )
    r_diag: NDArray[np.float64] = field(
        default_factory=lambda: _default_r_diag()
    )
    joseph: bool = True
    estimate_biases: bool = True

    def __post_init__(self):
        self.q_diag = np.asarray(self.q_diag, dtype=float).reshape(DIM)
        self.r_diag = np.asarray(self.r_diag, dtype=float).reshape(MEAS_DIM)
        if not (self.ts > 0 and np.isfinite(self.ts)):
            raise ValueError("ts must be a positive time step")
        if np.any(self.q_diag < 0) or np.any(self.r_diag <= 0):
            raise ValueError("q_diag must be >= 0 and r_diag > 0")

    @property
    def g_vec(self) -> NDArray[np.float64]:
        """Gravity vector in the navigation frame (z up, so it points down)."""
        return np.array([0.0, 0.0, -self.g])

    def effective_q_diag(self) -> NDArray[np.float64]:
        q = self.q_diag.copy()
        if not self.estimate_biases:
            q[_BIAS_IDX] = 0.0
        return q

    def to_dict(self) -> dict:
        return {
            "ts": self.ts,
            "g": self.g,
            "q_diag": [float(v) for v in self.q_diag],
            "r_diag": [float(v) for v in self.r_diag],
            "joseph": self.joseph,
            "estimate_biases": self.estimate_biases,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FilterConfig":
        required = {"ts", "g", "q_diag", "r_diag", "joseph", "estimate_biases"}
        missing = required - d.keys()
        if missing:
            raise ValueError(f"filter config missing keys: {sorted(missing)}")
        unknown = d.keys() - required
        if unknown:
            raise ValueError(f"filter config has unknown keys: {sorted(unknown)}")
        return cls(
            ts=float(d["ts"]), g=float(d["g"]),
            q_diag=np.asarray(d["q_diag"], dtype=float),
            r_diag=np.asarray(d["r_diag"], dtype=float),
            joseph=bool(d["joseph"]),
            estimate_biases=bool(d["estimate_biases"]),
        )


def _default_r_diag(fs: float = constants.DEFAULT_FS) -> NDArray[np.float64]:
    # White measurement noise variance at rate fs from the random-walk
    # density N: var = N^2 * fs.
    return np.concatenate(
        [constants.RAZOR_ACCEL_N**2 * fs, constants.RAZOR_GYRO_N**2 * fs]
    )


def _default_q_diag(fs: float = constants.DEFAULT_FS) -> NDArray[np.float64]:
    """Process noise for the default walking setup at 100 Hz.

    The kinematic entries absorb the one-sample lag of the
    constant-between-samples model during foot swings (sub-m/s^3 to a
    few hundred m/s^3 of jerk); they were tuned on the synthetic gait
    suite.  The bias random walks are sized from the bias instability B
    so the bias wanders by about B over a 100 s horizon:
    var_per_step = B^2 / (fs * 100 s).
    """
    q = np.empty(DIM)
    q[POS] = 1e-8
    q[VEL] = 1e-3
    q[ACC] = 1.0
    q[QUAT] = 1e-6
    q[ACC_B] = 1.0
    q[OMEGA] = 0.04
    horizon = 100.0
    q[BIAS_A] = constants.RAZOR_ACCEL_B**2 / (fs * horizon)
    q[BIAS_W] = constants.RAZOR_GYRO_B**2 / (fs * horizon)
    return q


def default_filter_config(fs: float = constants.DEFAULT_FS) -> FilterConfig:
    """Default tuning for a Razor-class IMU sampled at ``fs``."""
    return FilterConfig(
        ts=1.0 / fs, q_diag=_default_q_diag(fs), r_diag=_default_r_diag(fs)
    )


def propagate(x: NDArray[np.float64], cfg: FilterConfig) -> NDArray[np.float64]:
    """Noise-free mean propagation over one time step.

    Accepts one state ``(25,)`` or a batch ``(25, k)``; constant
    acceleration over the step for the kinematic chain, exact quaternion
    increment from the rate state, random-walk (identity) for the IMU
    and bias states.
    """
    x = np.asarray(x, dtype=float)
    ts = cfg.ts
    out = np.empty_like(x)
    p, v, a, q, w = x[POS], x[VEL], x[ACC], x[QUAT], x[OMEGA]
    out[POS] = p + v * ts + 0.5 * a * ts * ts
    out[VEL] = v + a * ts
    # Body specific force rotated to nav, plus gravity.
    g_vec = cfg.g_vec.reshape((3,) + (1,) * (x.ndim - 1))
    out[ACC] = quat_rotate(quat_conj(q), x[ACC_B]) + g_vec
    out[QUAT] = quat_normalize(quat_mul(quat_exp(-0.5 * ts * w), q))
    # IMU and bias states (ACC_B through BIAS_W) are random walks.
    out[ACC_B.start:] = x[ACC_B.start:]
    return out


def measurement_model(x: NDArray[np.float64]) -> NDArray[np.float64]:
    """Predicted IMU reading: biased specific force and angular rate."""
    x = np.asarray(x, dtype=float)
    return np.concatenate(
        [x[ACC_B] + x[BIAS_A], x[OMEGA] + x[BIAS_W]], axis=0
    )


def measurement_jacobian() -> NDArray[np.float64]:
    """Sensitivity of the IMU measurement; exactly constant."""
    jac = np.zeros((MEAS_DIM, DIM))
    jac[0:3, ACC_B] = np.eye(3)
    jac[0:3, BIAS_A] = np.eye(3)
    jac[3:6, OMEGA] = np.eye(3)
    jac[3:6, BIAS_W] = np.eye(3)
    return jac


_MEAS_JAC = measurement_jacobian()


def process_jacobian(x: NDArray[np.float64], cfg: FilterConfig) -> NDArray[np.float64]:
    """Closed-form Jacobian of `propagate` at one state, shape (25, 25).

    The identity except for the kinematic chain, the acceleration row
    (which forgets the old acceleration and follows the rotated specific
    force) and the quaternion row.
    """
    x = np.asarray(x, dtype=float)
    ts = cfg.ts
    q = x[QUAT]
    jac = np.eye(DIM)
    jac[_CHAIN_ROWS, _CHAIN_COLS] = np.repeat([ts, 0.5 * ts * ts, ts, 0.0], 3)
    # ACC: quat_rotate(conj(q), a_b) + g; conj flips the vector part.
    d_conj, jac[ACC, ACC_B] = quat_rotate_jacobian(quat_conj(q), x[ACC_B])
    d_conj[:, 1:] = -d_conj[:, 1:]
    jac[ACC, QUAT] = d_conj
    # QUAT: normalize(inc * q) with inc = exp(delta), delta = -ts omega / 2.
    delta = -0.5 * ts * x[OMEGA]
    d_inc, d_prev = quat_mul_jacobian(quat_exp(delta), q)
    d_norm = quat_normalize_jacobian(d_prev @ q)
    jac[QUAT, QUAT] = d_norm @ d_prev
    jac[QUAT, OMEGA] = (d_norm @ d_inc @ quat_exp_jacobian(delta)) * (-0.5 * ts)
    return jac


def _check_covariance(p_mat: NDArray[np.float64]) -> NDArray[np.float64]:
    """Re-symmetrize and apply cheap divergence checks."""
    p_mat = 0.5 * (p_mat + p_mat.T)
    if not np.isfinite(p_mat).all():
        raise FilterDivergenceError("covariance is no longer finite")
    diag = p_mat.diagonal()
    tol = 1e-9 * max(float(diag.sum()), 1e-30)
    if (diag < -tol).any():
        raise FilterDivergenceError(
            f"covariance lost positive semidefiniteness (min diag {diag.min():g})"
        )
    return p_mat


def predict(est: StateEstimate, cfg: FilterConfig) -> StateEstimate:
    """Time update: propagate the mean, push the covariance through the
    closed-form process Jacobian and add the process noise."""
    x1 = propagate(est.x, cfg)
    jac = process_jacobian(est.x, cfg)
    p1 = jac @ est.P @ jac.T + np.diag(cfg.effective_q_diag())
    return StateEstimate(x=x1, P=_check_covariance(p1))


def kalman_update(
    x: NDArray[np.float64],
    p_mat: NDArray[np.float64],
    z: NDArray[np.float64],
    z_pred: NDArray[np.float64],
    jac: NDArray[np.float64],
    r_diag: NDArray[np.float64],
    joseph: bool = True,
):
    """One measurement update, any dimensions.

    The innovation covariance is factorized (Cholesky) rather than
    inverted; failure to factorize is reported as divergence.
    """
    z = np.asarray(z, dtype=float)
    r_diag = np.asarray(r_diag, dtype=float)
    s_mat = jac @ p_mat @ jac.T + np.diag(r_diag)
    s_mat = 0.5 * (s_mat + s_mat.T)
    try:
        factor = cho_factor(s_mat, lower=True)
    except (LinAlgError, ValueError) as exc:
        raise FilterDivergenceError(
            f"innovation covariance not positive definite: {exc}"
        ) from exc
    gain = cho_solve(factor, jac @ p_mat).T  # (n, m)
    x1 = x + gain @ (z - z_pred)
    if joseph:
        ikj = np.eye(len(x)) - gain @ jac
        p1 = ikj @ p_mat @ ikj.T + (gain * r_diag) @ gain.T
    else:
        p1 = p_mat - gain @ (jac @ p_mat)
    return x1, _check_covariance(p1)


def update(est: StateEstimate, z: NDArray[np.float64], cfg: FilterConfig) -> StateEstimate:
    """Measurement update with one calibrated IMU sample (6-vector)."""
    x1, p1 = kalman_update(
        est.x, est.P, z, measurement_model(est.x), _MEAS_JAC,
        cfg.r_diag, cfg.joseph,
    )
    x1[QUAT] = quat_normalize(x1[QUAT])
    return StateEstimate(x=x1, P=p1)


def innovation_stats(
    est: StateEstimate, z: NDArray[np.float64], cfg: FilterConfig
) -> float:
    """Normalized innovation squared of one IMU sample (consistency check)."""
    s_mat = _MEAS_JAC @ est.P @ _MEAS_JAC.T + np.diag(cfg.r_diag)
    nu = np.asarray(z, dtype=float) - measurement_model(est.x)
    return float(nu @ np.linalg.solve(s_mat, nu))


def init_state(
    p0: NDArray[np.float64],
    heading0: float,
    accel: NDArray[np.float64],
    gyro: NDArray[np.float64],
    cfg: FilterConfig,
    fs: float,
    *,
    still_gyro_limit: float = 0.05,
    still_accel_std_limit: float = 0.5,
) -> StateEstimate:
    """Initial estimate from a still period.

    Roll and pitch come from the mean specific force direction (a still
    accelerometer reads the upward reaction, magnitude g); the heading
    is not observable from the IMU alone and must be supplied.  The
    initial covariance is the process noise, matching the convention
    that one propagation step separates the prior from the first sample.

    Parameters
    ----------
    p0 : array (3,)
        Starting position in the navigation frame.
    heading0 : float
        Initial yaw of the body, radians.
    accel, gyro : arrays (k, 3)
        Calibrated samples spanning at least 0.5 s of stillness.
    fs : float
        Sample rate of those samples (Hz).
    """
    accel = np.asarray(accel, dtype=float)
    gyro = np.asarray(gyro, dtype=float)
    if accel.ndim != 2 or accel.shape[1] != 3 or accel.shape != gyro.shape:
        raise ValueError("accel and gyro must be matching (k, 3) arrays")
    span = accel.shape[0] / fs
    if span < 0.5:
        raise ValueError(f"still period spans {span:.2f} s, need at least 0.5 s")
    rate = float(np.median(np.linalg.norm(gyro, axis=1)))
    wobble = float(np.std(np.linalg.norm(accel, axis=1)))
    if rate > still_gyro_limit or wobble > still_accel_std_limit:
        raise ValueError(
            f"initialization window is not still (rate {rate:.3g} rad/s, "
            f"accel std {wobble:.3g} m/s^2)"
        )

    f_mean = accel.mean(axis=0)
    roll = float(np.arctan2(f_mean[1], f_mean[2]))
    pitch = float(np.arctan2(-f_mean[0], np.hypot(f_mean[1], f_mean[2])))
    x = np.zeros(DIM)
    x[POS] = np.asarray(p0, dtype=float)
    x[QUAT] = quat_from_rpy(roll, pitch, heading0)
    x[ACC_B] = f_mean
    return StateEstimate(x=x, P=np.diag(cfg.effective_q_diag()))
