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

The per-sample step is a single-state kernel.  `_transition` reads the
state once and computes the propagated mean and the process Jacobian F
together in float arithmetic: F is the identity plus the
position/velocity/acceleration chain, the derivative of the Rodrigues
rotation that carries the specific force to the navigation frame, and
the derivative of the normalised quaternion increment
``normalize(exp(-ts omega / 2) * q)``; see Sola, "Quaternion kinematics
for the error-state Kalman filter" (arXiv:1711.02583), sections 4 and 6.
Rows 13 to 24 of F (the IMU and bias states) are the identity.  The
quaternion is perturbed additively, as the state stores it, so these are
the derivatives of `propagate` as written, not tangent-space
approximations; the tests hold them to Richardson-extrapolated
differences of `propagate` itself.

The IMU measurement matrix is the constant H = [0 | I | I] over the IMU
states 13:19 and the biases 19:25, so the IMU update forms H P, H P H^T
and I - K H from blocks of P and K instead of matrix products.  The
stance update takes a residual and a dense H from the stance module and
runs the same Joseph-form algebra on full matrices.  Both updates factor
the innovation covariance S with LAPACK's Cholesky routines directly (no
scipy wrapper checks), so the two ways S can fail are checked
explicitly: a non-finite S (which ``dpotrf`` factors without complaint)
and an indefinite one (``dpotrf``'s ``info``).  Either is a
`FilterDivergenceError`.

One filter step per sample is three kernels on a bare mean and
covariance that the caller owns, starting from the pair `init_state`
returns: `predict` (one `_transition`, the process noise added to the
diagonal), `update` with the IMU sample and, on stance samples, the
stance module's `zupt_update` (`_measurement_update` on the stance
residual and H).  Each kernel ends with its own checks, so a divergence
is reported at the stage that caused it: the degenerate quaternion
norm, the innovation covariance, and the re-symmetrised covariance
(`_check_covariance`).  The identity they need is one read-only module
constant, copied where it is modified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray
from scipy.linalg.lapack import dpotrf, dpotrs

from . import constants
from .quat import (
    _DEGENERATE_NORM,
    _EXP_SERIES_NORM,
    _conj_rotate_terms,
    quat_from_rpy,
    quat_normalize,
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
    "FilterConfig",
    "default_filter_config",
    "propagate",
    "measurement_model",
    "predict",
    "update",
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

# The IMU measurement's two column blocks: H = [0 | I | I] over these.
_IMU_STATES = slice(ACC_B.start, OMEGA.stop)
_BIASES = slice(BIAS_A.start, BIAS_W.stop)

# The state-sized identity, copied wherever a Jacobian or I - K H starts
# from it.
_IDENTITY = np.eye(DIM)
_IDENTITY.flags.writeable = False


class FilterDivergenceError(RuntimeError):
    """The filter state or covariance is no longer numerically usable."""


@dataclass
class FilterConfig:
    """Tracking filter tuning.

    ``q_diag`` and ``r_diag`` are the diagonal process and measurement
    noise variances (state order above; measurement order accel xyz then
    gyro xyz).  With ``estimate_biases`` off the two bias blocks are
    frozen at zero.
    """

    ts: float = 1.0 / constants.DEFAULT_FS
    g: float = constants.GRAVITY
    q_diag: NDArray[np.float64] = field(
        default_factory=lambda: _default_q_diag()
    )
    r_diag: NDArray[np.float64] = field(
        default_factory=lambda: _default_r_diag()
    )
    estimate_biases: bool = True

    def __post_init__(self):
        self.q_diag = np.asarray(self.q_diag, dtype=float).reshape(DIM)
        self.r_diag = np.asarray(self.r_diag, dtype=float).reshape(MEAS_DIM)
        if not (self.ts > 0 and np.isfinite(self.ts)):
            raise ValueError("ts must be a positive time step")
        if np.any(self.q_diag < 0) or np.any(self.r_diag <= 0):
            raise ValueError("q_diag must be >= 0 and r_diag > 0")
        if not isinstance(self.estimate_biases, (bool, np.bool_)):
            raise ValueError("estimate_biases must be true or false, "
                             f"got {self.estimate_biases!r}")
        self.estimate_biases = bool(self.estimate_biases)

    @property
    def g_vec(self) -> NDArray[np.float64]:
        """Gravity vector in the navigation frame (z up, so it points down)."""
        return np.array([0.0, 0.0, -self.g])

    def effective_q_diag(self) -> NDArray[np.float64]:
        q = self.q_diag.copy()
        if not self.estimate_biases:
            q[_BIASES] = 0.0
        return q


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


def _flat_index(rows, cols) -> list[int]:
    return [r * DIM + c for r in rows for c in cols]


# Flat positions of the process Jacobian entries that differ from the
# identity, in the order `_transition` lists their values.
_F_INDEX = np.array(
    [i * DIM + i + 3 for i in range(6)]                   # POS/VEL, VEL/ACC
    + [i * DIM + i for i in range(6, 9)]                  # ACC/ACC
    + [i * DIM + i + 6 for i in range(3)]                 # POS/ACC
    + _flat_index(range(6, 9), range(9, 13))              # ACC/QUAT
    + _flat_index(range(6, 9), range(13, 16))             # ACC/ACC_B
    + _flat_index(range(9, 13), (9, 10, 11, 12, 16, 17, 18))  # QUAT/QUAT, QUAT/OMEGA
)


def _transition(x: NDArray[np.float64], cfg: FilterConfig):
    """Propagated mean and process Jacobian of one state, shapes (25,)
    and (25, 25).

    Scalar arithmetic on one read of the state.  The mean holds the
    acceleration constant over the step for the kinematic chain, rotates
    the body specific force to the navigation frame with the Rodrigues
    form of `quat_rotate` (conjugate quaternion) and advances the
    quaternion by ``normalize(exp(-ts omega / 2) * q)``, with the
    exponential's series branch below ``|ts omega / 2| = 1e-8``; the IMU
    and bias states are random walks.  The Jacobian differentiates
    exactly these expressions with the quaternion perturbed additively;
    it is the identity except for the kinematic chain, the acceleration
    rows and the quaternion rows, so rows 13 to 24 are the identity.

    Raises
    ------
    ValueError
        If the propagated quaternion has a degenerate or non-finite norm.
    """
    (px, py, pz, vx, vy, vz, ax, ay, az, qw, qx, qy, qz,
     fx, fy, fz, wx, wy, wz) = x[:OMEGA.stop].tolist()
    ts = cfg.ts

    # ACC: specific force rotated by conj(q), plus gravity.
    acc, d_acc_q, d_acc_f = _conj_rotate_terms(qw, qx, qy, qz, fx, fy, fz)

    # QUAT: m = inc * q with inc = exp(delta), delta = -ts omega / 2;
    # with n = |delta|, s = sin(n) / n and ds = s'(n) / n.
    k = -0.5 * ts
    delta = dx, dy, dz = k * wx, k * wy, k * wz
    n = math.sqrt(dx * dx + dy * dy + dz * dz)
    if n < _EXP_SERIES_NORM:
        s, iw, ds = 1.0 - n * n / 6.0, 1.0 - n * n / 2.0, -1.0 / 3.0
    else:
        s, iw = math.sin(n) / n, math.cos(n)
        ds = (iw - s) / (n * n)
    ix, iy, iz = s * dx, s * dy, s * dz
    mw = iw * qw - ix * qx - iy * qy - iz * qz
    mx = iw * qx + ix * qw + iy * qz - iz * qy
    my = iw * qy - ix * qz + iy * qw + iz * qx
    mz = iw * qz + ix * qy - iy * qx + iz * qw
    nm = math.sqrt(mw * mw + mx * mx + my * my + mz * mz)
    if not _DEGENERATE_NORM <= nm < math.inf:
        raise ValueError(f"cannot normalize quaternion with norm {nm:g}")

    x1 = x.copy()
    x1[:QUAT.stop] = [
        px + vx * ts + 0.5 * ax * ts * ts,
        py + vy * ts + 0.5 * ay * ts * ts,
        pz + vz * ts + 0.5 * az * ts * ts,
        vx + ax * ts, vy + ay * ts, vz + az * ts,
        acc[0], acc[1], acc[2] - cfg.g,
        mw / nm, mx / nm, my / nm, mz / nm,
    ]

    # Kinematic chain; the old acceleration is replaced, not integrated.
    values = [ts] * 6 + [0.0] * 3 + [0.5 * ts * ts] * 3
    values += d_acc_q
    values += d_acc_f
    # QUAT rows: (I - u u^T) / |m| with u = m / |m|, times dm/dq = L (the
    # left product matrix of inc) and dm/d omega = k R E (R the right
    # product matrix of q, E = d inc / d delta = (-s delta^T;
    # s I + ds delta delta^T), so row i of R E is
    # s R[i, 1:] + (ds e_i - s q_i) delta^T with e = R[:, 1:] delta).
    # L^T L = |inc|^2 I and |inc| = 1 make u^T L = q^T / |m| and
    # u^T R E = (|q|^2 / |m|) inc^T E = 0, so the rate columns only scale.
    inv = 1.0 / nm
    kinv = k * inv
    q = (qw, qx, qy, qz)
    for left, right, m_i, q_i, e_i in zip(
        ((iw, -ix, -iy, -iz), (ix, iw, -iz, iy),
         (iy, iz, iw, -ix), (iz, -iy, ix, iw)),
        ((-qx, -qy, -qz), (qw, qz, -qy), (-qz, qw, qx), (qy, -qx, qw)),
        (mw, mx, my, mz),
        q,
        (-qx * dx - qy * dy - qz * dz, qw * dx + qz * dy - qy * dz,
         -qz * dx + qw * dy + qx * dz, qy * dx - qx * dy + qw * dz),
    ):
        a_i = m_i * inv * inv
        values += [(l_j - a_i * q_j) * inv for l_j, q_j in zip(left, q)]
        h_i = ds * e_i - s * q_i
        values += [kinv * (s * r_j + h_i * d_j) for r_j, d_j in zip(right, delta)]

    jac = _IDENTITY.copy()
    jac.ravel()[_F_INDEX] = values
    return x1, jac


def propagate(x: NDArray[np.float64], cfg: FilterConfig) -> NDArray[np.float64]:
    """Noise-free mean propagation of one state ``(25,)`` over one time
    step (see `_transition`)."""
    return _transition(np.asarray(x, dtype=float), cfg)[0]


def measurement_model(x: NDArray[np.float64]) -> NDArray[np.float64]:
    """Predicted IMU reading: biased specific force and angular rate."""
    x = np.asarray(x, dtype=float)
    return x[_IMU_STATES] + x[_BIASES]


def _check_covariance(p_mat: NDArray[np.float64]) -> NDArray[np.float64]:
    """Re-symmetrize and apply cheap divergence checks."""
    p_mat = 0.5 * (p_mat + p_mat.T)
    if not np.isfinite(p_mat).all():
        raise FilterDivergenceError("covariance is no longer finite")
    diag = p_mat.diagonal().tolist()
    low = min(diag)
    if low < -1e-9 * max(sum(diag), 1e-30):
        raise FilterDivergenceError(
            f"covariance lost positive semidefiniteness (min diag {low:g})"
        )
    return p_mat


def predict(x, p_mat, cfg: FilterConfig, q_diag):
    """Time update of a mean and covariance: propagate the mean, push
    the covariance through the closed-form process Jacobian and add the
    process noise ``q_diag``, which is ``cfg.effective_q_diag()`` (a
    caller stepping many samples computes it once)."""
    x1, jac = _transition(x, cfg)
    # F is the identity below row 13, but the product stays dense: the
    # covariance is held bit for bit to ``F @ P @ F.T``, and a product
    # of F's top rows alone sums in another order.
    p1 = jac @ p_mat @ jac.T
    p1.ravel()[:: DIM + 1] += q_diag
    return x1, _check_covariance(p1)


def _innovation_gain(s_mat: NDArray[np.float64],
                     hp: NDArray[np.float64]) -> NDArray[np.float64]:
    """Kalman gain ``K = (S^-1 H P)^T`` through a Cholesky factor of S.

    LAPACK is called directly, so both failure modes are checked here:
    ``dpotrf`` factors a matrix holding NaN without complaint, and it
    reports an indefinite S only through ``info``.
    """
    s_mat = 0.5 * (s_mat + s_mat.T)
    if not np.isfinite(s_mat).all():
        raise FilterDivergenceError("innovation covariance is not finite")
    factor, info = dpotrf(s_mat, lower=1, clean=0)
    if info != 0:
        raise FilterDivergenceError(
            f"innovation covariance not positive definite (dpotrf info {info})"
        )
    gain_t, info = dpotrs(factor, hp, lower=1)
    if info != 0:
        raise FilterDivergenceError(f"innovation solve failed (dpotrs info {info})")
    return gain_t.T


def _measurement_update(x, p_mat, nu, jac, r_diag):
    """Update of a bare mean and covariance with the residual ``nu`` of
    a measurement whose prediction has the dense Jacobian ``jac``, (m,)
    and (m, 25), and diagonal noise ``r_diag``; the quaternion is
    renormalised and the covariance checked."""
    hp = jac @ p_mat
    s_mat = hp @ jac.T
    s_mat.ravel()[:: len(nu) + 1] += r_diag
    gain = _innovation_gain(s_mat, hp)  # (25, m)
    x1 = x + gain @ nu
    ikh = _IDENTITY - gain @ jac
    p1 = ikh @ p_mat @ ikh.T + (gain * r_diag) @ gain.T
    x1[QUAT] = quat_normalize(x1[QUAT])
    return x1, _check_covariance(p1)


def update(x, p_mat, z, r_diag):
    """Measurement update of a mean and covariance with one calibrated
    IMU sample ``z`` (accel then gyro, 6-vector) of noise variances
    ``r_diag``.

    `_measurement_update` with the IMU's constant H = [0 | I | I] (the
    IMU states 13:19 and the biases 19:25), written out: H P is the sum
    of two row blocks of P, H P H^T the sum of two column blocks of
    that, and I - K H the identity with K subtracted from both column
    blocks."""
    hp = p_mat[_IMU_STATES] + p_mat[_BIASES]
    s_mat = hp[:, _IMU_STATES] + hp[:, _BIASES]
    s_mat.ravel()[:: MEAS_DIM + 1] += r_diag
    gain = _innovation_gain(s_mat, hp)
    x1 = x + gain @ (z - measurement_model(x))
    ikh = _IDENTITY.copy()
    ikh[:, _IMU_STATES] -= gain
    ikh[:, _BIASES] -= gain
    p1 = ikh @ p_mat @ ikh.T + (gain * r_diag) @ gain.T
    x1[QUAT] = quat_normalize(x1[QUAT])
    return x1, _check_covariance(p1)


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
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Initial mean and covariance from a still period.

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
    return x, np.diag(cfg.effective_q_diag())
