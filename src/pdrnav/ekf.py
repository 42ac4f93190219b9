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

Both measurement updates are `_measurement_update`, one Joseph-form
update on a residual and a dense H.  The IMU update passes the residual
of `measurement_model` and the constant H = [0 | I | I] over the IMU
states 13:19 and the biases 19:25; the stance update passes the
residual and H of the stance module's stack.  The update factors the
innovation covariance S as formed and solves for the gain in one call
to LAPACK's ``dposv`` directly (no scipy wrapper checks), so the two
ways S can fail are checked explicitly: a non-finite S (which LAPACK
factors without complaint) and an indefinite one (``dposv``'s
``info``).  Either is a `FilterDivergenceError`.  The routine is bound
with the first finite check, in the first filter update, so scipy
loads then and not when the package is imported.

One filter step per sample is three kernels on a bare mean and
covariance that the caller owns, starting from the pair `init_state`
returns: `predict` (one `_transition`, the process noise added to the
diagonal), `update` with the IMU sample and, on stance samples, the
stance module's `zupt_update` (`_measurement_update` on the stance
residual and H).  Predict re-symmetrises the covariance once per
sample.  Each kernel refuses only what it alone can see: a degenerate
quaternion norm (in `_transition` and in the update's renormalisation)
and an innovation covariance that is non-finite or indefinite.  The
kernels do not check the covariance they return; the caller checks the
step's result once (`_check_covariance` and a finite state) and, on a
failure, replays the step through the same kernels with that check
after each, so a divergence is still reported at the stage that caused
it.  The update uses the Joseph product form
(I - K H) P (I - K H)^T + K R K^T, whose result is symmetric to
rounding.

The kernels form every matrix product with ``ndarray.dot`` and the
tests' dense oracles with ``@``.  Both call the same BLAS routine on
the same operands in the same order, so the tests hold the kernels to
the oracles bit for bit; ``.dot`` only skips the matmul ufunc's
dispatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from . import constants
from ._fields import check_fields
from .quat import (
    _DEGENERATE_NORM,
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

# Below this norm of the half-angle rotation vector, `_transition`
# takes the quaternion exponential from its second-order series; that
# keeps the increment unit to 1e-12 and avoids 0/0.
_EXP_SERIES_NORM = 1e-8

# Largest std of the specific-force magnitude (m/s^2) in a still window.
_STILL_ACCEL_STD_LIMIT = 0.5

# The IMU measurement's two column blocks: H = [0 | I | I] over these.
_IMU_STATES = slice(ACC_B.start, OMEGA.stop)
_BIASES = slice(BIAS_A.start, BIAS_W.stop)

# The state-sized identity, copied where the process Jacobian starts
# from it, and the IMU measurement matrix H; both read-only.
_IDENTITY = np.eye(DIM)
_IDENTITY.flags.writeable = False
_H_IMU = np.zeros((MEAS_DIM, DIM))
_H_IMU[:, _IMU_STATES] = _H_IMU[:, _BIASES] = np.eye(MEAS_DIM)
_H_IMU.flags.writeable = False


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
        check_fields(self)
        for name, size in (("q_diag", DIM), ("r_diag", MEAS_DIM)):
            value = getattr(self, name)
            if value.shape != (size,):
                raise ValueError(f"{name} must be {size} numbers, "
                                 f"got shape {value.shape}")
        if not self.ts > 0:
            raise ValueError("ts must be a positive time step")
        if not self.g > 0:
            raise ValueError(f"g must be positive, got {self.g!r}")
        if np.any(self.q_diag < 0) or np.any(self.r_diag <= 0):
            raise ValueError("q_diag must be >= 0 and r_diag > 0")

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
    so the bias wanders by about B over ``constants.BIAS_HORIZON``:
    var_per_step = B^2 / (fs * horizon).
    """
    q = np.empty(DIM)
    q[POS] = 1e-8
    q[VEL] = 1e-3
    q[ACC] = 1.0
    q[QUAT] = 1e-6
    q[ACC_B] = 1.0
    q[OMEGA] = 0.04
    q[BIAS_A] = constants.RAZOR_ACCEL_B**2 / (fs * constants.BIAS_HORIZON)
    q[BIAS_W] = constants.RAZOR_GYRO_B**2 / (fs * constants.BIAS_HORIZON)
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
    dx, dy, dz = k * wx, k * wy, k * wz
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

    # Values in `_F_INDEX` order.  The kinematic chain replaces the old
    # acceleration rather than integrating it.  QUAT rows: (I - u u^T) / |m|
    # with u = m / |m|, times dm/dq = L (the left product matrix of inc)
    # and dm/d omega = k R E (R the right product matrix of q,
    # E = d inc / d delta = (-s delta^T; s I + ds delta delta^T), so row i
    # of R E is s R[i, 1:] + h_i delta^T with h_i = ds e_i - s q_i and
    # e = R[:, 1:] delta).  L^T L = |inc|^2 I and |inc| = 1 make
    # u^T L = q^T / |m| and u^T R E = (|q|^2 / |m|) inc^T E = 0, so the
    # rate columns only scale: row i is (L[i] - u_i q^T) / |m| with
    # u_i = m_i / |m|^2, then k (s R[i, 1:] + h_i delta^T) / |m|.
    inv = 1.0 / nm
    kinv = k * inv
    uw, ux, uy, uz = mw * inv * inv, mx * inv * inv, my * inv * inv, mz * inv * inv
    hw = ds * (-qx * dx - qy * dy - qz * dz) - s * qw
    hx = ds * (qw * dx + qz * dy - qy * dz) - s * qx
    hy = ds * (-qz * dx + qw * dy + qx * dz) - s * qy
    hz = ds * (qy * dx - qx * dy + qw * dz) - s * qz
    tt = 0.5 * ts * ts
    values = (
        ts, ts, ts, ts, ts, ts, 0.0, 0.0, 0.0, tt, tt, tt, *d_acc_q, *d_acc_f,
        (iw - uw * qw) * inv, (-ix - uw * qx) * inv, (-iy - uw * qy) * inv,
        (-iz - uw * qz) * inv, kinv * (hw * dx - s * qx),
        kinv * (hw * dy - s * qy), kinv * (hw * dz - s * qz),
        (ix - ux * qw) * inv, (iw - ux * qx) * inv, (-iz - ux * qy) * inv,
        (iy - ux * qz) * inv, kinv * (s * qw + hx * dx),
        kinv * (s * qz + hx * dy), kinv * (hx * dz - s * qy),
        (iy - uy * qw) * inv, (iz - uy * qx) * inv, (iw - uy * qy) * inv,
        (-ix - uy * qz) * inv, kinv * (hy * dx - s * qz),
        kinv * (s * qw + hy * dy), kinv * (s * qx + hy * dz),
        (iz - uz * qw) * inv, (-iy - uz * qx) * inv, (ix - uz * qy) * inv,
        (iw - uz * qz) * inv, kinv * (s * qy + hz * dx),
        kinv * (hz * dy - s * qx), kinv * (s * qw + hz * dz),
    )

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


# Zeros to take one dot product with: any NaN or infinity among the
# entries makes it NaN (0 * inf is NaN), finite entries make it +-0.
_ZEROS = np.zeros(DIM * DIM)
_ZEROS.flags.writeable = False


def _finite(a: NDArray[np.float64]) -> bool:
    """Whether every entry of an array of at most 25 x 25 entries is
    finite, from one BLAS dot product with zeros.

    BLAS's own ``ddot`` (through scipy) rather than ``ndarray.dot``: the
    reduction is the same, but numpy checks the floating-point status
    after its dot and warns of the invalid 0 * inf it takes to see an
    infinity.  Either costs a fraction of ``np.isfinite(a).all()``.
    """
    if _ddot is None:
        _bind_blas_lapack()
    return math.isfinite(_ddot(a.ravel(), _ZEROS[:a.size]))


def _check_covariance(p_mat: NDArray[np.float64]) -> None:
    """Refuse a covariance that fails either of two cheap divergence
    checks: every entry finite, and the smallest diagonal entry at least
    -1e-9 times the trace.  It does not symmetrise; `predict` does that
    once per sample.  The kernels do not call it: the tracker checks
    each step's result once, and each stage's result only when it
    replays a failed step."""
    if not _finite(p_mat):
        raise FilterDivergenceError("covariance is no longer finite")
    diag = p_mat.diagonal().tolist()
    low = min(diag)
    if low < 0.0 and low < -1e-9 * max(sum(diag), 1e-30):
        raise FilterDivergenceError(
            f"covariance lost positive semidefiniteness (min diag {low:g})"
        )


def predict(x, p_mat, cfg: FilterConfig, q_diag):
    """Time update of a mean and covariance: propagate the mean, push
    the covariance through the closed-form process Jacobian and add the
    process noise ``q_diag``, which is ``cfg.effective_q_diag()`` (a
    caller stepping many samples computes it once).  The result is
    symmetrised, once per filter step, and not checked (see
    `_check_covariance`)."""
    x1, jac = _transition(x, cfg)
    # F is the identity below row 13, but the product stays dense: the
    # covariance is held bit for bit to ``F @ P @ F.T``, and a product
    # of F's top rows alone sums in another order.  Here and in
    # `_measurement_update` the products are ``ndarray.dot``: the same
    # BLAS routine as ``@``, so the same bits, with about 0.5 us less
    # dispatch per 25 x 25 product.
    p1 = jac.dot(p_mat).dot(jac.T)
    p1.ravel()[:: DIM + 1] += q_diag
    return x1, 0.5 * (p1 + p1.T)


# BLAS's dot product and LAPACK's Cholesky factor-and-solve, bound by
# the first finite check, which comes with the first filter step:
# importing scipy.linalg takes longer than most subcommands that never
# update a filter, so the package does not import it.
_ddot = _dposv = None


def _bind_blas_lapack() -> None:
    global _ddot, _dposv
    from scipy.linalg.blas import ddot
    from scipy.linalg.lapack import dposv

    _ddot, _dposv = ddot, dposv


def _innovation_gain(s_mat: NDArray[np.float64],
                     hp: NDArray[np.float64]) -> NDArray[np.float64]:
    """Kalman gain ``K = (S^-1 H P)^T`` through a Cholesky factor of S.

    One ``dposv`` call factors S as formed and solves with the factor;
    it reads only the lower triangle, so symmetrising S first would
    only move rounding.  ``dposv`` runs ``dpotrf`` and ``dpotrs``, so
    the gain is theirs bit for bit, and its ``info`` is ``dpotrf``'s.
    LAPACK is called directly, so both failure modes are checked here,
    the only place that sees S: LAPACK factors a matrix holding NaN
    without complaint (so all of S is checked for finite entries
    first), and it reports an indefinite S only through ``info``.
    """
    if not _finite(s_mat):
        raise FilterDivergenceError("innovation covariance is not finite")
    _, gain_t, info = _dposv(s_mat, hp, lower=1)
    if info != 0:
        raise FilterDivergenceError(
            f"innovation covariance not positive definite (dpotrf info {info})"
        )
    return gain_t.T


def _measurement_update(x, p_mat, nu, jac, r_diag):
    """Update of a bare mean and covariance with the residual ``nu`` of
    a measurement whose prediction has the dense Jacobian ``jac``, (m,)
    and (m, 25), and diagonal noise ``r_diag``; the quaternion is
    renormalised.  The covariance is neither symmetrised (the product
    form keeps it symmetric to rounding, and the next `predict`
    symmetrises it) nor checked (see `_check_covariance`); S is checked
    in `_innovation_gain`."""
    hp = jac.dot(p_mat)
    s_mat = hp.dot(jac.T)
    s_mat.ravel()[:: len(nu) + 1] += r_diag
    gain = _innovation_gain(s_mat, hp)  # (25, m)
    x1 = x + gain.dot(nu)
    ikh = _IDENTITY - gain.dot(jac)
    p1 = ikh.dot(p_mat).dot(ikh.T)
    p1 += (gain * r_diag).dot(gain.T)
    x1[QUAT] = quat_normalize(x1[QUAT])
    return x1, p1


def update(x, p_mat, z, r_diag):
    """Measurement update of a mean and covariance with one calibrated
    IMU sample ``z`` (accel then gyro, 6-vector) of noise variances
    ``r_diag``: `_measurement_update` with the residual of
    `measurement_model` and the IMU's constant H = [0 | I | I]."""
    return _measurement_update(x, p_mat, z - measurement_model(x), _H_IMU,
                               r_diag)


def init_state(
    p0: NDArray[np.float64],
    heading0: float,
    accel: NDArray[np.float64],
    gyro: NDArray[np.float64],
    cfg: FilterConfig,
    fs: float,
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
    if rate > constants.STILL_RATE_LIMIT or wobble > _STILL_ACCEL_STD_LIMIT:
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
