"""Independent reference implementations used only by the test suite.

Nothing here may import the code paths it is checking beyond the state
layout constants; oracles recompute results from first principles.  The
filter references are the exception by design: `kalman_update` is the
general dense update that the library's written-out updates must equal
(it shares their gain and covariance checks, so both refuse the same
inputs); `build_pseudo_measurements` and `soft_covariance` are the
stance update's per-call form, a stack built afresh for each sample
around the library's linearisation; and `chain_tracker` is the tracking
loop built from those dense, per-call forms, which the tracker's single
step must equal.
"""

from __future__ import annotations

from io import StringIO

import numpy as np
from numpy.typing import NDArray
from scipy.optimize import brentq

from pdrnav import calibration, ekf, tracker, zupt
from pdrnav.constants import GRAVITY
from pdrnav.ekf import ACC_B, BIAS_A, BIAS_W, DIM, MEAS_DIM, OMEGA, POS, QUAT
from pdrnav.quat import quat_exp, quat_mul, quat_normalize, quat_rotate, rot_matrix


def finite_difference_jacobian(f, x, m: int | None = None):
    """Central-difference Jacobian of a single-state function.

    The reference that criterion 2 holds against Richardson, and that
    the tracker test swaps in for the filter's closed forms.

    Perturbation step per coordinate: ``max(1e-6, 1e-6 |x_i|)``.
    Quaternion coordinates are perturbed additively like any other; if
    ``f`` normalizes internally the derivative of the normalized map is
    what comes out.

    Parameters
    ----------
    f : callable
        Maps one state ``(n,)`` to ``(m,)``; it is called once per
        perturbed state.
    x : ndarray, shape (n,)
    m : int, optional
        Output dimension, inferred from one evaluation if omitted.

    Returns
    -------
    ndarray, shape (m, n)
    """
    x = np.asarray(x, dtype=float)
    h = np.maximum(1e-6, 1e-6 * np.abs(x))
    perturb = np.diag(h)
    f_plus = np.column_stack([f(col) for col in (x[:, None] + perturb).T])
    f_minus = np.column_stack([f(col) for col in (x[:, None] - perturb).T])
    jac = (f_plus - f_minus) / (2.0 * h)
    if m is not None and jac.shape[0] != m:
        raise ValueError(f"f returned {jac.shape[0]} rows, expected {m}")
    if not np.all(np.isfinite(jac)):
        bad = int(np.flatnonzero(~np.all(np.isfinite(jac), axis=0))[0])
        raise ValueError(
            f"non-finite derivative at state coordinate {bad}"
        )
    return jac


def quat_mul_jacobian(p, q):
    """Derivatives of ``quat_mul(p, q)``; the product is bilinear.

    Returns
    -------
    d_p, d_q : ndarray, shape (4, 4)
        ``quat_mul(p, q) == d_p @ p == d_q @ q``.
    """
    pw, px, py, pz = np.asarray(p, dtype=float).tolist()
    qw, qx, qy, qz = np.asarray(q, dtype=float).tolist()
    d_p = np.array([
        [qw, -qx, -qy, -qz],
        [qx, qw, qz, -qy],
        [qy, -qz, qw, qx],
        [qz, qy, -qx, qw],
    ])
    d_q = np.array([
        [pw, -px, -py, -pz],
        [px, pw, -pz, py],
        [py, pz, pw, -px],
        [pz, -py, px, pw],
    ])
    return d_p, d_q


def quat_normalize_jacobian(q):
    """Derivative of `quat_normalize`: ``(I - q q^T / |q|^2) / |q|``, (4, 4)."""
    q = np.asarray(q, dtype=float)
    n2 = float(q @ q)
    return (np.eye(4) - np.outer(q, q) / n2) / np.sqrt(n2)


def quat_exp_jacobian(v):
    """Derivative of `quat_exp` at one rotation vector, shape (4, 3).

    Below `quat_exp`'s series cutoff (1e-8) the derivative of the series
    itself is returned, matching the branch `quat_exp` evaluates.
    """
    v = np.asarray(v, dtype=float)
    n2 = float(v @ v)
    n = np.sqrt(n2)
    if n < 1e-8:
        # d/dv of (1 - n^2/2, (1 - n^2/6) v)
        s, c = 1.0 - n2 / 6.0, -1.0 / 3.0
    else:
        # d/dv of (cos n, s v) with s = sin(n)/n, ds/dn = (cos n - s)/n
        s = np.sin(n) / n
        c = (np.cos(n) - s) / n2
    jac = np.empty((4, 3))
    jac[0] = -s * v
    jac[1:] = s * np.eye(3) + c * np.outer(v, v)
    return jac


def chain_rule_quaternion_rows(x, ts):
    """Rows QUAT of the process Jacobian by the plain chain rule.

    With ``inc = quat_exp(delta)``, ``delta = -ts omega / 2`` and
    ``m = inc * q``: ``quat_normalize_jacobian(m)`` times
    ``[dm/dq | dm/d inc @ quat_exp_jacobian(delta) * (-ts / 2)]``, each
    factor formed as a matrix, none of the products simplified.
    """
    x = np.asarray(x, dtype=float)
    q, delta = x[QUAT], -0.5 * ts * x[OMEGA]
    inc = quat_exp(delta)
    d_inc, d_q = quat_mul_jacobian(inc, q)
    d_norm = quat_normalize_jacobian(quat_mul(inc, q))
    rows = np.zeros((4, DIM))
    rows[:, QUAT] = d_norm @ d_q
    rows[:, OMEGA] = d_norm @ d_inc @ quat_exp_jacobian(delta) * (-0.5 * ts)
    return rows


def cross_quat_rotate(q, u):
    """`quat_rotate` written with ``np.cross``: the Rodrigues form
    ``u + w t + xyz x t``, ``t = 2 xyz x u``, with trailing batch axes
    grown so single and batch shapes meet component-first."""
    q, u = np.asarray(q, dtype=float), np.asarray(u, dtype=float)
    w, xyz = q[0], q[1:]
    if xyz.ndim > u.ndim:
        u = u.reshape(u.shape + (1,) * (xyz.ndim - u.ndim))
    elif u.ndim > xyz.ndim:
        grow = (1,) * (u.ndim - xyz.ndim)
        xyz = xyz.reshape(xyz.shape + grow)
        w = w.reshape(w.shape + grow)
    t = 2.0 * np.cross(xyz, u, axis=0)
    return u + w * t + np.cross(xyz, t, axis=0)


def quat_conj(q):
    """Conjugate ``(w, -x, -y, -z)``; the inverse for unit quaternions."""
    out = np.array(q, dtype=float)
    out[1:] = -out[1:]
    return out


def rpy_from_quat(q) -> tuple[float, float, float]:
    """Roll, pitch, yaw of the body carrying the state quaternion ``q``."""
    c = rot_matrix(q).T  # body-to-nav
    pitch = np.arcsin(np.clip(-c[2, 0], -1.0, 1.0))
    roll = np.arctan2(c[2, 1], c[2, 2])
    yaw = np.arctan2(c[1, 0], c[0, 0])
    return float(roll), float(pitch), float(yaw)


def gravity_sphere_residual(gain, bias, mean, g: float = GRAVITY) -> float:
    """The library's squared distance from one orientation mean to the
    model ellipsoid: the inner minimization of the calibration cost, the
    smallest ``|gain @ a + bias - mean|^2`` over ``|a| = g``.

    A single-mean view of `calibration._sphere_residuals`, the form the
    hand-derived and brute-force tests check.
    """
    mean = np.asarray(mean, dtype=float)
    return float(calibration._sphere_residuals(
        np.asarray(gain, dtype=float), np.asarray(bias, dtype=float),
        mean[None, :], g)[0])


def _secular_residual(s: NDArray, z: NDArray, g: float) -> float:
    """Squared distance from a point to the ellipsoid {U S V' a : |a| = g}.

    ``s`` are the singular values of the gain, ``z`` the point expressed
    in the left singular basis (already centered).  The stationarity
    condition gives coordinates ``w_i = s_i z_i / (s_i^2 - lam)``; the
    multiplier of the closest point is the unique root of the monotone
    constraint equation below ``min(s_i^2)``.
    """
    d = s * s
    c = s * z
    d_min = float(np.min(d))
    # Split off directions whose singular value ties the smallest one;
    # their c-components decide whether the secular function blows up.
    tied = d - d_min <= 1e-12 * max(d_min, 1e-300)
    cm2 = float(np.sum(c[tied] ** 2))
    rest = ~tied
    dr = d[rest] - d_min
    big = float(np.sum(c[rest] ** 2 / dr**2)) if np.any(rest) else 0.0

    g2 = g * g
    norm_c = float(np.sqrt(np.sum(c * c)))
    if norm_c == 0.0 and big == 0.0:
        # Point at the ellipsoid center.
        return d_min * g2

    def h(mu: float) -> float:
        return float(np.sum(c * c / (d - d_min + mu) ** 2)) - g2

    if cm2 <= (1e-28 * norm_c**2):
        if big <= g2:
            # Multiplier sits exactly at d_min; the tied directions take
            # up the slack in the sphere constraint.
            res = d_min * (g2 - big)
            if np.any(rest):
                res += d_min**2 * float(np.sum(z[rest] ** 2 / dr**2))
            return res
        mu_lo = 1e-18 * max(d_min, 1.0)
        mu_hi = norm_c / g
    else:
        mu_lo = np.sqrt(cm2) / g      # h(mu_lo) >= g2 by construction
        mu_hi = norm_c / g            # h(mu_hi) <= g2 by construction
    if mu_hi <= mu_lo * (1.0 + 1e-15):
        mu = mu_lo
    else:
        f_lo, f_hi = h(mu_lo), h(mu_hi)
        if f_lo <= 0.0:
            mu = mu_lo
        elif f_hi >= 0.0:
            mu = mu_hi
        else:
            mu = brentq(h, mu_lo, mu_hi, rtol=1e-12, xtol=1e-300, maxiter=200)
    lam = d_min - mu
    return float(lam * lam * np.sum(z * z / (d - lam) ** 2))


def brentq_sphere_residuals(gain, bias, means, g):
    """Squared distances of each mean (P, 3) to the calibration model
    ellipsoid, one scalar `brentq` secular solve per mean."""
    u, s, _ = np.linalg.svd(np.asarray(gain, dtype=float))
    zs = u.T @ (np.atleast_2d(means) - bias).T
    return np.array([_secular_residual(s, zs[:, p], g)
                     for p in range(zs.shape[1])])


def richardson_jacobian(f, x, m, h0=1e-4):
    """High-order derivative reference: central differences at two step
    sizes combined by Richardson extrapolation (error O(h0^4)).

    ``f`` maps a single state (n,) to (m,); evaluated coordinate by
    coordinate, independent of any batched differentiation code.
    """
    x = np.asarray(x, dtype=float)
    n = x.size

    def central(scale):
        h = scale * np.maximum(1.0, np.abs(x))
        jac = np.empty((m, n))
        for j in range(n):
            xp, xm = x.copy(), x.copy()
            xp[j] += h[j]
            xm[j] -= h[j]
            jac[:, j] = (np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * h[j])
        return jac

    d1 = central(h0)
    d2 = central(h0 / 2.0)
    return (4.0 * d2 - d1) / 3.0


def _magnitudes(accel, gyro):
    accel = np.asarray(accel, dtype=float)
    gyro = np.asarray(gyro, dtype=float)
    if accel.ndim != 2 or accel.shape[1] != 3 or accel.shape != gyro.shape:
        raise ValueError("accel and gyro must be matching (n, 3) arrays")
    return np.linalg.norm(accel, axis=1), np.linalg.norm(gyro, axis=1)


def condition_signals(accel, gyro, cfg, i: int):
    """The four condition signals at one sample index.

    Direct two-pass evaluation on the truncated window around ``i``, the
    plainly readable reference for `pdrnav.zupt.condition_series`;
    ``cfg`` is a `pdrnav.zupt.StanceConfig`.
    """
    mag_a, mag_w = _magnitudes(accel, gyro)
    n = mag_a.size
    if not 0 <= i < n:
        raise IndexError(f"sample index {i} outside record of length {n}")
    lo = max(i - cfg.std_half_width, 0)
    hi = min(i + cfg.std_half_width + 1, n)
    c1 = cfg.accel_norm_min < mag_a[i] < cfg.accel_norm_max
    c2 = float(np.std(mag_a[lo:hi])) < cfg.accel_std_max
    c3 = mag_w[i] < cfg.gyro_norm_max
    c4 = float(np.std(mag_w[lo:hi])) < cfg.gyro_std_max
    return bool(c1), bool(c2), bool(c3), bool(c4)


def sfs(accel, gyro, cfg, k: int) -> float:
    """Still-foot score at one index; see `pdrnav.zupt.sfs_series`."""
    mag_a, _ = _magnitudes(accel, gyro)
    n = mag_a.size
    if not 0 <= k < n:
        raise IndexError(f"sample index {k} outside record of length {n}")
    lo = max(k - cfg.detect_half_width, 0)
    hi = min(k + cfg.detect_half_width + 1, n)
    count = sum(
        all(condition_signals(accel, gyro, cfg, i)) for i in range(lo, hi)
    )
    return float(np.clip(count / (2 * cfg.detect_half_width + 1), 0.0, 1.0))


def hard_detector(accel, gyro, cfg, k: int) -> bool:
    """Binary baseline detector at one index; see `pdrnav.zupt.hard_series`."""
    mag_a, _ = _magnitudes(accel, gyro)
    n = mag_a.size
    if not 0 <= k < n:
        raise IndexError(f"sample index {k} outside record of length {n}")
    lo = max(k - cfg.detect_half_width, 0)
    hi = min(k + cfg.detect_half_width + 1, n)
    count = sum(
        all(condition_signals(accel, gyro, cfg, i)[:3]) for i in range(lo, hi)
    )
    return bool(count > cfg.detect_half_width / 2.0)




def random_nav_state(rng, motion_scale=1.0):
    """A generic filter state: random kinematics, unit quaternion."""
    x = rng.standard_normal(DIM) * motion_scale
    x[QUAT] = rng.standard_normal(4)
    x[QUAT] /= np.linalg.norm(x[QUAT])
    x[ACC_B] = rng.standard_normal(3) * 5.0
    x[OMEGA] = rng.standard_normal(3) * 2.0
    return x


def random_covariance(rng, dim=DIM, scale=1.0):
    a = rng.standard_normal((dim, dim))
    return scale * (a @ a.T / dim + 1e-6 * np.eye(dim))


def strapdown_integrate(t, accel, gyro, q0, p0, v0, g_vec):
    """Plain strapdown dead reckoning, no filter.

    Attitude by per-sample quaternion increments of the measured rate,
    velocity and position by trapezoidal integration.  Used as the
    round-trip oracle for the synthetic walk generator.
    """
    n = len(t)
    q = np.asarray(q0, dtype=float).copy()
    a_nav = np.empty((n, 3))
    quats = np.empty((n, 4))
    for k in range(n):
        quats[k] = q
        a_nav[k] = rot_matrix(q).T @ accel[k] + g_vec
        if k + 1 < n:
            dt = t[k + 1] - t[k]
            q = quat_mul(quat_exp(-0.5 * dt * gyro[k]), q)
            q = q / np.linalg.norm(q)
    dt = np.diff(t)
    v = np.vstack([v0, v0 + np.cumsum(0.5 * (a_nav[1:] + a_nav[:-1]) * dt[:, None], axis=0)])
    p = np.vstack([p0, p0 + np.cumsum(0.5 * (v[1:] + v[:-1]) * dt[:, None], axis=0)])
    return p, v, quats


def _fmt(x):
    return format(float(x), ".17g")


def per_value_log_text(log):
    """An IMU log file as text, one `format(x, ".17g")` per value."""
    lines = [f"# fs={_fmt(log.fs)} lsb_a={_fmt(log.lsb_accel)} "
             f"lsb_w={_fmt(log.lsb_gyro)}\n"]
    a = np.rint(log.accel).astype(np.int64)
    w = np.rint(log.gyro).astype(np.int64)
    for k in range(log.t.size):
        lines.append(f"{_fmt(log.t[k])},{a[k, 0]},{a[k, 1]},{a[k, 2]},"
                     f"{w[k, 0]},{w[k, 1]},{w[k, 2]}\n")
    return "".join(lines)


def per_value_truth_text(truth):
    """A truth sidecar as text, one `format(x, ".17g")` per value."""
    lines = ["# t,px,py,pz,vx,vy,vz,qw,qx,qy,qz,stance\n"]
    for k in range(truth.t.size):
        row = [truth.t[k], *truth.p[k], *truth.v[k], *truth.q_nb[k]]
        lines.append(",".join(_fmt(x) for x in row)
                     + f",{int(truth.stance[k])}\n")
    return "".join(lines)


def per_value_trajectory_text(traj):
    """A trajectory file as text, one `format(x, ".17g")` per value."""
    lines = ["# t,px,py,pz,qw,qx,qy,qz,sfs,stance\n"]
    for k in range(traj.t.size):
        row = [traj.t[k], *traj.p[k], *traj.q_nb[k], traj.sfs[k]]
        lines.append(",".join(_fmt(x) for x in row)
                     + f",{int(traj.stance[k])}\n")
    return "".join(lines)


def per_value_allan_text(taus, adev):
    """An Allan curve file as text, one `format(x, ".17g")` per value."""
    return "# tau,adev\n" + "".join(
        f"{_fmt(tau)},{_fmt(dev)}\n" for tau, dev in zip(taus, adev))


def one_batch_inverse_imu(truth, accel_cal, gyro_cal, noise, seed=0, *,
                          quantize=True, g=GRAVITY):
    """`inverse_imu` as one batch: every full-length temporary at once.

    The reference the block form is held to bit for bit: specific force
    rotated in one call, the four noise draws held side by side in the
    order white accel, white gyro, accel walk, gyro walk.
    """
    n = truth.t.size
    g_vec = np.array([0.0, 0.0, -g])
    specific_force = quat_rotate(truth.q_nb.T, (truth.a - g_vec).T).T

    rng = np.random.default_rng(seed)
    white_a = rng.standard_normal((n, 3)) * noise.accel_sigma
    white_w = rng.standard_normal((n, 3)) * noise.gyro_sigma
    walk_a = np.cumsum(rng.standard_normal((n, 3)) * noise.accel_walk_sigma, axis=0)
    walk_w = np.cumsum(rng.standard_normal((n, 3)) * noise.gyro_walk_sigma, axis=0)

    physical_a = specific_force + white_a + walk_a
    physical_w = truth.omega + white_w + walk_w

    counts_a = physical_a @ accel_cal.gain.T + accel_cal.bias
    counts_w = physical_w @ gyro_cal.gain.T + gyro_cal.bias
    if not quantize:
        return counts_a, counts_w
    counts_a = np.clip(np.rint(counts_a), -32768, 32767).astype(np.int32)
    counts_w = np.clip(np.rint(counts_w), -32768, 32767).astype(np.int32)
    return counts_a, counts_w


def stringio_log_rows(path):
    """Header fields and rows of an IMU log, parsed from the whole body
    read into memory as one string."""
    with open(path) as fh:
        header = fh.readline()
        body = fh.read()
    fields = {}
    for token in header[1:].split():
        key, _, value = token.partition("=")
        fields[key] = value
    if not body.strip():
        return fields, np.empty((0, 7))
    return fields, np.loadtxt(StringIO(body), delimiter=",", ndmin=2)


def stringio_csv_rows(path, n_cols):
    """Rows of a comment-headed CSV, parsed from the text left after
    dropping blank and ``#`` lines."""
    with open(path) as fh:
        body = "".join(
            line for line in fh if line.strip() and not line.startswith("#")
        )
    if not body:
        return np.empty((0, n_cols))
    return np.loadtxt(StringIO(body), delimiter=",", ndmin=2)


def measurement_jacobian():
    """Sensitivity of the IMU measurement, H = [0 | I | I] over the IMU
    states and the biases as a dense (6, 25) matrix; exactly constant."""
    jac = np.zeros((MEAS_DIM, DIM))
    jac[0:3, ACC_B] = np.eye(3)
    jac[0:3, BIAS_A] = np.eye(3)
    jac[3:6, OMEGA] = np.eye(3)
    jac[3:6, BIAS_W] = np.eye(3)
    return jac


def kalman_update(x, p_mat, z, z_pred, jac, r_diag):
    """One Joseph-form measurement update, any dimensions, with a dense
    H (``jac``): ``H P``, ``S = H P H^T + R`` and ``I - K H`` formed as
    full matrix products.  The gain and the covariance check are the
    library's, so a non-finite or indefinite S is refused the same way.
    """
    z = np.asarray(z, dtype=float)
    r_diag = np.asarray(r_diag, dtype=float)
    hp = jac @ p_mat
    gain = ekf._innovation_gain(hp @ jac.T + np.diag(r_diag), hp)  # (n, m)
    x1 = x + gain @ (z - z_pred)
    ikj = np.eye(len(x)) - gain @ jac
    p1 = ikj @ p_mat @ ikj.T + (gain * r_diag) @ gain.T
    return x1, ekf._check_covariance(p1)


def build_pseudo_measurements(latched_xy, accel_sample, gyro_sample, cfg,
                              g=GRAVITY):
    """The stance stack of one sample, built afresh: a new
    `pdrnav.zupt.StanceStack` for ``cfg`` whose horizontal target is
    ``latched_xy`` and whose bias targets are this calibrated sample.

    Returns ``linearize``, mapping one state to the residual and the
    prediction Jacobian H of the enabled rows.
    """
    stack = zupt.StanceStack(cfg, g)
    latch_state = np.zeros(DIM)
    latch_state[POS][:2] = latched_xy
    stack.latch(latch_state)
    sample = np.concatenate([accel_sample, gyro_sample])
    return lambda x: stack.linearize(x, sample)


def soft_covariance(cfg, score):
    """Variances of the enabled stance rows at one score in [0, 1]: the
    base variances times ``1 + covariance_gain * (1 - score)``."""
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score {score} outside [0, 1]")
    return (1.0 + cfg.covariance_gain * (1.0 - score)) * \
        cfg.pseudo_variances[cfg.row_mask()]


def dense_imu_update(x, p_mat, z, r_diag):
    """The IMU update as `kalman_update` with the dense
    `measurement_jacobian`, the quaternion renormalised."""
    x1, p1 = kalman_update(x, p_mat, z, ekf.measurement_model(x),
                           measurement_jacobian(), r_diag)
    x1[QUAT] = quat_normalize(x1[QUAT])
    return x1, p1


def dense_stance_update(x, p_mat, linearize, variances):
    """The stance update as `kalman_update` with the residual and H that
    ``linearize`` gives at ``x``, the quaternion renormalised."""
    nu, jac = linearize(x)
    x1, p1 = kalman_update(x, p_mat, nu, np.zeros_like(nu), jac, variances)
    x1[QUAT] = quat_normalize(x1[QUAT])
    return x1, p1


def chain_tracker(log, accel_cal, gyro_cal, filter_cfg=None, stance_cfg=None,
                  *, predict=ekf.predict, stance_update=dense_stance_update,
                  p0=(0.0, 0.0, 0.0), heading0=0.0, init_duration=1.0):
    """`pdrnav.tracker.run_tracker` as a chain of per-call steps:
    ``predict`` (called like `pdrnav.ekf.predict`, with the effective
    process noise formed per call), `dense_imu_update` and, on stance
    samples, a `build_pseudo_measurements` stack latched at the event's
    first sample with `soft_covariance` variances through
    ``stance_update`` (called like `dense_stance_update`).  Divergence is
    reported as the tracker reports it.
    """
    if filter_cfg is None:
        filter_cfg = ekf.default_filter_config(log.fs)
    if stance_cfg is None:
        stance_cfg = zupt.default_stance_config(log.fs)
    n = log.t.size
    f_b = calibration.apply_accel_calibration(accel_cal, np.asarray(log.accel, dtype=float))
    w_b = calibration.apply_gyro_calibration(gyro_cal, np.asarray(log.gyro, dtype=float))
    scores = zupt.sfs_series(f_b, w_b, stance_cfg)
    if stance_cfg.mode == "soft":
        active = scores >= stance_cfg.sfs_threshold
    elif stance_cfg.mode == "hard":
        active = zupt.hard_series(f_b, w_b, stance_cfg)
    else:
        active = np.zeros(n, dtype=bool)
    k_init = min(n, max(int(round(init_duration * log.fs)), 1))
    x, p_mat = ekf.init_state(np.asarray(p0, dtype=float), heading0,
                              f_b[:k_init], w_b[:k_init], filter_cfg, log.fs)

    p_out = np.empty((n, 3))
    q_out = np.empty((n, 4))
    latched_xy = None
    for k in range(n):
        try:
            x, p_mat = predict(x, p_mat, filter_cfg, filter_cfg.effective_q_diag())
            x, p_mat = dense_imu_update(x, p_mat, np.concatenate([f_b[k], w_b[k]]),
                                        filter_cfg.r_diag)
            if active[k]:
                if latched_xy is None:
                    latched_xy = x[POS][:2].copy()
                linearize = build_pseudo_measurements(
                    latched_xy, f_b[k], w_b[k], stance_cfg, g=filter_cfg.g)
                score = scores[k] if stance_cfg.mode == "soft" else 1.0
                x, p_mat = stance_update(x, p_mat, linearize,
                                         soft_covariance(stance_cfg, score))
            else:
                latched_xy = None
            if not np.isfinite(x).all():
                raise ekf.FilterDivergenceError("state became non-finite")
        except (ekf.FilterDivergenceError, np.linalg.LinAlgError, ValueError) as exc:
            partial = tracker.Trajectory(t=log.t[:k], p=p_out[:k], q_nb=q_out[:k],
                                         sfs=scores[:k], stance=active[:k])
            diag = tracker.TrackerDiagnostic(
                sample_index=k,
                covariance_condition=tracker._condition_number(p_mat),
                message=str(exc))
            raise tracker.TrackerDivergence(partial, diag) from exc
        p_out[k] = x[POS]
        q_out[k] = x[QUAT]
    return tracker.Trajectory(t=log.t, p=p_out, q_nb=q_out, sfs=scores, stance=active)
