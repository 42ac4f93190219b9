"""Independent reference implementations used only by the test suite.

Nothing here may import the code paths it is checking beyond the state
layout constants; oracles recompute results from first principles.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray
from scipy.optimize import brentq

from pdrnav.ekf import ACC_B, DIM, OMEGA, QUAT
from pdrnav.quat import quat_exp, quat_mul, rot_matrix


def finite_difference_jacobian(f, x, m: int | None = None):
    """Central-difference Jacobian of a batch-capable state function.

    The reference that criterion 2 holds against Richardson, and that
    the tracker test swaps in for the filter's closed forms.

    Perturbation step per coordinate: ``max(1e-6, 1e-6 |x_i|)``.
    Quaternion coordinates are perturbed additively like any other; if
    ``f`` normalizes internally the derivative of the normalized map is
    what comes out.

    Parameters
    ----------
    f : callable
        Maps ``(n, k)`` batches of states column-wise to ``(m, k)``.
    x : ndarray, shape (n,)
    m : int, optional
        Output dimension, inferred from one evaluation if omitted.

    Returns
    -------
    ndarray, shape (m, n)
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    h = np.maximum(1e-6, 1e-6 * np.abs(x))
    perturb = np.diag(h)
    f_plus = np.asarray(f(x[:, None] + perturb))
    f_minus = np.asarray(f(x[:, None] - perturb))
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
