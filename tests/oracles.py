"""Independent reference implementations used only by the test suite.

Nothing here may import the code paths it is checking beyond the state
layout constants; oracles recompute results from first principles.
"""

from __future__ import annotations

import numpy as np

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
