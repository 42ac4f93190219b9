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
