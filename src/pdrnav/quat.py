"""Unit quaternion kinematics.

Conventions, fixed once here and relied on everywhere else:

- Quaternions are stored scalar-first, ``q = (w, x, y, z)``, Hamilton
  product, right-handed.
- ``quat_exp(v)`` is the unit quaternion of the rotation by angle
  ``2 * norm(v)`` about ``v`` (half-angle argument).
- ``rot_matrix(q)`` is the matrix of the sandwich product: for every
  quaternion ``q`` and vector ``u``, ``rot_matrix(q) @ u`` equals the
  vector part of ``q * (0, u) * conj(q)``.
- A state quaternion carries the navigation-to-body coordinate
  transform: ``v_body = rot_matrix(q) @ v_nav``.  The body-to-nav
  direction is the transpose, written explicitly at call sites.

All operations accept a single quaternion of shape ``(4,)`` or a batch
of shape ``(4, k)`` with components along the first axis, and vectors of
shape ``(3,)`` or ``(3, k)``.  `quat_rotate_jacobian` takes single
arguments and differentiates the rotation exactly as written, with the
quaternion perturbed additively (not on the unit sphere), which is what
a filter that stores the four components in its state needs.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "quat_mul",
    "quat_normalize",
    "quat_exp",
    "quat_rotate",
    "quat_rotate_jacobian",
    "rot_matrix",
    "quat_from_rpy",
]

# Below this rotation-vector norm the exponential switches to its
# second-order series; keeps the output unit to 1e-12 and avoids 0/0.
_EXP_SERIES_NORM = 1e-8

# A quaternion with a norm this small cannot be meaningfully normalized.
_DEGENERATE_NORM = 1e-12


def quat_mul(p: NDArray[np.float64], q: NDArray[np.float64]) -> NDArray[np.float64]:
    """Hamilton product ``p * q``.

    Parameters
    ----------
    p, q : ndarray, shape (4,) or (4, k)
        Quaternions, scalar first.  Shapes must broadcast.

    Returns
    -------
    ndarray
        The product, same layout as the inputs.
    """
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return np.stack(
        [
            pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw,
        ]
    )


def quat_normalize(q: NDArray[np.float64]) -> NDArray[np.float64]:
    """Rescale to unit norm.

    Raises
    ------
    ValueError
        If any quaternion in the batch has a norm too close to zero for
        the direction to be trusted.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim == 1:
        # One quaternion: float arithmetic, summed in the batch order.
        w, x, y, z = q.tolist()
        n = math.sqrt(w * w + x * x + y * y + z * z)
        if not _DEGENERATE_NORM <= n < math.inf:
            raise ValueError(f"cannot normalize quaternion with norm {n:g}")
        return q / n
    n = np.sqrt(np.sum(q * q, axis=0))
    if (n < _DEGENERATE_NORM).any() or not np.isfinite(n).all():
        raise ValueError(f"cannot normalize quaternion with norm {np.min(n):g}")
    return q / n


def quat_exp(v: NDArray[np.float64]) -> NDArray[np.float64]:
    """Map a rotation vector to a unit quaternion.

    ``quat_exp(v) = (cos |v|, sin |v| * v / |v|)``: the result rotates by
    the angle ``2 |v|`` about ``v`` under the sandwich product.

    Parameters
    ----------
    v : ndarray, shape (3,) or (3, k)

    Returns
    -------
    ndarray, shape (4,) or (4, k)
    """
    v = np.asarray(v, dtype=float)
    n = np.sqrt(np.sum(v * v, axis=0))
    small = n < _EXP_SERIES_NORM
    # sin(n)/n, with the series 1 - n^2/6 where n underflows the division.
    with np.errstate(invalid="ignore"):
        s = np.where(small, 1.0 - n * n / 6.0, np.sin(n) / np.where(small, 1.0, n))
    w = np.where(small, 1.0 - n * n / 2.0, np.cos(n))
    return np.concatenate([np.expand_dims(w, 0), s * v])


def quat_rotate(q: NDArray[np.float64], u: NDArray[np.float64]) -> NDArray[np.float64]:
    """Apply the sandwich product: vector part of ``q * (0, u) * conj(q)``.

    Equivalent to ``rot_matrix(q) @ u`` but works on batches without
    materializing matrices.
    """
    w, x, y, z = np.asarray(q, dtype=float)
    ux, uy, uz = np.asarray(u, dtype=float)
    # Rodrigues form: u + w t + xyz x t with t = 2 xyz x u.  Unpacked
    # components broadcast single and batch shapes alike; the products
    # are grouped as in a cross product, term by term.
    tx = 2.0 * (y * uz - z * uy)
    ty = 2.0 * (z * ux - x * uz)
    tz = 2.0 * (x * uy - y * ux)
    return np.stack([
        ux + w * tx + (y * tz - z * ty),
        uy + w * ty + (z * tx - x * tz),
        uz + w * tz + (x * ty - y * tx),
    ])


def _rotate_terms(w, x, y, z, a, b, c):
    """`quat_rotate` of one vector and its derivatives, in floats.

    The scalar core of `quat_rotate_jacobian` for callers that hold the
    components already.

    Returns
    -------
    rotated : tuple of 3 floats
        Bit-identical to `quat_rotate` of ``(w, x, y, z)`` and ``(a, b, c)``.
    d_q : tuple of 12 floats
        d/d(w, x, y, z), row-major (3, 4).
    d_u : tuple of 9 floats
        d/d(a, b, c), row-major (3, 3).
    """
    tx = 2.0 * (y * c - z * b)
    ty = 2.0 * (z * a - x * c)
    tz = 2.0 * (x * b - y * a)
    rotated = (
        a + w * tx + (y * tz - z * ty),
        b + w * ty + (z * tx - x * tz),
        c + w * tz + (x * ty - y * tx),
    )
    ru = x * a + y * b + z * c
    rr = x * x + y * y + z * z
    d_q = (
        tx, 2.0 * (ru - a * x), 2.0 * (x * b - 2.0 * a * y + w * c),
        2.0 * (x * c - 2.0 * a * z - w * b),
        ty, 2.0 * (y * a - 2.0 * b * x - w * c), 2.0 * (ru - b * y),
        2.0 * (y * c - 2.0 * b * z + w * a),
        tz, 2.0 * (z * a - 2.0 * c * x + w * b),
        2.0 * (z * b - 2.0 * c * y - w * a), 2.0 * (ru - c * z),
    )
    d_u = (
        1.0 + 2.0 * (x * x - rr), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y),
        2.0 * (y * x + w * z), 1.0 + 2.0 * (y * y - rr), 2.0 * (y * z - w * x),
        2.0 * (z * x - w * y), 2.0 * (z * y + w * x), 1.0 + 2.0 * (z * z - rr),
    )
    return rotated, d_q, d_u


def _conj_rotate_terms(w, x, y, z, a, b, c):
    """`_rotate_terms` of ``conj(q)``: ``rot_matrix(q).T @ u`` and its
    derivatives, with d/dq taken with respect to ``q`` itself (the vector
    columns change sign)."""
    rotated, d, d_u = _rotate_terms(w, -x, -y, -z, a, b, c)
    d_q = (d[0], -d[1], -d[2], -d[3], d[4], -d[5], -d[6], -d[7],
           d[8], -d[9], -d[10], -d[11])
    return rotated, d_q, d_u


def quat_rotate_jacobian(q: NDArray[np.float64], u: NDArray[np.float64]):
    """Derivatives of `quat_rotate` at one quaternion and vector.

    The Rodrigues polynomial ``u + 2 w (r x u) + 2 r x (r x u)``, with
    ``r = (x, y, z)`` the vector part of ``q``, is differentiated as
    written, so ``q`` need not be unit:

    - d/dw = 2 r x u,
    - d/dr = 2 ((r.u) I + r u^T - 2 u r^T - w [u]x),
    - d/du = I + 2 (w [r]x + r r^T - (r.r) I),

    with ``[a]x`` the matrix of ``a x .``.

    Returns
    -------
    d_q : ndarray, shape (3, 4)
    d_u : ndarray, shape (3, 3)
    """
    _, d_q, d_u = _rotate_terms(*np.asarray(q, dtype=float).tolist(),
                                *np.asarray(u, dtype=float).tolist())
    return np.reshape(d_q, (3, 4)), np.reshape(d_u, (3, 3))


def rot_matrix(q: NDArray[np.float64]) -> NDArray[np.float64]:
    """Rotation matrix of the sandwich product of ``q``.

    For a state quaternion (navigation-to-body transform) the returned
    matrix maps navigation-frame coordinates to body-frame coordinates;
    its transpose maps back.

    Parameters
    ----------
    q : ndarray, shape (4,)
        Unit quaternion.

    Returns
    -------
    ndarray, shape (3, 3)
    """
    w, x, y, z = np.asarray(q, dtype=float)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_from_rpy(roll: float, pitch: float, yaw: float) -> NDArray[np.float64]:
    """State quaternion (nav-to-body) for a body at the given attitude.

    Roll, pitch, yaw are the usual aerospace z-y-x Euler angles of the
    body relative to the navigation frame, in radians.
    """
    ex = np.array([roll / 2.0, 0.0, 0.0])
    ey = np.array([0.0, pitch / 2.0, 0.0])
    ez = np.array([0.0, 0.0, yaw / 2.0])
    # Body attitude is Rz(yaw) Ry(pitch) Rx(roll); the nav-to-body state
    # quaternion is its inverse.
    return quat_mul(quat_exp(-ex), quat_mul(quat_exp(-ey), quat_exp(-ez)))
