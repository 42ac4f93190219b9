"""Unit quaternion kinematics.

Conventions, fixed once here and relied on everywhere else (Sola,
"Quaternion kinematics for the error-state Kalman filter",
arXiv:1711.02583, sections 2 to 4):

- Quaternions are stored scalar-first, ``q = (w, x, y, z)``, Hamilton
  product, right-handed.
- `quat_rotate` applies the sandwich product: ``quat_rotate(q, u)`` is
  the vector part of ``q * (0, u) * conj(q)``.
- A state quaternion carries the navigation-to-body coordinate
  transform: ``v_body = quat_rotate(q, v_nav)``.  The body-to-nav
  direction is the rotation by ``conj(q)``, written explicitly at call
  sites.
- `quat_from_rpy` is the one constructor of a state quaternion from an
  attitude.

`quat_rotate` and `quat_from_rpy` take single arguments or batches with
the components along the first axis: quaternions ``(4,)`` or ``(4, k)``,
vectors ``(3,)`` or ``(3, k)``.  `quat_normalize` takes one quaternion.
`_rotate_terms` and `_conj_rotate_terms` are the filter's scalar form
of the rotation, with its derivatives taken exactly as written and the
quaternion perturbed additively (not on the unit sphere), which is what
a filter that stores the four components in its state needs.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "quat_normalize",
    "quat_rotate",
    "quat_from_rpy",
]

# A quaternion with a norm this small cannot be meaningfully normalized.
_DEGENERATE_NORM = 1e-12


def quat_normalize(q: NDArray[np.float64]) -> NDArray[np.float64]:
    """Rescale one quaternion, shape (4,), to unit norm.

    Raises
    ------
    ValueError
        If the norm is too close to zero for the direction to be
        trusted, or not finite.
    """
    q = np.asarray(q, dtype=float)
    w, x, y, z = q.tolist()
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if not _DEGENERATE_NORM <= n < math.inf:
        raise ValueError(f"cannot normalize quaternion with norm {n:g}")
    return q / n


def quat_rotate(q: NDArray[np.float64], u: NDArray[np.float64]) -> NDArray[np.float64]:
    """Apply the sandwich product: vector part of ``q * (0, u) * conj(q)``.

    Works on single quaternions and vectors and on batches alike,
    without materializing rotation matrices.
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
    """`quat_rotate` of one vector and its derivatives, in floats, for
    callers that hold the components already.

    The Rodrigues polynomial ``u + 2 w (r x u) + 2 r x (r x u)``, with
    ``r = (x, y, z)``, is differentiated as written, so ``q`` need not
    be unit:

    - d/dw = 2 r x u,
    - d/dr = 2 ((r.u) I + r u^T - 2 u r^T - w [u]x),
    - d/du = I + 2 (w [r]x + r r^T - (r.r) I),

    with ``[a]x`` the matrix of ``a x .``.

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
    """`_rotate_terms` of ``conj(q)``: the body-to-nav rotation of ``u``
    and its derivatives, with d/dq taken with respect to ``q`` itself
    (the vector columns change sign)."""
    rotated, d, d_u = _rotate_terms(w, -x, -y, -z, a, b, c)
    d_q = (d[0], -d[1], -d[2], -d[3], d[4], -d[5], -d[6], -d[7],
           d[8], -d[9], -d[10], -d[11])
    return rotated, d_q, d_u


def quat_from_rpy(roll, pitch, yaw) -> NDArray[np.float64]:
    """State quaternion (nav-to-body) for a body at the given attitude.

    Roll, pitch, yaw are the usual aerospace z-y-x Euler angles of the
    body relative to the navigation frame, in radians.  They broadcast
    against each other, and the result has the components along the
    first axis: (4,) for scalars, (4, k) for arrays of length k.  A pure
    yaw gives ``(cos(yaw / 2), 0, 0, -sin(yaw / 2))`` exactly.
    """
    cr, sr = np.cos(roll / 2.0), np.sin(roll / 2.0)
    cp, sp = np.cos(pitch / 2.0), np.sin(pitch / 2.0)
    cy, sy = np.cos(yaw / 2.0), np.sin(yaw / 2.0)
    # Body attitude is Rz(yaw) Ry(pitch) Rx(roll); the nav-to-body state
    # quaternion is the conjugate of the product of those three
    # half-angle quaternions.  A pure yaw leaves x and y as sums of
    # zeros signed by the yaw terms; the 0.0 added or subtracted makes
    # them +0.0.  z is a negation, so yaw = 0 gives -sin(0) = -0.0.
    return np.stack([
        cr * cp * cy + sr * sp * sy,
        cr * sp * sy - sr * cp * cy + 0.0,
        0.0 - (cr * sp * cy + sr * cp * sy),
        -(cr * cp * sy - sr * sp * cy),
    ])
