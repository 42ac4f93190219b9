"""Independent reference implementations used only by the test suite.

Nothing here may import the code paths it is checking beyond the state
layout constants; oracles recompute results from first principles.  The
quaternion algebra the library does not run (the Hamilton product, the
exponential, the rotation matrix, batch normalisation) lives here too,
as the forms the library's closed forms are held against.  The
filter references are the exception by design: `kalman_update` is the
general dense update that the library's updates must equal (it shares
their gain and its checks of S, so both refuse the same inputs, and
like them it leaves the covariance unchecked);
`build_pseudo_measurements` and `soft_covariance` are the stance
update's per-call form, a stack built afresh for each sample around the
library's linearisation; and `chain_tracker` is the tracking loop built
from those dense, per-call forms, checked after every stage, which the
tracker's single step must equal.
"""

from __future__ import annotations

from io import StringIO

import numpy as np

from pdrnav import calibration, ekf, gait, tracker, zupt
from pdrnav.allan import _SWEEP_BLOCK
from pdrnav.constants import GRAVITY
from pdrnav.ekf import ACC_B, BIAS_A, BIAS_W, DIM, MEAS_DIM, OMEGA, POS, QUAT
from pdrnav.quat import _DEGENERATE_NORM, _rotate_terms, quat_normalize, quat_rotate


def quat_mul(p, q):
    """Hamilton product ``p * q`` of quaternions (4,) or (4, k), scalar
    first; the shapes broadcast."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return np.stack([
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    ])


def quat_exp(v):
    """Unit quaternion ``(cos |v|, sin |v| * v / |v|)`` of a rotation
    vector (3,) or (3, k): the rotation by ``2 |v|`` about ``v`` under the
    sandwich product.  Below the filter's series cutoff
    (`pdrnav.ekf._EXP_SERIES_NORM`) the second-order series is used."""
    v = np.asarray(v, dtype=float)
    n = np.sqrt(np.sum(v * v, axis=0))
    small = n < ekf._EXP_SERIES_NORM
    # sin(n)/n, with the series 1 - n^2/6 where n underflows the division.
    with np.errstate(invalid="ignore"):
        s = np.where(small, 1.0 - n * n / 6.0, np.sin(n) / np.where(small, 1.0, n))
    w = np.where(small, 1.0 - n * n / 2.0, np.cos(n))
    return np.concatenate([np.expand_dims(w, 0), s * v])


def quat_normalize_batch(q):
    """`pdrnav.quat.quat_normalize` of each column of a (4, k) batch, in
    array arithmetic; raises ValueError like it on any degenerate or
    non-finite norm."""
    q = np.asarray(q, dtype=float)
    n = np.sqrt(np.sum(q * q, axis=0))
    if (n < _DEGENERATE_NORM).any() or not np.isfinite(n).all():
        raise ValueError(f"cannot normalize quaternion with norm {np.min(n):g}")
    return q / n


def rot_matrix(q):
    """Rotation matrix (3, 3) of the sandwich product of one unit
    quaternion: ``rot_matrix(q) @ u == quat_rotate(q, u)``.  For a state
    quaternion it maps navigation coordinates to body coordinates; its
    transpose maps back."""
    w, x, y, z = np.asarray(q, dtype=float)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def quat_rotate_jacobian(q, u):
    """`pdrnav.quat._rotate_terms`' derivatives of `quat_rotate` at one
    quaternion and vector as matrices: d_q (3, 4) and d_u (3, 3)."""
    _, d_q, d_u = _rotate_terms(*np.asarray(q, dtype=float).tolist(),
                                *np.asarray(u, dtype=float).tolist())
    return np.reshape(d_q, (3, 4)), np.reshape(d_u, (3, 3))


def zero_noise():
    """Noise levels of a noise-free sensor, for exactness tests."""
    zeros = np.zeros(3)
    return gait.NoiseParams(zeros, zeros, zeros.copy(), zeros.copy())


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


def radial_residuals(gain, bias, means, g):
    """Radial calibration residuals (P,) of each mean (P, 3), one mean
    at a time: the magnitude of the specific force the model maps it back
    to, less g."""
    inv = np.linalg.inv(np.asarray(gain, dtype=float))
    return np.array([np.linalg.norm(inv @ (mean - bias)) - g
                     for mean in np.atleast_2d(means)])


def per_capture_still_statistics(stills, lsb_gyro):
    """`calibration.batch_means`' figures one capture at a time, in the
    forms it and ``pdrnav calibrate`` computed them before its one pass.

    Returns a dict of the `OrientationBatch` fields: each capture's accel
    mean, the mean over captures of each capture's mean per-axis std
    (ddof=1), each capture's median angular rate (rad/s), the gyro's mean
    over the captures' concatenation and its noise like the accel's.
    The gyro counts go into their std and mean as given, so integer
    counts take numpy's integer reductions.  No refusals: the captures
    must be valid.
    """
    means, noise, rates, gyro_noise = [], [], [], []
    for accel, gyro in stills.values():
        accel_f = np.asarray(accel, dtype=float)
        gyro_f = np.asarray(gyro, dtype=float)
        rates.append(np.median(np.linalg.norm(gyro_f * lsb_gyro, axis=1)))
        means.append(accel_f.mean(axis=0))
        noise.append(accel_f.std(axis=0, ddof=1).mean())
        gyro_noise.append(np.asarray(gyro).std(axis=0, ddof=1).mean())
    gyros = [np.asarray(gyro) for _, gyro in stills.values()]
    return {
        "means": np.array(means),
        "noise_counts": float(np.mean(noise)),
        "median_rates": np.array(rates),
        "gyro_bias": np.concatenate(gyros).mean(axis=0),
        "gyro_noise_counts": float(np.mean(gyro_noise)),
    }


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
    plainly readable reference for `pdrnav.zupt._conditions`;
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
    """Binary baseline detector at one index; see the ``"hard"`` mode
    of `pdrnav.zupt.stance_schedule`."""
    mag_a, _ = _magnitudes(accel, gyro)
    n = mag_a.size
    if not 0 <= k < n:
        raise IndexError(f"sample index {k} outside record of length {n}")
    lo = max(k - cfg.detect_half_width, 0)
    hi = min(k + cfg.detect_half_width + 1, n)
    count = sum(
        all(condition_signals(accel, gyro, cfg, i)[:3]) for i in range(lo, hi)
    )
    return bool(count / (2 * cfg.detect_half_width + 1) >= cfg.sfs_threshold)




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


def per_value_log_text(log, time_text=repr):
    """An IMU log file as text: header scales with `format(x, ".17g")`,
    each time with ``time_text`` (`repr` of a Python float, the shortest
    text that reads back to it), counts as integers.  ``time_text=_fmt``
    gives the 17-digit time column that logs were once written with."""
    lines = [f"# fs={_fmt(log.fs)} lsb_a={_fmt(log.lsb_accel)} "
             f"lsb_w={_fmt(log.lsb_gyro)}\n"]
    a = np.rint(log.accel).astype(np.int64)
    w = np.rint(log.gyro).astype(np.int64)
    for k in range(log.t.size):
        lines.append(f"{time_text(float(log.t[k]))},{a[k, 0]},{a[k, 1]},"
                     f"{a[k, 2]},{w[k, 0]},{w[k, 1]},{w[k, 2]}\n")
    return "".join(lines)


def per_value_truth_text(truth):
    """A truth sidecar as text, one `format(x, ".17g")` per value and
    each stance flag as 1 where it is nonzero, 0 elsewhere."""
    lines = ["# t,px,py,pz,vx,vy,vz,qw,qx,qy,qz,stance\n"]
    for k in range(truth.t.size):
        row = [truth.t[k], *truth.p[k], *truth.v[k], *truth.q_nb[k]]
        lines.append(",".join(_fmt(x) for x in row)
                     + f",{int(truth.stance[k] != 0)}\n")
    return "".join(lines)


def per_value_trajectory_text(traj):
    """A trajectory file as text, one `format(x, ".17g")` per value and
    each stance flag as 1 where it is nonzero, 0 elsewhere."""
    lines = ["# t,px,py,pz,qw,qx,qy,qz,sfs,stance\n"]
    for k in range(traj.t.size):
        row = [traj.t[k], *traj.p[k], *traj.q_nb[k], traj.sfs[k]]
        lines.append(",".join(_fmt(x) for x in row)
                     + f",{int(traj.stance[k] != 0)}\n")
    return "".join(lines)


def per_value_allan_text(taus, adev):
    """An Allan curve file as text, one `format(x, ".17g")` per value."""
    return "# tau,adev\n" + "".join(
        f"{_fmt(tau)},{_fmt(dev)}\n" for tau, dev in zip(taus, adev))


def three_temporary_allan_deviation(series, fs, sizes):
    """Overlapping Allan deviation at the cluster sizes ``sizes``, each
    second difference of the integrated signal written as one expression
    with its three full-length temporaries, its squares summed by
    `np.einsum` over `pdrnav.allan._SWEEP_BLOCK` rows at a time and the
    block sums added in order: the form `allan_deviation` forms block by
    block and must equal bit for bit."""
    series = np.asarray(series, dtype=float).ravel()
    series = series - series.mean()
    integral = np.concatenate([[0.0], np.cumsum(series)]) / fs
    adev = np.empty(len(sizes))
    for j, m in enumerate(sizes):
        d = integral[2 * m:] - 2.0 * integral[m:-m] + integral[:-2 * m]
        total = 0.0
        for lo in range(0, d.size, _SWEEP_BLOCK):
            b = d[lo:lo + _SWEEP_BLOCK]
            total += np.einsum("i,i->", b, b)
        tau = m / fs
        adev[j] = np.sqrt(total / (2.0 * d.size * tau * tau))
    return adev


def _point_at_arc(path: np.ndarray, lengths: np.ndarray, cum: np.ndarray,
                  s: float) -> np.ndarray:
    """Point on the polyline at arc length ``s``, clamped to the ends.

    Clamping returns the stored endpoint verbatim, so a closed path
    (first waypoint repeated last) yields bit-identical start and end
    footfalls with no arithmetic in between.
    """
    if s <= 0.0:
        return path[0].copy()
    if s >= cum[-1]:
        return path[-1].copy()
    j = int(np.searchsorted(cum, s, side="right")) - 1
    frac = (s - cum[j]) / lengths[j]
    return path[j] + frac * (path[j + 1] - path[j])


def mask_generate_gait(params, fs):
    """`generate_gait` worked out phase by phase: one `_point_at_arc`
    call per footfall, a heading loop over the steps, the phase list
    built by alternating stance and swing with each start added to a
    running clock, and each phase filled through a mask ``idx == j``,
    one full-length comparison per phase.  Only the interpolants are the
    library's.  The library's phase table must hold the same footfalls,
    headings and phase starts bit for bit; this asserts so."""
    path = params.path
    lengths = np.linalg.norm(np.diff(path, axis=0), axis=1)
    cum = np.concatenate(([0.0], np.cumsum(lengths)))
    total_len = float(cum[-1])
    n_steps = max(int(round(total_len / params.step_length)), 1)
    arcs = np.linspace(0.0, total_len, n_steps + 1)
    footfalls = np.array([_point_at_arc(path, lengths, cum, s) for s in arcs])

    chords = np.diff(footfalls, axis=0)
    chord_len = np.linalg.norm(chords, axis=1)
    headings = np.empty(n_steps + 1)
    prev = 0.0
    for k in range(n_steps):
        if chord_len[k] > 1e-12:
            prev = float(np.arctan2(chords[k, 1], chords[k, 0]))
        headings[k] = prev
    headings[n_steps] = headings[n_steps - 1]

    swing_t = 1.0 / params.cadence - params.stance_duration
    starts = [0.0]
    kinds = ["still"]
    payload: list[tuple] = [(footfalls[0], headings[0])]
    clock = params.lead_in + params.stance_duration
    for k in range(n_steps):
        starts.append(clock)
        kinds.append("swing")
        payload.append((footfalls[k], footfalls[k + 1], headings[k], headings[k + 1]))
        clock += swing_t
        starts.append(clock)
        kinds.append("still")
        payload.append((footfalls[k + 1], headings[k + 1]))
        clock += params.stance_duration
    total_t = clock + params.tail

    table = gait._phase_table(params, fs)
    for name, want in (("footfalls", footfalls), ("headings", headings),
                       ("starts", np.array(starts))):
        got = getattr(table, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name

    n = int(round(total_t * fs)) + 1
    t = np.arange(n) / fs
    idx = np.searchsorted(np.asarray(starts), t, side="right") - 1
    p = np.zeros((n, 3))
    v = np.zeros((n, 3))
    a = np.zeros((n, 3))
    yaw = np.zeros(n)
    yaw_rate = np.zeros(n)
    stance = np.zeros(n, dtype=bool)
    height = params.swing_peak_height
    for j, kind in enumerate(kinds):
        sel = idx == j
        if not np.any(sel):
            continue
        if kind == "still":
            foot, psi = payload[j]
            p[sel, 0] = foot[0]
            p[sel, 1] = foot[1]
            yaw[sel] = psi
            stance[sel] = True
            continue
        foot_a, foot_b, psi_a, psi_b = payload[j]
        s = (t[sel] - starts[j]) / swing_t
        sigma, dsigma, d2sigma = gait._smoothstep(s)
        b, db, d2b = gait._bump(s)
        chord = foot_b - foot_a
        p[sel, 0] = foot_a[0] + sigma * chord[0]
        p[sel, 1] = foot_a[1] + sigma * chord[1]
        p[sel, 2] = height * b
        v[sel, 0] = chord[0] * dsigma / swing_t
        v[sel, 1] = chord[1] * dsigma / swing_t
        v[sel, 2] = height * db / swing_t
        a[sel, 0] = chord[0] * d2sigma / swing_t**2
        a[sel, 1] = chord[1] * d2sigma / swing_t**2
        a[sel, 2] = height * d2b / swing_t**2
        dpsi = gait._wrap_angle(psi_b - psi_a)
        yaw[sel] = psi_a + sigma * dpsi
        yaw_rate[sel] = dpsi * dsigma / swing_t
    q_nb = np.zeros((n, 4))
    q_nb[:, 0] = np.cos(yaw / 2.0)
    q_nb[:, 3] = -np.sin(yaw / 2.0)
    omega = np.zeros((n, 3))
    omega[:, 2] = yaw_rate
    return gait.GroundTruth(
        t=t, p=p, v=v, a=a, q_nb=q_nb, omega=omega, stance=stance, fs=fs,
        footfalls=footfalls, path_length=total_len)


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
    full matrix products.  The gain is the library's, so a non-finite or
    indefinite S is refused the same way; the covariance is returned
    unchecked, as the library's updates return it.
    """
    z = np.asarray(z, dtype=float)
    r_diag = np.asarray(r_diag, dtype=float)
    hp = jac @ p_mat
    gain = ekf._innovation_gain(hp @ jac.T + np.diag(r_diag), hp)  # (n, m)
    x1 = x + gain @ (z - z_pred)
    ikj = np.eye(len(x)) - gain @ jac
    p1 = ikj @ p_mat @ ikj.T + (gain * r_diag) @ gain.T
    return x1, p1


def build_pseudo_measurements(latched_xy, accel_sample, gyro_sample, cfg,
                              g=GRAVITY):
    """The stance stack of one sample, built afresh: a new
    `pdrnav.zupt.StanceStack` for ``cfg`` whose horizontal target is
    ``latched_xy`` and whose accel-bias target is this calibrated
    accel sample.

    Returns ``linearize``, mapping one state to the residual and the
    prediction Jacobian H of the stack.
    """
    stack = zupt.StanceStack(cfg, g)
    latch_state = np.zeros(DIM)
    latch_state[POS][:2] = latched_xy
    stack.latch(latch_state)
    sample = np.concatenate([accel_sample, gyro_sample])
    return lambda x: stack.linearize(x, sample)


def soft_covariance(cfg, score):
    """Variances of the stance rows at one score in [0, 1]: the base
    variances times ``1 + covariance_gain * (1 - score)``."""
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score {score} outside [0, 1]")
    return (1.0 + cfg.covariance_gain * (1.0 - score)) * cfg.pseudo_variances


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


def checked(x, p_mat):
    """A stage's result, refused by the check the tracker runs on each
    step's result."""
    tracker._check_state(x, p_mat)
    return x, p_mat


def chain_tracker(log, accel_cal, gyro_cal, filter_cfg=None, stance_cfg=None,
                  *, predict=ekf.predict, imu_update=dense_imu_update,
                  stance_update=dense_stance_update):
    """`pdrnav.tracker.run_tracker` as a chain of per-call steps:
    ``predict`` (called like `pdrnav.ekf.predict`, with the effective
    process noise formed per call), ``imu_update`` (called like
    `dense_imu_update`) and, on the stance samples of
    `pdrnav.zupt.stance_schedule`, a `build_pseudo_measurements` stack
    latched at the event's first sample with `soft_covariance` variances
    through ``stance_update`` (called like `dense_stance_update`).  Each
    stage's result is `checked` before the next stage runs, so a
    divergence is reported at the first stage that raises or fails the
    check, with the condition of the covariance that stage was given,
    as the tracker reports it.  The track starts at the origin with yaw 0, levelled on
    the log's first second.
    """
    if filter_cfg is None:
        filter_cfg = ekf.default_filter_config(log.fs)
    if stance_cfg is None:
        stance_cfg = zupt.default_stance_config(log.fs)
    n = log.t.size
    f_b = calibration.apply_accel_calibration(accel_cal, np.asarray(log.accel, dtype=float))
    w_b = calibration.apply_gyro_calibration(gyro_cal, np.asarray(log.gyro, dtype=float))
    k_init = min(n, max(int(round(log.fs)), 1))
    x, p_mat = ekf.init_state(np.zeros(3), 0.0, f_b[:k_init], w_b[:k_init],
                              filter_cfg, log.fs)
    scores, active, _ = zupt.stance_schedule(f_b, w_b, stance_cfg)

    p_out = np.empty((n, 3))
    q_out = np.empty((n, 4))
    latched_xy = None
    for k in range(n):
        stage = "predict"
        try:
            x, p_mat = checked(*predict(x, p_mat, filter_cfg,
                                        filter_cfg.effective_q_diag()))
            stage = "imu"
            x, p_mat = checked(*imu_update(
                x, p_mat, np.concatenate([f_b[k], w_b[k]]), filter_cfg.r_diag))
            if active[k]:
                stage = "stance"
                if latched_xy is None:
                    latched_xy = x[POS][:2].copy()
                linearize = build_pseudo_measurements(
                    latched_xy, f_b[k], w_b[k], stance_cfg, g=filter_cfg.g)
                score = scores[k] if stance_cfg.mode == "soft" else 1.0
                x, p_mat = checked(*stance_update(
                    x, p_mat, linearize, soft_covariance(stance_cfg, score)))
            else:
                latched_xy = None
        except (ekf.FilterDivergenceError, np.linalg.LinAlgError, ValueError) as exc:
            partial = tracker.Trajectory(t=log.t[:k], p=p_out[:k], q_nb=q_out[:k],
                                         sfs=scores[:k], stance=active[:k])
            diag = tracker.TrackerDiagnostic(
                sample_index=k,
                covariance_condition=tracker._condition_number(p_mat),
                message=str(exc), stage=stage)
            raise tracker.TrackerDivergence(partial, diag) from exc
        p_out[k] = x[POS]
        q_out[k] = x[QUAT]
    return tracker.Trajectory(t=log.t, p=p_out, q_nb=q_out, sfs=scores, stance=active)


def loop_checkpoint_errors(traj, checkpoints):
    """`pdrnav.tracker.checkpoint_errors` one checkpoint at a time: each
    time's bracketing samples found by its own search, the nearest
    taken by ``min``, which keeps the earlier sample on a tie."""
    if traj.t.size == 0:
        raise ValueError("empty trajectory")
    times = np.array([tc for tc, _ in checkpoints], dtype=float)
    outside = (times < traj.t[0]) | (times > traj.t[-1])
    if np.any(outside):
        bad = times[outside].tolist()
        raise ValueError(f"checkpoints outside trajectory span: {bad}")
    errors = []
    for tc, p_true in checkpoints:
        right = int(np.searchsorted(traj.t, tc))
        candidates = [j for j in (right - 1, right) if 0 <= j < traj.t.size]
        nearest = min(candidates, key=lambda j: abs(traj.t[j] - tc))
        errors.append(float(np.linalg.norm(
            traj.p[nearest] - np.asarray(p_true, dtype=float))))
    return errors
