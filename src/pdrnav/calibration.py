"""IMU calibration from still captures.

Sensor error model, identical for both triads::

    measured = gain @ true + bias + noise        (counts)

The accelerometer gain and bias are fitted from P still orientations
using only the fact that the true specific force has magnitude g in all
of them: the per-orientation mean measurements must lie on the ellipsoid
``{gain @ a + bias : |a| = g}``.  The fit minimizes the sum of squared
point-to-ellipsoid distances by damped Gauss-Newton started from an
algebraic quadric fit.  Each evaluation projects all P means onto the
ellipsoid at once: the Lagrange secular equation is solved for every
mean in one vectorized, bracketed Newton pass.  The Jacobian needs no
further evaluations: by the envelope theorem the closest point
``a*`` stays put to first order, so a distance moves with the bias
along the unit error ``e / r`` and with gain entry (i, j) by
``e_i a*_j / r``.

A magnitude-only fit cannot see a rotation applied to the sensor triad
(``gain @ rot`` fits any data ``gain`` fits), so the gain is constrained
lower-triangular with a positive diagonal.  ``canonical_gain`` maps an
arbitrary gain to that representative for comparisons.

Gyroscope calibration is a datasheet pass-through: the gain is the ADC
scale factor, the coarse bias is left at zero and the residual is
estimated online by the tracking filter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .constants import GRAVITY

__all__ = [
    "CalibrationError",
    "SensorCalibration",
    "OrientationBatch",
    "batch_means",
    "fit_accel_calibration",
    "apply_accel_calibration",
    "apply_gyro_calibration",
    "canonical_gain",
    "spread_directions",
]

# Minimum number of still orientations that pins down the 9 free
# parameters (6 gain + 3 bias) of the magnitude-only model.
MIN_ORIENTATIONS = 9

# Fewest samples per still capture whose mean `batch_means` trusts.
MIN_STILL_SAMPLES = 50


class CalibrationError(ValueError):
    """Raised when calibration inputs are unusable or a fit fails.

    On fit non-convergence the last iterate is attached as ``gain``,
    ``bias`` and ``cost``.
    """

    def __init__(self, message: str, gain=None, bias=None, cost=None):
        super().__init__(message)
        self.gain = gain
        self.bias = bias
        self.cost = cost


@dataclass
class SensorCalibration:
    """Fitted sensor model: counts = gain @ physical + bias."""

    gain: NDArray[np.float64]
    bias: NDArray[np.float64]
    noise_sigma: float

    def __post_init__(self):
        self.gain = np.asarray(self.gain, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.gain.size != 9 or self.bias.size != 3:
            raise CalibrationError(
                "gain must be 9 numbers row-major and bias 3 numbers")
        self.gain = self.gain.reshape(3, 3)
        self.bias = self.bias.reshape(3)
        if not (np.all(np.isfinite(self.gain)) and np.all(np.isfinite(self.bias))):
            raise CalibrationError("calibration parameters must be finite")
        if abs(np.linalg.det(self.gain)) < 1e-12:
            raise CalibrationError("gain matrix is singular")
        if not self.noise_sigma > 0:
            raise CalibrationError("noise_sigma must be positive")


@dataclass
class OrientationBatch:
    """Per-orientation mean measurements from P still captures."""

    means: NDArray[np.float64]          # (P, 3), counts
    samples_per_orientation: int
    noise_counts: float | None = None   # pooled per-axis std, counts

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=float)
        if self.means.ndim != 2 or self.means.shape[1] != 3:
            raise CalibrationError("means must have shape (P, 3)")


@dataclass
class FitInfo:
    cost_history: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False


def batch_means(
    stills: list[tuple[NDArray[np.float64], NDArray[np.float64]]],
    *,
    lsb_gyro: float,
    still_gyro_limit: float = 0.05,
    min_samples: int = MIN_STILL_SAMPLES,
) -> OrientationBatch:
    """Average still accelerometer captures into an OrientationBatch.

    Parameters
    ----------
    stills : list of (accel, gyro) pairs
        One entry per orientation; raw counts of shape (n, 3) each.
    lsb_gyro : float
        Gyroscope scale, rad/s per count, used for the stillness check.
    still_gyro_limit : float
        A segment whose median gyro magnitude exceeds this (rad/s) was
        moving and is rejected.
    min_samples : int
        Minimum samples per segment for the mean to be trusted.
    """
    means = []
    stds = []
    n_min = None
    for idx, (accel, gyro) in enumerate(stills):
        accel = np.asarray(accel, dtype=float)
        gyro = np.asarray(gyro, dtype=float)
        if accel.ndim != 2 or accel.shape[1] != 3 or accel.shape != gyro.shape:
            raise CalibrationError(f"segment {idx}: expected matching (n, 3) arrays")
        n = accel.shape[0]
        if n < min_samples:
            raise CalibrationError(
                f"segment {idx}: {n} samples, need at least {min_samples}"
            )
        rate = np.median(np.linalg.norm(gyro * lsb_gyro, axis=1))
        if rate > still_gyro_limit:
            raise CalibrationError(
                f"segment {idx}: median angular rate {rate:.3g} rad/s "
                f"exceeds still limit {still_gyro_limit:g}"
            )
        means.append(accel.mean(axis=0))
        stds.append(accel.std(axis=0, ddof=1).mean())
        n_min = n if n_min is None else min(n_min, n)
    if not means:
        raise CalibrationError("no still segments given")
    return OrientationBatch(
        means=np.array(means),
        samples_per_orientation=int(n_min),
        noise_counts=float(np.mean(stds)),
    )


_TRIL_ROWS, _TRIL_COLS = np.tril_indices(3)

# The secular solve stops once a Newton step moves the multiplier by
# less than this fraction of itself.
_SECULAR_RTOL = 1e-12
_SECULAR_MAX_ITER = 100


def _project(gain: NDArray, bias: NDArray, means: NDArray, g: float):
    """Closest points of the model ellipsoid to P means, all at once.

    With ``gain = u diag(s) vt`` and ``z = u' (mean - bias)``, the
    closest point ``gain a* + bias`` (``|a*| = g``) has sphere
    coordinates ``vt a* = s q`` where ``q = z / (s^2 - lam)`` and ``lam``
    is the Lagrange multiplier.  Writing ``lam = min(s^2) - mu``,
    ``mu`` is the root of the monotone, convex secular function
    ``h(mu) = |s z / (s^2 - min(s^2) + mu)|^2 - g^2`` inside the bracket
    ``[mu_lo, mu_hi]``; it is found for every mean together by Newton's
    method on ``1 / sqrt(h + g^2)``, which is concave and close to
    linear, so the iterates rise monotonically from ``mu_lo`` and are
    clipped to the bracket (More and Sorensen, 1983).

    Means with no weight on the smallest-singular-value directions (the
    symmetry axis of a spheroid, the centre) whose other directions
    cannot reach the sphere have ``lam = min(s^2)``; the tied directions
    take up the slack in the sphere constraint.

    Returns ``u``, ``s``, ``vt``, ``lam`` (P,) and ``q`` (3, P).  The error
    ``gain a* + bias - mean`` is ``u (lam q)``, so the squared distance
    is ``lam^2 |q|^2``, and ``u q`` is the outward normal at ``a*``.
    """
    u, s, vt = np.linalg.svd(gain)
    z = u.T @ (means - bias).T
    d = s * s
    d_min = float(d.min())
    delta = (d - d_min)[:, None]
    c2 = (s[:, None] * z) ** 2
    g2 = g * g
    # Directions whose singular value ties the smallest one; their
    # weight decides whether the secular function has a pole at mu = 0.
    tied = d - d_min <= 1e-12 * max(d_min, 1e-300)
    rest = ~tied
    cm2 = c2[tied].sum(axis=0)
    big = (c2[rest] / delta[rest] ** 2).sum(axis=0)
    norm_c = np.sqrt(c2.sum(axis=0))

    on_axis = cm2 <= 1e-28 * norm_c**2
    slack = on_axis & (big <= g2)
    lam = np.full(z.shape[1], d_min)
    q = np.empty_like(z)

    solve = ~slack
    if solve.any():
        cs2 = c2[:, solve]
        mu_hi = norm_c[solve] / g
        mu = np.where(on_axis[solve], 1e-18 * max(d_min, 1.0),
                      np.sqrt(cm2[solve]) / g)
        for _ in range(_SECULAR_MAX_ITER):
            den = delta + mu
            t = cs2 / den**2
            n2 = t.sum(axis=0)
            # Newton step on 1/sqrt(n2) - 1/g; n2 = h + g^2.
            step = n2 * (np.sqrt(n2) / g - 1.0) / (t / den).sum(axis=0)
            new = np.minimum(np.maximum(mu + step, mu), mu_hi)
            done = np.all(new - mu <= _SECULAR_RTOL * new)
            mu = new
            if done:
                break
        lam[solve] = d_min - mu
        q[:, solve] = z[:, solve] / (d[:, None] - lam[solve])

    if slack.any():
        zs = z[:, slack]
        qs = np.zeros_like(zs)
        qs[rest] = zs[rest] / delta[rest]
        # The tied directions carry what is left of the sphere radius,
        # along the mean's own tied component (the first tied axis at
        # the centre).
        zt = zs[tied]
        zt_norm = np.sqrt((zt * zt).sum(axis=0))
        direction = np.zeros_like(zt)
        direction[0] = 1.0
        off = zt_norm > 0.0
        direction[:, off] = zt[:, off] / zt_norm[off]
        qs[tied] = direction * np.sqrt(np.maximum(g2 - big[slack], 0.0) / d_min)
        q[:, slack] = qs
    return u, s, vt, lam, q


def _sphere_residuals(
    gain: NDArray, bias: NDArray, means: NDArray, g: float
) -> NDArray[np.float64]:
    """Squared distances of each mean to the model ellipsoid, (P,)."""
    _, _, _, lam, q = _project(gain, bias, means, g)
    return lam * lam * (q * q).sum(axis=0)


def _distances_and_jacobian(
    gain: NDArray, bias: NDArray, means: NDArray, g: float
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Distances ``r`` (P,) of each mean to the model ellipsoid and their
    derivative (P, 9) by the lower-triangular gain and the bias.

    By the envelope theorem the closest point ``a*`` stays put to first
    order, so with ``e = gain a* + bias - mean``: ``dr/db = e / r`` and
    ``dr/dgain_ij = e_i a*_j / r``.  ``e / r`` is the unit normal at
    ``a*``, outward for means inside (``lam > 0``) and inward for means
    outside; at a zero distance the outward normal is taken.
    """
    u, s, vt, lam, q = _project(gain, bias, means, g)
    q_norm = np.sqrt((q * q).sum(axis=0))
    dist = np.abs(lam) * q_norm
    unit = (u @ (q * (np.where(lam < 0.0, -1.0, 1.0) / q_norm))).T
    a_star = (vt.T @ (s[:, None] * q)).T
    jac = np.empty((means.shape[0], 9))
    jac[:, :6] = unit[:, _TRIL_ROWS] * a_star[:, _TRIL_COLS]
    jac[:, 6:] = unit
    return dist, jac


def _theta_to_gain_bias(theta: NDArray) -> tuple[NDArray, NDArray]:
    gain = np.zeros((3, 3))
    gain[_TRIL_ROWS, _TRIL_COLS] = theta[:6]
    return gain, theta[6:9].copy()


def _algebraic_init(means: NDArray, g: float) -> NDArray:
    """Starting point from the linear quadric fit of the means.

    Fits m'Am - 2c'm + d = 0 in the least-squares sense, recovers the
    center b = inv(A) c and rescales A so the quadric value at the means
    is g^2.  Falls back to a centered sphere when the quadric is not an
    ellipsoid (flat or noisy data).
    """
    m = means
    cols = [
        m[:, 0] ** 2, m[:, 1] ** 2, m[:, 2] ** 2,
        2 * m[:, 0] * m[:, 1], 2 * m[:, 0] * m[:, 2], 2 * m[:, 1] * m[:, 2],
        -2 * m[:, 0], -2 * m[:, 1], -2 * m[:, 2],
        np.ones(len(m)),
    ]
    design = np.column_stack(cols)
    # Scale columns for conditioning; the null vector is rescaled back.
    scale = np.linalg.norm(design, axis=0)
    scale[scale == 0] = 1.0
    _, _, vt = np.linalg.svd(design / scale, full_matrices=False)
    u = vt[-1] / scale
    a_mat = np.array(
        [
            [u[0], u[3], u[4]],
            [u[3], u[1], u[5]],
            [u[4], u[5], u[2]],
        ]
    )
    if np.trace(a_mat) < 0:
        u = -u
        a_mat = -a_mat
    try:
        eigvals = np.linalg.eigvalsh(a_mat)
        if eigvals[0] <= 0:
            raise np.linalg.LinAlgError
        center = np.linalg.solve(a_mat, u[6:9])
        k = float(center @ a_mat @ center - u[9])
        if k <= 0:
            raise np.linalg.LinAlgError
        gg_t = np.linalg.inv(a_mat * (g * g / k))
        gain0 = np.linalg.cholesky(gg_t)
    except np.linalg.LinAlgError:
        center = m.mean(axis=0)
        radius = float(np.mean(np.linalg.norm(m - center, axis=1)))
        gain0 = np.eye(3) * max(radius, 1e-9) / g
    theta = np.empty(9)
    theta[:6] = gain0[_TRIL_ROWS, _TRIL_COLS]
    theta[6:9] = center
    return theta


def fit_accel_calibration(
    batch: OrientationBatch,
    g: float = GRAVITY,
    *,
    max_iter: int = 500,
    cost_rtol: float = 1e-12,
    return_info: bool = False,
):
    """Fit accelerometer gain and bias from still-orientation means.

    Minimizes the sum over orientations of the exact squared distance
    between the mean measurement and the gravity ellipsoid of the model.
    Gauss-Newton with step-halving; each trial step must keep the gain
    diagonal positive and reduce the cost.

    Parameters
    ----------
    batch : OrientationBatch
        At least 9 orientation means, reasonably spread.
    g : float
        Gravity magnitude the true specific force is assumed to have.
    return_info : bool
        Also return a FitInfo with the accepted cost history.

    Returns
    -------
    SensorCalibration, or (SensorCalibration, FitInfo)

    Raises
    ------
    CalibrationError
        Fewer than 9 orientations, or the iteration budget is exhausted
        while the cost is still moving; the error carries the last
        iterate and its cost.
    """
    means = batch.means
    n_orient = means.shape[0]
    if n_orient < MIN_ORIENTATIONS:
        raise CalibrationError(
            f"{n_orient} orientations cannot identify 9 parameters; "
            f"need at least {MIN_ORIENTATIONS}"
        )

    def evaluate(theta: NDArray):
        gain, bias = _theta_to_gain_bias(theta)
        if np.any(np.diag(gain) <= 0):
            return None, None
        return _distances_and_jacobian(gain, bias, means, g)

    theta = _algebraic_init(means, g)
    res, jac = evaluate(theta)
    if res is None:  # fallback init is always positive-diagonal; be safe
        theta[[0, 2, 5]] = np.abs(theta[[0, 2, 5]]) + 1e-9
        res, jac = evaluate(theta)
    cost = float(res @ res)
    info = FitInfo(cost_history=[cost])

    converged = False
    for it in range(max_iter):
        if cost <= 1e-30:
            converged = True
            break
        step, *_ = np.linalg.lstsq(jac, -res, rcond=None)

        new_theta, new_cost = None, cost
        alpha = 1.0
        for _ in range(40):
            trial = theta + alpha * step
            trial_res, trial_jac = evaluate(trial)
            if trial_res is not None:
                trial_cost = float(trial_res @ trial_res)
                if trial_cost < cost:
                    new_theta, new_cost = trial, trial_cost
                    break
            alpha *= 0.5
        if new_theta is None:
            # No descent along the Gauss-Newton direction at any damping:
            # numerically at a minimum.
            converged = True
            break
        theta, res, jac = new_theta, trial_res, trial_jac
        info.cost_history.append(new_cost)
        info.iterations = it + 1
        if abs(cost - new_cost) <= cost_rtol * max(new_cost, 1e-300):
            cost = new_cost
            converged = True
            break
        cost = new_cost

    info.converged = converged
    gain, bias = _theta_to_gain_bias(theta)
    if not converged:
        raise CalibrationError(
            f"calibration fit did not converge in {max_iter} iterations "
            f"(cost {cost:.6g})",
            gain=gain,
            bias=bias,
            cost=cost,
        )

    if batch.noise_counts is not None:
        # Physical-unit noise: counts through the inverse gain, RMS axis.
        sigma = batch.noise_counts * float(
            np.sqrt(np.trace(np.linalg.inv(gain @ gain.T)) / 3.0)
        )
    else:
        # Coarse: residual distance of the means, scaled back to one
        # sample and through the gain.
        rms = float(np.sqrt(cost / n_orient))
        sigma = (
            rms
            * np.sqrt(batch.samples_per_orientation)
            * float(np.sqrt(np.trace(np.linalg.inv(gain @ gain.T)) / 3.0))
        )
    cal = SensorCalibration(gain=gain, bias=bias, noise_sigma=max(sigma, 1e-12))
    return (cal, info) if return_info else cal


def apply_accel_calibration(
    cal: SensorCalibration, raw: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Invert the sensor model: physical = inv(gain) @ (raw - bias).

    ``raw`` is one sample of shape (3,) or a batch (n, 3).
    """
    raw = np.asarray(raw, dtype=float)
    single = raw.ndim == 1
    out = np.linalg.solve(cal.gain, (np.atleast_2d(raw) - cal.bias).T).T
    return out[0] if single else out


def apply_gyro_calibration(
    cal: SensorCalibration, raw: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Invert the gyroscope model; same contract as the accelerometer."""
    return apply_accel_calibration(cal, raw)


def canonical_gain(gain: NDArray[np.float64]) -> NDArray[np.float64]:
    """Lower-triangular positive-diagonal representative of a gain.

    Magnitude-only data determines the gain up to a right rotation; the
    Cholesky factor of gain @ gain' is the representative this module's
    fit produces, so comparisons against a full gain go through here.
    """
    gain = np.asarray(gain, dtype=float)
    return np.linalg.cholesky(gain @ gain.T)


def spread_directions(n: int) -> NDArray[np.float64]:
    """n unit vectors spread over the sphere (golden spiral); (n, 3).

    Useful for planning which orientations to capture.
    """
    i = np.arange(n) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / n)
    theta = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.column_stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)]
    )
