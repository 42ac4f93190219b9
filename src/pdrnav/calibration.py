"""IMU calibration from still captures.

Sensor error model, identical for both triads::

    measured = gain @ true + bias + noise        (counts)

The accelerometer gain and bias are fitted from P still orientations
using only the fact that the true specific force has magnitude g in all
of them.  Each orientation mean ``m`` maps back to the specific force
``a = inv(gain) (m - bias)``, and the fit minimizes the sum of squared
radial residuals ``|a| - g`` (m/s^2) by damped Gauss-Newton started
from an algebraic quadric fit; the residuals and their Jacobian are
closed form (Tedaldi, Pretto and Menegatti, ICRA 2014; Frosio,
Pedersini and Borghese, IEEE TIM 2009).  Orientations that do not spread
enough to identify the nine parameters, such as captures turned about
one axis only, are refused before the fit starts.

A magnitude-only fit cannot see a rotation applied to the sensor triad
(``gain @ rot`` fits any data ``gain`` fits), so the gain is constrained
lower-triangular with a positive diagonal.  ``canonical_gain`` maps an
arbitrary gain to that representative for comparisons.

The gyroscope keeps its datasheet gain, the ADC scale factor.  A still
gyro reads its bias: `batch_means` gives the gyro's mean count over
every still sample and its noise in counts beside the accelerometer's
statistics, ``pdrnav calibrate`` writes them as the gyro bias and
noise, and the tracking filter estimates the residual bias online.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

from ._fields import check_fields
from .constants import GRAVITY, STILL_RATE_LIMIT

if TYPE_CHECKING:
    from .tracker import ImuLog

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

# The fit has converged when a step moves the cost by at most this share
# and either fails to lower it or is at most `_STEP_RTOL` of the
# parameters.  A cost tie alone stops a step short: the Gauss-Newton
# step that removes the last of the gradient (2.7e-12 of the parameters
# on the stationarity test's captures) lowers the cost by far less than
# 1e-12 of itself.
_COST_RTOL = 1e-12
_STEP_RTOL = 1e-10

# Gauss-Newton iterations the fit may take before it gives up.
_MAX_ITER = 500

# Least spread of the orientations that identifies the model; see
# `_algebraic_init`.
_MIN_SPREAD = 0.02


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
    """Fitted sensor model: counts = gain @ physical + bias.

    ``noise_sigma`` is the white-noise standard deviation of one
    calibrated sample in physical units: m/s^2 for an accelerometer,
    rad/s for a gyroscope.
    """

    gain: NDArray[np.float64]
    bias: NDArray[np.float64]
    noise_sigma: float

    def __post_init__(self):
        check_fields(self)
        if self.gain.size != 9 or self.bias.size != 3:
            raise CalibrationError(
                "gain must be 9 numbers row-major and bias 3 numbers")
        self.gain = self.gain.reshape(3, 3)
        self.bias = self.bias.reshape(3)
        if abs(np.linalg.det(self.gain)) < 1e-12:
            raise CalibrationError("gain matrix is singular")
        if not self.noise_sigma > 0:
            raise CalibrationError("noise_sigma must be positive")


@dataclass
class OrientationBatch:
    """Per-orientation statistics from P still captures, in counts.

    ``noise_counts`` is the mean over captures of each capture's mean
    per-axis sample standard deviation (ddof=1); ``gyro_noise_counts``
    is the same figure for the gyro.  ``gyro_bias`` is the gyro's mean
    count over every sample of every capture.
    """

    means: NDArray[np.float64]          # (P, 3), counts
    samples_per_orientation: int
    noise_counts: float | None = None
    gyro_bias: NDArray[np.float64] | None = None
    gyro_noise_counts: float | None = None

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=float)
        if self.means.ndim != 2 or self.means.shape[1] != 3:
            raise CalibrationError("means must have shape (P, 3)")
        if not np.isfinite(self.means).all():
            raise CalibrationError("means must be finite")
        n = self.samples_per_orientation
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise CalibrationError(
                f"samples_per_orientation must be a whole number of at "
                f"least 1, got {n!r}")
        for name in ("noise_counts", "gyro_noise_counts"):
            value = getattr(self, name)
            if value is not None and not (value > 0 and np.isfinite(value)):
                raise CalibrationError(
                    f"{name} must be positive and finite, got {value!r}")
        if self.gyro_bias is not None:
            self.gyro_bias = np.asarray(self.gyro_bias, dtype=float)
            if (self.gyro_bias.shape != (3,)
                    or not np.isfinite(self.gyro_bias).all()):
                raise CalibrationError(f"gyro_bias must be 3 finite numbers, "
                                       f"got {self.gyro_bias!r}")


# Rows of a capture that one block of `_squared_deviations` holds: six
# float64 columns of 16,384 rows are 786 KB.
_BLOCK_ROWS = 1 << 14


def _median_rate(gyro: NDArray, lsb_gyro: float) -> float:
    """``np.median(np.linalg.norm(gyro * lsb_gyro, axis=1))`` to the bit
    in float64: the squares summed x, y, z a column at a time into one
    buffer, which is then partitioned in place."""
    rate = np.zeros(gyro.shape[0])
    w = np.empty_like(rate)
    for axis in range(3):
        np.multiply(gyro[:, axis], lsb_gyro, out=w, dtype=float)
        rate += np.multiply(w, w, out=w)
    np.sqrt(rate, out=rate)
    k = rate.size // 2
    if rate.size % 2:
        rate.partition(k)
        return float(rate[k])
    rate.partition((k - 1, k))
    return float((rate[k - 1] + rate[k]) / 2)


def _squared_deviations(log: ImuLog, means: NDArray) -> NDArray:
    """The squared deviations of the log's accel and gyro counts from
    ``means`` (6,) summed down each column, (6,).  Each block holds up to
    `_BLOCK_ROWS` rows below the running sum in row 0, so the sum runs
    row after row as numpy's axis-0 sum does, to the bit."""
    n = log.accel.shape[0]
    buf = np.empty((min(n, _BLOCK_ROWS) + 1, 6))
    squares = np.zeros(6)
    for lo in range(0, n, _BLOCK_ROWS):
        block = buf[:min(n - lo, _BLOCK_ROWS) + 1]
        dev = block[1:]
        dev[:, :3] = log.accel[lo:lo + _BLOCK_ROWS]
        dev[:, 3:] = log.gyro[lo:lo + _BLOCK_ROWS]
        np.subtract(dev, means, out=dev)
        np.multiply(dev, dev, out=dev)
        block[0] = squares
        squares = np.add.reduce(block, axis=0)
    return squares


def batch_means(logs: dict[str, ImuLog]) -> OrientationBatch:
    """Both sensors' still statistics, one capture at a time.

    ``logs`` holds one still capture per orientation, keyed by its name
    (its file name), which prefixes any error.  `ImuLog` has checked the
    counts; each capture is checked in the dict's order, before any
    statistic is taken, for scales equal to the first capture's (the
    fit runs in counts), at least ``MIN_STILL_SAMPLES`` samples, and a
    median angular rate at most ``constants.STILL_RATE_LIMIT`` (rad/s).
    The first problem found is raised as a CalibrationError, and so is
    a sensor whose counts never change in any capture, named by the
    first capture.

    Every figure has the bits of the per-capture numpy forms (``mean``,
    ``std(ddof=1)``, and the gyro's ``mean`` over the captures'
    concatenation): sums of whole counts are exact in any order.
    """
    if not logs:
        raise CalibrationError("no still segments given")
    first_name, first = next(iter(logs.items()))
    for name, log in logs.items():
        for sensor, lsb, want in (("accel", log.lsb_accel, first.lsb_accel),
                                  ("gyro", log.lsb_gyro, first.lsb_gyro)):
            if lsb != want:
                raise CalibrationError(
                    f"{name}: {sensor} scale {lsb:g} differs from "
                    f"{first_name}'s {want:g}; captures must share one sensor")
        if len(log.t) < MIN_STILL_SAMPLES:
            raise CalibrationError(f"{name}: {len(log.t)} samples, need at "
                                   f"least {MIN_STILL_SAMPLES}")
        rate = _median_rate(log.gyro, log.lsb_gyro)
        if rate > STILL_RATE_LIMIT:
            raise CalibrationError(
                f"{name}: median angular rate {rate:.3g} rad/s exceeds "
                f"still limit {STILL_RATE_LIMIT:g}")

    n = np.array([len(log.t) for log in logs.values()])
    sums = np.array([np.r_[log.accel.sum(axis=0), log.gyro.sum(axis=0)]
                     for log in logs.values()], dtype=float)
    means = sums / n[:, None]
    squares = np.array([_squared_deviations(log, m)
                        for log, m in zip(logs.values(), means)])
    # Each capture's mean per-axis std, accel then gyro: (P, 2).
    noise = np.sqrt(squares / (n - 1)[:, None]).reshape(-1, 2, 3).mean(axis=2)
    for sensor, column in (("accel", 0), ("gyro", 1)):
        if not noise[:, column].any():
            raise CalibrationError(
                f"{first_name}: {sensor} counts never change in this or "
                f"any other capture; a still capture must show its noise")
    return OrientationBatch(
        means=np.ascontiguousarray(means[:, :3]),
        samples_per_orientation=int(n.min()),
        noise_counts=float(np.mean(noise[:, 0])),
        gyro_bias=sums[:, 3:].sum(axis=0) / n.sum(),
        gyro_noise_counts=float(np.mean(noise[:, 1])),
    )


_TRIL_ROWS, _TRIL_COLS = np.tril_indices(3)


def _residuals_and_jacobian(
    gain: NDArray, bias: NDArray, means: NDArray, g: float
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Radial residuals ``r = |a| - g`` (P,) of ``a = inv(gain) (mean -
    bias)`` and their derivative (P, 9) by the lower-triangular gain and
    the bias.

    With ``u = a / |a|`` and ``w = inv(gain)' u``: ``dr/db = -w`` and
    ``dr/dgain_ij = -w_i a_j``.
    """
    inv = np.linalg.inv(gain)
    a = (means - bias) @ inv.T
    norm = np.sqrt((a * a).sum(axis=1))
    w = (a / norm[:, None]) @ inv
    jac = np.empty((means.shape[0], 9))
    jac[:, :6] = -w[:, _TRIL_ROWS] * a[:, _TRIL_COLS]
    jac[:, 6:] = -w
    return norm - g, jac


def _theta_to_gain_bias(theta: NDArray) -> tuple[NDArray, NDArray]:
    gain = np.zeros((3, 3))
    gain[_TRIL_ROWS, _TRIL_COLS] = theta[:6]
    return gain, theta[6:9].copy()


def _algebraic_init(means: NDArray, g: float) -> NDArray:
    """Starting point from the linear quadric fit of the means.

    Fits x'Ax - 2c'x + d = 0 in the least-squares sense to the means
    scaled by their RMS norm, ``x = m / rho``, recovers the center
    ``inv(A) c`` and rescales A so the quadric value at the means is g^2;
    the gain and center found for ``x`` are scaled back by ``rho``.  Falls
    back to a centered sphere when the quadric is not an ellipsoid (flat
    or noisy data).  Either way the gain diagonal is positive for a
    positive, finite g.

    For a bias small against the gravity radius the scaled means lie near
    the unit sphere, where the design's 9th singular value measures how
    well the orientations pin the nine parameters: CalibrationError when
    it is below ``_MIN_SPREAD`` of the largest.  Scaling each column to
    unit norm instead would blow the noise of a coordinate that stays
    near zero (captures turned about that axis) up into a spread.
    """
    rho = float(np.sqrt(np.mean(np.sum(means * means, axis=1)))) or 1.0
    x = means / rho
    design = np.column_stack([
        x[:, 0] ** 2, x[:, 1] ** 2, x[:, 2] ** 2,
        2 * x[:, 0] * x[:, 1], 2 * x[:, 0] * x[:, 2], 2 * x[:, 1] * x[:, 2],
        -2 * x[:, 0], -2 * x[:, 1], -2 * x[:, 2],
        np.ones(len(x)),
    ])
    _, sv, vt = np.linalg.svd(design, full_matrices=False)
    spread = sv[8] / sv[0]
    if not spread >= _MIN_SPREAD:
        raise CalibrationError(
            f"the {len(x)} still orientations do not spread enough to "
            f"identify the model (singular value ratio {spread:.3g}, need "
            f"at least {_MIN_SPREAD:g}); capture the board resting on each "
            f"of its six faces and on edges or corners between them, not "
            f"turned about one axis")
    u = vt[-1]
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
        center = x.mean(axis=0)
        radius = float(np.mean(np.linalg.norm(x - center, axis=1)))
        gain0 = np.eye(3) * max(radius, 1e-9) / g
    theta = np.empty(9)
    theta[:6] = rho * gain0[_TRIL_ROWS, _TRIL_COLS]
    theta[6:9] = rho * center
    return theta


def fit_accel_calibration(
    batch: OrientationBatch,
    g: float = GRAVITY,
) -> SensorCalibration:
    """Fit accelerometer gain and bias from still-orientation means.

    Minimizes the sum over orientations of the squared radial residual
    ``|inv(gain) (mean - bias)| - g``, in m/s^2.  Gauss-Newton with
    step-halving; each trial step must keep the gain diagonal positive
    and reduce the cost.  A trial that ties the current cost to
    ``_COST_RTOL`` ends the fit as converged, once it lowers the cost by
    a step of at most ``_STEP_RTOL`` of the parameters or does not lower
    it at all.

    Parameters
    ----------
    batch : OrientationBatch
        At least 9 orientation means, spread over the sphere.
    g : float
        Gravity magnitude the true specific force is assumed to have.

    Returns
    -------
    SensorCalibration
        Its ``noise_sigma`` is in m/s^2: the batch's ``noise_counts``
        through the fitted gain when the batch has one, else the fit's
        residual scaled back to one sample.

    Raises
    ------
    CalibrationError
        Fewer than 9 orientations, g not positive and finite, orientations
        that do not spread enough to identify the model (see
        ``_algebraic_init``), or the ``_MAX_ITER`` iterations spent while
        the cost is still moving; the error carries the last iterate and
        its cost.
    """
    means = batch.means
    n_orient = means.shape[0]
    if n_orient < MIN_ORIENTATIONS:
        raise CalibrationError(
            f"{n_orient} orientations cannot identify 9 parameters; "
            f"need at least {MIN_ORIENTATIONS}"
        )
    if not (g > 0 and np.isfinite(g)):
        raise CalibrationError(f"g must be positive and finite, got {g!r}")

    def evaluate(theta: NDArray):
        gain, bias = _theta_to_gain_bias(theta)
        if np.any(np.diag(gain) <= 0):
            return None, None
        return _residuals_and_jacobian(gain, bias, means, g)

    theta = _algebraic_init(means, g)
    res, jac = evaluate(theta)
    cost = float(res @ res)

    converged = False
    for _ in range(_MAX_ITER):
        if cost <= 1e-30:
            converged = True
            break
        step, *_ = np.linalg.lstsq(jac, -res, rcond=None)

        alpha = 1.0
        for _ in range(40):
            trial = theta + alpha * step
            trial_res, trial_jac = evaluate(trial)
            if trial_res is not None:
                trial_cost = float(trial_res @ trial_res)
                tied = abs(trial_cost - cost) <= _COST_RTOL * max(cost, 1e-300)
                if tied or trial_cost < cost:
                    break
            alpha *= 0.5
        else:
            # No descent along the Gauss-Newton direction at any damping:
            # numerically at a minimum.
            converged = True
            break
        lowered = trial_cost < cost
        small = (np.linalg.norm(trial - theta)
                 <= _STEP_RTOL * np.linalg.norm(theta))
        if lowered:
            theta, res, jac, cost = trial, trial_res, trial_jac, trial_cost
        if tied and (small or not lowered):
            converged = True
            break

    gain, bias = _theta_to_gain_bias(theta)
    if not converged:
        raise CalibrationError(
            f"calibration fit did not converge in {_MAX_ITER} iterations "
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
        # Coarse: residual of the means, scaled back to one sample.
        sigma = float(np.sqrt(cost / n_orient * batch.samples_per_orientation))
    return SensorCalibration(gain=gain, bias=bias, noise_sigma=max(sigma, 1e-12))


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
