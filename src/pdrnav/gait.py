"""Synthetic pedestrian gait generator and inverse IMU model.

Produces analytically exact ground truth for a walker following a 2D
waypoint path: position, velocity, acceleration, orientation, angular
rate, and a stance mask, all sampled on a common clock.  The inverse IMU
model then maps that truth through a sensor calibration plus a noise
model to raw integer counts, closing the loop so the whole tracking
pipeline can be tested against known answers.

The foot trajectory alternates stance phases (foot planted, all
derivatives zero) with swing phases built from quintic smoothstep
interpolants, so position is C^2 everywhere and velocity and
acceleration are exact derivatives rather than finite differences.
Phase ``2k`` is always the stance on footfall ``k`` and phase ``2k + 1``
the swing from footfall ``k`` to ``k + 1``, so the walk is rendered in
whole-array passes: one over every sample, one over the swing samples.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import constants
from ._fields import check_fields
from .calibration import SensorCalibration
from .quat import quat_from_rpy, quat_rotate

__all__ = [
    "GaitParams",
    "GroundTruth",
    "NoiseParams",
    "generate_gait",
    "still_truth",
    "razor_noise",
    "inverse_imu",
    "scale_calibration",
]


@dataclass
class GaitParams:
    """Parameters of a synthetic walk along a 2D waypoint path.

    Parameters
    ----------
    step_length : float
        Nominal stride length in meters.  The path is divided into
        ``round(length / step_length)`` equal-arc steps, so the realized
        step length is the nearest value that tiles the path exactly.
    cadence : float
        Steps per second.  One full step cycle lasts ``1 / cadence``.
    path : array_like, shape (w, 2)
        Waypoints of the horizontal path, in order, at least two.
        Repeat the first waypoint at the end to close the loop.
    stance_duration : float
        Seconds the foot stays planted within each cycle.  Must be
        shorter than the cycle ``1 / cadence``.
    swing_peak_height : float
        Peak foot lift during swing, meters.
    lead_in, tail : float
        Extra standing time prepended and appended, seconds.  The filter
        needs a still stretch to level itself, so keep at least a second.
    seed : int
        Seeds the sensor noise when ``pdrnav simulate`` renders the
        walk; the trajectory itself is deterministic.
    """

    step_length: float
    cadence: float
    path: np.ndarray
    stance_duration: float = 0.15
    swing_peak_height: float = 0.05
    lead_in: float = 1.0
    tail: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.path.ndim != 2 or self.path.shape[1] != 2 or self.path.shape[0] < 2:
            raise ValueError("path must be an (n, 2) array with n >= 2")
        if self.step_length <= 0.0:
            raise ValueError("step_length must be positive")
        if self.cadence <= 0.0:
            raise ValueError("cadence must be positive")
        if not 0.0 < self.stance_duration < 1.0 / self.cadence:
            raise ValueError(
                "stance_duration must lie in (0, 1/cadence); got "
                f"{self.stance_duration} against cycle {1.0 / self.cadence}"
            )
        if self.swing_peak_height < 0.0:
            raise ValueError("swing_peak_height must be non-negative")
        if self.lead_in < 0.0 or self.tail < 0.0:
            raise ValueError("lead_in and tail must be non-negative")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        # A path too long for float64 has an infinite length here, which
        # the step count below refuses.
        with np.errstate(over="ignore"):
            seg_lengths = np.linalg.norm(np.diff(self.path, axis=0), axis=1)
            path_length = seg_lengths.sum()
            steps = path_length / self.step_length
        short = np.flatnonzero(seg_lengths < self.step_length)
        if short.size:
            raise ValueError(
                "waypoints closer than one step_length at segment(s) "
                f"{short.tolist()}; merge them or shorten the step"
            )
        # Past 2**52 steps neighbouring arcs come closer than float64
        # can tell apart along the path.
        if not steps < 2.0**52:
            raise ValueError(
                f"step_length ({self.step_length}) cuts the path length "
                f"({path_length} m) into {steps:.3g} steps, too many to "
                "place along it")


@dataclass
class GroundTruth:
    """Exact walker state sampled at a fixed rate.

    Attributes
    ----------
    t : ndarray, shape (n,)
        Sample times, seconds, starting at zero.
    p, v, a : ndarray, shape (n, 3)
        Position, velocity, acceleration in the navigation frame.
    q_nb : ndarray, shape (n, 4)
        Scalar-first unit quaternion rotating navigation vectors into
        the body frame.
    omega : ndarray, shape (n, 3)
        Body angular rate, rad/s.
    stance : ndarray of bool, shape (n,)
        True while the foot is planted.
    fs : float
        Sample rate, Hz.
    footfalls : ndarray, shape (k, 2)
        Horizontal foot placement points, including the start.
    path_length : float
        Arc length of the waypoint path, meters.
    """

    t: np.ndarray
    p: np.ndarray
    v: np.ndarray
    a: np.ndarray
    q_nb: np.ndarray
    omega: np.ndarray
    stance: np.ndarray
    fs: float
    footfalls: np.ndarray = field(default_factory=lambda: np.zeros((1, 2)))
    path_length: float = 0.0


def _arc_table(path: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment lengths and cumulative arc length of a polyline."""
    seg = np.diff(path, axis=0)
    lengths = np.linalg.norm(seg, axis=1)
    if np.any(lengths <= 0.0):
        raise ValueError("path repeats a waypoint consecutively")
    return lengths, np.concatenate(([0.0], np.cumsum(lengths)))


def _wrap_angle(d: np.ndarray) -> np.ndarray:
    """Wrap to [-pi, pi) so yaw interpolation takes the short way."""
    return (d + np.pi) % (2.0 * np.pi) - np.pi


# Quintic smoothstep and its derivatives w.r.t. normalized time s in [0, 1].
# Endpoints carry zero first and second derivatives, which is what makes the
# stitched trajectory C^2 across phase boundaries.
def _smoothstep(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    sigma = s**3 * (6.0 * s * s - 15.0 * s + 10.0)
    dsigma = 30.0 * s * s * (s - 1.0) ** 2
    d2sigma = 60.0 * s * (2.0 * s - 1.0) * (s - 1.0)
    return sigma, dsigma, d2sigma


# Symmetric C^2 bump, zero with zero slope and curvature at both ends,
# peaking at exactly 1 at s = 1/2.  Shapes the vertical foot lift.
def _bump(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    b = 64.0 * s**3 * (1.0 - s) ** 3
    db = 192.0 * s**2 * (1.0 - s) ** 2 * (1.0 - 2.0 * s)
    d2b = 384.0 * s * (1.0 - s) * ((1.0 - 2.0 * s) ** 2 - s * (1.0 - s))
    return b, db, d2b


class _PhaseTable(NamedTuple):
    """A walk's sample clock and its phases, in time order.

    Phase ``2k`` is the stance on ``footfalls[k]`` facing
    ``headings[k]``; phase ``2k + 1`` is the swing from footfall ``k`` to
    footfall ``k + 1``.  ``starts[j]`` is the start time of phase ``j``,
    and ``idx[i]`` the phase of sample ``i``; it never decreases.
    """

    t: np.ndarray
    idx: np.ndarray
    starts: np.ndarray
    headings: np.ndarray
    swing_t: float
    footfalls: np.ndarray
    path_length: float


def _phase_table(params: GaitParams, fs: float) -> _PhaseTable:
    """The sample clock and the phase schedule of a walk at ``fs``."""
    if not 50.0 <= fs < np.inf:
        raise ValueError(f"fs must be finite and at least 50 Hz, got {fs}")
    path = params.path
    lengths, cum = _arc_table(path)
    total_len = float(cum[-1])
    n_steps = max(int(round(total_len / params.step_length)), 1)
    arcs = np.linspace(0.0, total_len, n_steps + 1)
    # Footfalls at equal arcs.  Arcs at or past the ends take the stored
    # waypoints verbatim, so a closed path (first waypoint repeated
    # last) starts and ends on bit-identical footfalls.
    j = np.minimum(np.searchsorted(cum, arcs, side="right") - 1, lengths.size - 1)
    frac = (arcs - cum[j]) / lengths[j]
    footfalls = path[j] + frac[:, None] * (path[j + 1] - path[j])
    footfalls[arcs <= 0.0] = path[0]
    footfalls[arcs >= cum[-1]] = path[-1]

    # Each step faces along its chord; a zero chord holds the heading
    # before it (0 before the first move), and the last stance keeps the
    # last step's.
    chords = np.diff(footfalls, axis=0)
    moves = np.linalg.norm(chords, axis=1) > 1e-12
    held = np.maximum.accumulate(np.where(moves, np.arange(1, n_steps + 1), 0))
    headings = np.append(0.0, np.arctan2(chords[:, 1], chords[:, 0]))[
        np.append(held, held[-1])]

    # Phase start times, summed in time order.  The lead-in merges with
    # the first stance, the tail with the last.
    swing_t = 1.0 / params.cadence - params.stance_duration
    durations = np.full(2 * n_steps, params.stance_duration)
    durations[0] = params.lead_in + params.stance_duration
    durations[1::2] = swing_t
    starts = np.append(0.0, np.cumsum(durations))
    total_t = float(starts[-1]) + params.stance_duration + params.tail
    if not np.isfinite(total_t * fs):
        raise ValueError(
            f"lead_in ({params.lead_in}) and tail ({params.tail}) make the "
            f"walk {total_t} s long, too long to count its samples at {fs} Hz")

    n = int(round(total_t * fs)) + 1
    t = np.arange(n) / fs
    idx = np.searchsorted(starts, t, side="right") - 1
    return _PhaseTable(t, idx, starts, headings, swing_t, footfalls, total_len)


def generate_gait(params: GaitParams, fs: float = constants.DEFAULT_FS) -> GroundTruth:
    """Generate exact walker ground truth for a waypoint path.

    The path is split into equal-arc steps.  Each step cycle is a swing
    (quintic interpolation between consecutive footfalls, with a C^2
    vertical bump) followed by a planted stance.  Yaw turns toward the
    next chord during swing and holds during stance.  Still samples are
    assigned their constants directly, never through the interpolants,
    so during every stance the position is bitwise constant and the
    velocity is exactly zero.

    Parameters
    ----------
    params : GaitParams
        Walk description.
    fs : float
        Sample rate, Hz.  At least 50; below that a 0.15 s stance spans
        too few samples for anything downstream to see it.

    Returns
    -------
    GroundTruth
    """
    t, idx, starts, headings, swing_t, footfalls, path_length = _phase_table(
        params, fs)
    n = t.size
    p = np.zeros((n, 3))
    v = np.zeros((n, 3))
    a = np.zeros((n, 3))
    omega = np.zeros((n, 3))

    # Every sample starts on its phase's footfall and heading, which is
    # all a stance sample holds; a swing sample's are those it leaves.
    step = idx // 2
    p[:, :2] = footfalls[step]
    yaw = headings[step]
    stance = idx % 2 == 0

    # Then every swing sample, in one pass, moves off along its chord.
    sw = np.flatnonzero(~stance)
    step = step[sw]
    s = (t[sw] - starts[idx[sw]]) / swing_t
    sigma, dsigma, d2sigma = _smoothstep(s)
    b, db, d2b = _bump(s)
    chord = np.diff(footfalls, axis=0)[step]
    height = params.swing_peak_height
    p[sw, :2] += sigma[:, None] * chord
    p[sw, 2] = height * b
    v[sw, :2] = chord * dsigma[:, None] / swing_t
    v[sw, 2] = height * db / swing_t
    a[sw, :2] = chord * d2sigma[:, None] / swing_t**2
    a[sw, 2] = height * d2b / swing_t**2
    dpsi = _wrap_angle(np.diff(headings))[step]
    yaw[sw] += sigma * dpsi
    omega[sw, 2] = dpsi * dsigma / swing_t

    q_nb = quat_from_rpy(0.0, 0.0, yaw).T
    return GroundTruth(
        t=t, p=p, v=v, a=a, q_nb=q_nb, omega=omega, stance=stance, fs=fs,
        footfalls=footfalls, path_length=path_length,
    )


def still_truth(duration: float, fs: float = constants.DEFAULT_FS,
                yaw: float = 0.0) -> GroundTruth:
    """Ground truth for a sensor sitting still at the origin.

    Handy for calibration captures, Allan records, and drift checks.
    Only ``t`` is a real array: ``p``, ``v``, ``a``, ``q_nb``, ``omega``
    and ``stance`` are read-only broadcast views of one row each, so a
    million-sample record costs its time column alone.
    """
    if not (duration > 0.0 and np.isfinite(duration)):
        raise ValueError(f"duration must be positive and finite, got {duration}")
    if not (fs > 0.0 and np.isfinite(fs)):
        raise ValueError(f"fs must be positive and finite, got {fs}")
    if not np.isfinite(duration * fs):
        raise ValueError(f"duration {duration} s is too long to count its "
                         f"samples at {fs} Hz")
    n = int(round(duration * fs)) + 1
    q_nb = quat_from_rpy(0.0, 0.0, yaw)
    zeros = np.broadcast_to(0.0, (n, 3))
    return GroundTruth(
        t=np.arange(n) / fs, p=zeros, v=zeros,
        a=zeros, q_nb=np.broadcast_to(q_nb, (n, 4)), omega=zeros,
        stance=np.broadcast_to(True, (n,)), fs=fs,
        footfalls=np.zeros((1, 2)), path_length=0.0,
    )


@dataclass
class NoiseParams:
    """Per-axis IMU noise levels in physical units.

    ``accel_sigma`` and ``gyro_sigma`` are white-noise standard
    deviations per sample; ``accel_walk_sigma`` and ``gyro_walk_sigma``
    are the standard deviations of the per-sample bias random-walk
    increments.  Scalars broadcast to all three axes.
    """

    accel_sigma: np.ndarray
    gyro_sigma: np.ndarray
    accel_walk_sigma: np.ndarray
    gyro_walk_sigma: np.ndarray

    def __post_init__(self) -> None:
        check_fields(self)
        for name in (f.name for f in fields(self)):
            value = getattr(self, name)
            if value.shape not in ((), (1,), (3,)):
                raise ValueError(f"{name} must broadcast to shape (3,), got "
                                 f"shape {value.shape}")
            if np.any(value < 0.0):
                raise ValueError(f"{name} must be non-negative")
            setattr(self, name, value * np.ones(3))


def razor_noise(fs: float = constants.DEFAULT_FS) -> NoiseParams:
    """Noise levels of a consumer-grade Razor-class IMU at rate ``fs``.

    White sigma per sample is the random-walk density times sqrt(fs).
    The walk increment is sized so the bias wanders by about the
    datasheet instability over ``constants.BIAS_HORIZON``.
    """
    horizon = constants.BIAS_HORIZON * fs
    return NoiseParams(
        accel_sigma=constants.RAZOR_ACCEL_N * np.sqrt(fs),
        gyro_sigma=constants.RAZOR_GYRO_N * np.sqrt(fs),
        accel_walk_sigma=constants.RAZOR_ACCEL_B / np.sqrt(horizon),
        gyro_walk_sigma=constants.RAZOR_GYRO_B / np.sqrt(horizon),
    )


# Rows per block when `inverse_imu` rotates the specific force, draws
# the noise and maps to counts: those temporaries stay this size however
# long the record is.
_BLOCK_ROWS = 4096


def inverse_imu(truth: GroundTruth, accel_cal: SensorCalibration,
                gyro_cal: SensorCalibration, noise: NoiseParams,
                seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Render ground truth into raw IMU counts.

    The specific force in the body frame is the kinematic acceleration
    minus standard gravity, rotated by the attitude.  Noise (white plus bias
    random walk) is added in physical units, then the calibration maps
    physical quantities to counts:  counts = gain @ physical + bias.

    The noise streams are drawn from one generator in a fixed order
    (white accel, white gyro, accel walk, gyro walk), and each sum is
    grouped as ``(signal + white) + walk``.  The accel is the one
    full-length float array: it holds its signal and white noise while
    the white gyro stream is drawn past, and it is counted as its walk
    is added.  The gyro is then rendered block by block straight to
    counts.  Its first block of white noise is kept from that pass, and
    a second generator, set to the state saved after that block, draws
    the rest again, so a record of one block redraws nothing.  Memory
    peaks at the accel array, its int32 counts and a few blocks of rows:
    1.5 times one (n, 3) float array for a long record.  The rotation,
    the noise and the count mapping run in blocks of rows and give the
    bits of one batch.

    Parameters
    ----------
    truth : GroundTruth
    accel_cal, gyro_cal : SensorCalibration
        Forward sensor models.
    noise : NoiseParams
    seed : int
        Seeds the noise generator; the draw order is fixed, so equal
        seeds give bit-identical records.

    Returns
    -------
    (accel_counts, gyro_counts) : int32 ndarray, shape (n, 3) each
        Rounded to whole counts and clipped to the 16-bit ADC range.
    """
    n = truth.t.size
    g_vec = np.array([0.0, 0.0, -constants.GRAVITY])
    rng = np.random.default_rng(seed)
    physical_a = np.empty((n, 3))
    for lo in range(0, n, _BLOCK_ROWS):
        hi = lo + _BLOCK_ROWS
        physical_a[lo:hi] = quat_rotate(truth.q_nb[lo:hi].T,
                                        (truth.a[lo:hi] - g_vec).T).T
        physical_a[lo:hi] += _white(rng, min(_BLOCK_ROWS, n - lo),
                                    noise.accel_sigma)

    # Pass the white gyro stream, keeping its first block and the state
    # after it, then finish the accel with its walk.
    first = _white(rng, min(_BLOCK_ROWS, n), noise.gyro_sigma)
    state = rng.bit_generator.state
    _pass(rng, n - first.shape[0])

    counts_a = np.empty((n, 3), dtype=np.int32)
    accel_walk = _walk(rng, n, noise.accel_walk_sigma)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = lo + _BLOCK_ROWS
        physical_a[lo:hi] += next(accel_walk)
        counts_a[lo:hi] = _to_counts(physical_a[lo:hi], accel_cal)
    del physical_a

    # The main generator is now at the gyro walk; the white gyro blocks
    # after the first come from a second one at the saved state.
    resumed = np.random.default_rng(seed)
    resumed.bit_generator.state = state
    counts_w = np.empty((n, 3), dtype=np.int32)
    gyro_walk = _walk(rng, n, noise.gyro_walk_sigma)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = lo + _BLOCK_ROWS
        white = first if lo == 0 else _white(
            resumed, min(_BLOCK_ROWS, n - lo), noise.gyro_sigma)
        white += truth.omega[lo:hi]     # float addition commutes
        white += next(gyro_walk)
        counts_w[lo:hi] = _to_counts(white, gyro_cal)
    return counts_a, counts_w


def _white(rng: np.random.Generator, rows: int,
           sigma: np.ndarray) -> np.ndarray:
    """A new block of ``rows`` rows of white noise at ``sigma``.

    The generator fills sequentially, so drawing a stream block by block
    gives the values of one full-length draw.
    """
    block = rng.standard_normal((rows, 3))
    block *= sigma
    return block


def _pass(rng: np.random.Generator, rows: int) -> None:
    """Draw ``rows`` rows of normals only to move ``rng`` past them, one
    block at a time into one reused buffer."""
    buf = np.empty((min(_BLOCK_ROWS, rows), 3))
    for lo in range(0, rows, _BLOCK_ROWS):
        rng.standard_normal(out=buf[:rows - lo])


def _walk(rng: np.random.Generator, n: int,
          sigma: np.ndarray) -> Iterator[np.ndarray]:
    """Yield ``n`` rows of a bias random walk with increments at
    ``sigma``, in new blocks of `_BLOCK_ROWS` rows.

    Each block's first increment takes the last sum before the block's
    cumulative sum, which keeps the additions in sequence order; the
    first block gets no carry, so a -0.0 draw stays -0.0 as in one
    full-length sum.
    """
    carry = None
    for lo in range(0, n, _BLOCK_ROWS):
        block = _white(rng, min(_BLOCK_ROWS, n - lo), sigma)
        if carry is not None:
            block[0] += carry
        np.cumsum(block, axis=0, out=block)
        carry = block[-1].copy()
        yield block


def _to_counts(physical: np.ndarray, cal: SensorCalibration) -> np.ndarray:
    """Map a block of physical values to counts, rounded and clipped,
    as a new float array."""
    block = physical @ cal.gain.T
    block += cal.bias
    np.rint(block, out=block)
    return np.clip(block, constants.ADC_MIN, constants.ADC_MAX, out=block)


def scale_calibration(lsb: float,
                      noise_sigma: float | None = None) -> SensorCalibration:
    """Ideal datasheet calibration: pure scale, zero bias.

    ``lsb`` and ``noise_sigma`` are in physical units (m/s^2 or rad/s),
    as every `SensorCalibration` holds its noise; the noise defaults to
    one count, ``lsb``.
    """
    if lsb <= 0.0:
        raise ValueError("lsb must be positive")
    return SensorCalibration(
        gain=np.eye(3) / lsb, bias=np.zeros(3),
        noise_sigma=lsb if noise_sigma is None else noise_sigma,
    )
