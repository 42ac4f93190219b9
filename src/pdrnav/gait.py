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
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import constants
from .calibration import SensorCalibration
from .quat import quat_rotate

__all__ = [
    "GaitParams",
    "GroundTruth",
    "NoiseParams",
    "generate_gait",
    "still_truth",
    "razor_noise",
    "zero_noise",
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
        Recorded for provenance; the generator itself is deterministic.
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
        self.path = np.asarray(self.path, dtype=float)
        if self.path.ndim != 2 or self.path.shape[1] != 2 or self.path.shape[0] < 2:
            raise ValueError("path must be an (n, 2) array with n >= 2")
        if not np.all(np.isfinite(self.path)):
            raise ValueError("path contains non-finite waypoints")
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
        seg_lengths = np.linalg.norm(np.diff(self.path, axis=0), axis=1)
        short = np.flatnonzero(seg_lengths < self.step_length)
        if short.size:
            raise ValueError(
                "waypoints closer than one step_length at segment(s) "
                f"{short.tolist()}; merge them or shorten the step"
            )


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


def _wrap_angle(d: float) -> float:
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
    if fs < 50.0:
        raise ValueError("fs must be at least 50 Hz")
    lengths, cum = _arc_table(params.path)
    total_len = float(cum[-1])
    n_steps = max(int(round(total_len / params.step_length)), 1)
    arcs = np.linspace(0.0, total_len, n_steps + 1)
    footfalls = np.array(
        [_point_at_arc(params.path, lengths, cum, s) for s in arcs]
    )

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

    # Phase table: start time, kind, and per-kind payload.  The lead-in
    # merges with the first stance, the tail with the last.
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
    starts_arr = np.asarray(starts)

    n = int(round(total_t * fs)) + 1
    t = np.arange(n) / fs
    idx = np.searchsorted(starts_arr, t, side="right") - 1
    idx = np.clip(idx, 0, len(starts) - 1)

    p = np.zeros((n, 3))
    v = np.zeros((n, 3))
    a = np.zeros((n, 3))
    yaw = np.zeros(n)
    yaw_rate = np.zeros(n)
    stance = np.zeros(n, dtype=bool)

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
        sigma, dsigma, d2sigma = _smoothstep(s)
        b, db, d2b = _bump(s)
        chord = foot_b - foot_a
        p[sel, 0] = foot_a[0] + sigma * chord[0]
        p[sel, 1] = foot_a[1] + sigma * chord[1]
        p[sel, 2] = params.swing_peak_height * b
        v[sel, 0] = chord[0] * dsigma / swing_t
        v[sel, 1] = chord[1] * dsigma / swing_t
        v[sel, 2] = params.swing_peak_height * db / swing_t
        a[sel, 0] = chord[0] * d2sigma / swing_t**2
        a[sel, 1] = chord[1] * d2sigma / swing_t**2
        a[sel, 2] = params.swing_peak_height * d2b / swing_t**2
        dpsi = _wrap_angle(psi_b - psi_a)
        yaw[sel] = psi_a + sigma * dpsi
        yaw_rate[sel] = dpsi * dsigma / swing_t

    # Pure-yaw attitude: navigation-to-body quaternion for heading psi.
    q_nb = np.zeros((n, 4))
    q_nb[:, 0] = np.cos(yaw / 2.0)
    q_nb[:, 3] = -np.sin(yaw / 2.0)
    omega = np.zeros((n, 3))
    omega[:, 2] = yaw_rate

    return GroundTruth(
        t=t, p=p, v=v, a=a, q_nb=q_nb, omega=omega, stance=stance, fs=fs,
        footfalls=footfalls, path_length=total_len,
    )


def still_truth(duration: float, fs: float = constants.DEFAULT_FS,
                position: tuple[float, float, float] = (0.0, 0.0, 0.0),
                yaw: float = 0.0) -> GroundTruth:
    """Ground truth for a sensor sitting still.

    Handy for calibration captures, Allan records, and drift checks.
    """
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    if fs <= 0.0:
        raise ValueError("fs must be positive")
    n = int(round(duration * fs)) + 1
    t = np.arange(n) / fs
    p = np.tile(np.asarray(position, dtype=float), (n, 1))
    q_nb = np.zeros((n, 4))
    q_nb[:, 0] = np.cos(yaw / 2.0)
    q_nb[:, 3] = -np.sin(yaw / 2.0)
    return GroundTruth(
        t=t, p=p, v=np.zeros((n, 3)), a=np.zeros((n, 3)), q_nb=q_nb,
        omega=np.zeros((n, 3)), stance=np.ones(n, dtype=bool), fs=fs,
        footfalls=np.asarray(position, dtype=float)[None, :2].copy(),
        path_length=0.0,
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
        for name in (f.name for f in fields(self)):
            value = np.asarray(getattr(self, name), dtype=float) * np.ones(3)
            if value.shape != (3,) or np.any(value < 0.0) or not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be non-negative and broadcast to shape (3,)")
            setattr(self, name, value)


def razor_noise(fs: float = constants.DEFAULT_FS) -> NoiseParams:
    """Noise levels of a consumer-grade Razor-class IMU at rate ``fs``.

    White sigma per sample is the random-walk density times sqrt(fs).
    The walk increment is sized so the bias wanders by about the
    datasheet instability over a 100 s window.
    """
    horizon = 100.0 * fs
    return NoiseParams(
        accel_sigma=constants.RAZOR_ACCEL_N * np.sqrt(fs),
        gyro_sigma=constants.RAZOR_GYRO_N * np.sqrt(fs),
        accel_walk_sigma=constants.RAZOR_ACCEL_B / np.sqrt(horizon),
        gyro_walk_sigma=constants.RAZOR_GYRO_B / np.sqrt(horizon),
    )


def zero_noise() -> NoiseParams:
    """Noise-free sensor, for exactness tests."""
    zeros = np.zeros(3)
    return NoiseParams(zeros, zeros, zeros.copy(), zeros.copy())


# Rows per block when `inverse_imu` rotates the specific force: the
# rotation's temporaries stay this size however long the record is.
_BLOCK_ROWS = 4096


def inverse_imu(truth: GroundTruth, accel_cal: SensorCalibration,
                gyro_cal: SensorCalibration, noise: NoiseParams,
                seed: int = 0, *, quantize: bool = True,
                g: float = constants.GRAVITY) -> tuple[np.ndarray, np.ndarray]:
    """Render ground truth into raw IMU counts.

    The specific force in the body frame is the kinematic acceleration
    minus gravity, rotated by the attitude.  Noise (white plus bias
    random walk) is added in physical units, then the calibration maps
    physical quantities to counts:  counts = gain @ physical + bias.

    Memory stays a few (n, 3) arrays for any record length.  The
    rotation runs in fixed blocks of rows; it is elementwise, so the
    blocks give the bits of one batch.  Each noise draw goes into
    one reused buffer and is added to the physical arrays before the
    next is drawn, in a fixed order (white accel, white gyro, accel
    walk, gyro walk) and with the sums grouped as
    ``(signal + white) + walk``.

    Parameters
    ----------
    truth : GroundTruth
    accel_cal, gyro_cal : SensorCalibration
        Forward sensor models.
    noise : NoiseParams
    seed : int
        Seeds the noise generator; the draw order is fixed, so equal
        seeds give bit-identical records.
    quantize : bool
        Round to integer counts and clip to the signed 16-bit range.
        Disable for exact round-trip tests.
    g : float
        Gravity magnitude.

    Returns
    -------
    (accel_counts, gyro_counts) : ndarray, shape (n, 3) each
        Integer arrays when ``quantize`` is set, floats otherwise.
    """
    n = truth.t.size
    g_vec = np.array([0.0, 0.0, -g])
    physical_a = np.empty((n, 3))
    for lo in range(0, n, _BLOCK_ROWS):
        hi = lo + _BLOCK_ROWS
        physical_a[lo:hi] = quat_rotate(truth.q_nb[lo:hi].T,
                                        (truth.a[lo:hi] - g_vec).T).T
    physical_w = np.array(truth.omega, dtype=float)
    _add_noise(physical_a, physical_w, noise, seed)
    return (_to_counts(physical_a, accel_cal, quantize),
            _to_counts(physical_w, gyro_cal, quantize))


def _add_noise(physical_a: np.ndarray, physical_w: np.ndarray,
               noise: NoiseParams, seed: int) -> None:
    """Add white noise and bias random walks in place, one draw at a time."""
    rng = np.random.default_rng(seed)
    draw = np.empty(physical_a.shape)
    for physical, sigma, walk in (
        (physical_a, noise.accel_sigma, False),
        (physical_w, noise.gyro_sigma, False),
        (physical_a, noise.accel_walk_sigma, True),
        (physical_w, noise.gyro_walk_sigma, True),
    ):
        rng.standard_normal(out=draw)
        draw *= sigma
        if walk:
            np.cumsum(draw, axis=0, out=draw)
        physical += draw


def _to_counts(physical: np.ndarray, cal: SensorCalibration,
               quantize: bool) -> np.ndarray:
    """Map physical values to counts, rounded and clipped in place."""
    counts = physical @ cal.gain.T
    counts += cal.bias
    if not quantize:
        return counts
    np.rint(counts, out=counts)
    np.clip(counts, -32768, 32767, out=counts)
    return counts.astype(np.int32)


def scale_calibration(lsb: float, noise_sigma: float = 1.0) -> SensorCalibration:
    """Ideal datasheet calibration: pure scale, zero bias.

    ``noise_sigma`` is in counts, matching the calibration file format.
    """
    if lsb <= 0.0:
        raise ValueError("lsb must be positive")
    return SensorCalibration(
        gain=np.eye(3) / lsb, bias=np.zeros(3), noise_sigma=noise_sigma
    )
