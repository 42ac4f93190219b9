"""Foot-stance detection and zero-velocity pseudo-measurements.

While the foot is on the ground the filter can be told, with high
confidence, a batch of things it cannot otherwise observe: the position
is frozen at the value latched when the stance began, velocity and
angular rate are zero, the specific force is exactly the gravity
reaction and the raw accelerometer reading exposes the residual accel
bias.  This module detects those stance windows from the calibrated
IMU stream and assembles the pseudo-measurement stack that injects
them.

Detection is built on four per-sample condition signals:

- C1: the specific-force magnitude is inside a band around g,
- C2: its standard deviation over a short window is small,
- C3: the angular-rate magnitude is below a threshold,
- C4: its standard deviation over the same short window is small.

The still-foot score (SFS) of a sample is the fraction of its
surrounding detection window where all four conditions hold, a soft
value in [0, 1].  `sfs_series` is the one detector pass: it works out
the conditions and the score of every sample.  `stance_schedule` is the
policy over it that ``mode`` picks.  In the soft mode a stance event
runs while the score sits at or above ``sfs_threshold``, and the
pseudo-measurement covariance is scaled by ``1 + gain * (1 - SFS)``, so
that low-confidence stance samples pull the filter gently and clean
mid-stance samples pull it hard.  The hard baseline applies the same
threshold to the fraction of the window where C1*C2*C3 hold instead,
and carries no confidence information.

A run builds one `StanceStack`: the 15-row target stack and its base
variances.  Every stance update injects the whole stack.  Its
`linearize` gives the residual and the closed-form prediction Jacobian
from one read of the state, and `zupt_update` feeds them, with the
scaled variances, to the filter's update on a mean and covariance that
the caller owns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from . import constants
from ._fields import check_fields
from .ekf import (
    ACC_B,
    BIAS_A,
    DIM,
    OMEGA,
    POS,
    QUAT,
    VEL,
    _flat_index,
    _measurement_update,
)
from .quat import _conj_rotate_terms, _rotate_terms

__all__ = [
    "N_PSEUDO",
    "StanceConfig",
    "default_stance_config",
    "sfs_series",
    "stance_schedule",
    "stance_intervals",
    "StanceStack",
    "zupt_update",
    "match_intervals",
    "event_f1",
]

# Scalar rows of the stance pseudo-measurement stack; `StanceStack`
# lists them.
N_PSEUDO = 15


def _default_pseudo_variances(fs: float = constants.DEFAULT_FS) -> NDArray[np.float64]:
    """Per-row variances of the stack, in `StanceStack`'s row order.

    The kinematic rows encode how still a stance really is (the foot
    rolls slightly, so they are not driven to zero); the accel-bias rows
    observe the raw accelerometer sample and therefore carry the
    white-noise variance of the sensor itself.
    """
    accel_var = float(np.mean(constants.RAZOR_ACCEL_N**2) * fs)
    out = np.empty(N_PSEUDO)
    out[0:2] = 1e-4      # latched xy, sigma 1 cm
    out[2] = 1e-4        # height, sigma 1 cm
    out[3:6] = 1e-6      # velocity, sigma 1 mm/s
    out[6:9] = 1e-4      # gravity direction in nav coordinates
    out[9:12] = 1e-8     # angular rate
    out[12:15] = accel_var
    return out


@dataclass
class StanceConfig:
    """Stance detector thresholds and pseudo-measurement weights.

    Attributes
    ----------
    accel_norm_min, accel_norm_max : float
        Specific-force magnitude band for C1, m/s^2.
    accel_std_max : float
        C2 limit on the windowed magnitude standard deviation, m/s^2.
    gyro_norm_max : float
        C3 angular-rate magnitude limit, rad/s.
    gyro_std_max : float
        C4 limit on the windowed rate standard deviation, rad/s.
    detect_half_width : int
        Half width (samples) of the score window; the score averages
        over ``2 * detect_half_width + 1`` samples.
    std_half_width : int
        Half width (samples) of the standard-deviation windows in C2/C4.
    sfs_threshold : float
        Score level at which a stance event starts and ends, in (0, 1].
    covariance_gain : float
        Scale of the confidence modulation; the pseudo-measurement
        variances are multiplied by ``1 + gain * (1 - score)``.
    pseudo_variances : ndarray, shape (15,)
        Base diagonal variances of the pseudo-measurement stack.
    mode : str
        ``"soft"`` (score-modulated covariance), ``"hard"`` (binary
        detector, unmodulated covariance) or ``"none"`` (no stance
        updates at all, for ablation); `stance_schedule` applies it.
    """

    accel_norm_min: float = 8.8
    accel_norm_max: float = 10.8
    accel_std_max: float = 0.4
    gyro_norm_max: float = 0.6
    gyro_std_max: float = 0.2
    # Window defaults sized for 0.15 s stances at 100 Hz: the score
    # window (13 samples) spans about one stance, the std window stays
    # well inside it.  A threshold of 0.3 sits mid-plateau; detection on
    # the synthetic walks is insensitive to it from 0.25 to 0.4.
    detect_half_width: int = 6
    std_half_width: int = 3
    sfs_threshold: float = 0.3
    covariance_gain: float = 10.0
    pseudo_variances: NDArray[np.float64] = field(
        default_factory=_default_pseudo_variances
    )
    mode: str = "soft"

    def __post_init__(self):
        check_fields(self)
        if self.pseudo_variances.shape != (N_PSEUDO,):
            raise ValueError(f"pseudo_variances must be {N_PSEUDO} numbers, "
                             f"got shape {self.pseudo_variances.shape}")
        if not self.accel_norm_min < self.accel_norm_max:
            raise ValueError("accel_norm_min must be below accel_norm_max")
        for name in ("accel_std_max", "gyro_norm_max", "gyro_std_max"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.sfs_threshold <= 1.0:
            raise ValueError("sfs_threshold must lie in (0, 1]")
        if self.detect_half_width < 1 or self.std_half_width < 1:
            raise ValueError("window half widths must be at least 1 sample")
        if self.covariance_gain < 0:
            raise ValueError("covariance_gain must be nonnegative")
        if np.any(self.pseudo_variances <= 0):
            raise ValueError("pseudo_variances must be positive")
        if self.mode not in ("soft", "hard", "none"):
            raise ValueError(f"unknown stance mode {self.mode!r}")


def default_stance_config(fs: float = constants.DEFAULT_FS) -> StanceConfig:
    """Detector defaults tuned on the synthetic gait generator.

    The window half widths are 0.06 s and 0.03 s at ``fs``, rounded down
    to whole samples and at least one: (6, 3) at 100 Hz, (3, 1) at
    50 Hz and (12, 6) at 200 Hz.  A 0.15 s stance at 50 Hz is 7-8
    samples; rounding its std half width up to 2 would let C2 hold on
    only about 60% of them.
    """
    return StanceConfig(detect_half_width=max(1, int(6 * fs // 100)),
                        std_half_width=max(1, int(3 * fs // 100)),
                        pseudo_variances=_default_pseudo_variances(fs))


def _window_sums(values, half: int):
    """Sums of ``values`` over each sample's window ``k +- half``,
    truncated at the record ends, and the length of each window."""
    n = values.size
    c = np.concatenate([[0], np.cumsum(values)])
    k = np.arange(n)
    lo = np.maximum(k - half, 0)
    hi = np.minimum(k + half + 1, n)
    return c[hi] - c[lo], hi - lo


def _windowed_std(vals: NDArray[np.float64], half: int) -> NDArray[np.float64]:
    """Standard deviation over a centered window, truncated at the ends.

    Running sums over globally centered values; centering keeps the
    squared-sum cancellation benign for magnitude series sitting near g.
    """
    vals = vals - vals.mean()
    s1, cnt = _window_sums(vals, half)
    s2, _ = _window_sums(vals * vals, half)
    mean = s1 / cnt
    ex2 = s2 / cnt
    return np.sqrt(np.maximum(ex2 - mean * mean, 0.0))


def _window_fraction(flags: NDArray[np.bool_],
                     cfg: StanceConfig) -> NDArray[np.float64]:
    """Share of each sample's window ``k +- detect_half_width`` where
    ``flags`` hold, over the full window length."""
    count, _ = _window_sums(flags, cfg.detect_half_width)
    return count / (2 * cfg.detect_half_width + 1)


def _conditions(accel, gyro, cfg: StanceConfig):
    """The four condition signals C1..C4 over a calibrated record of
    specific force (m/s^2) and angular rate (rad/s), each ``(n, 3)``:
    four boolean arrays of shape ``(n,)``."""
    accel = np.asarray(accel, dtype=float)
    gyro = np.asarray(gyro, dtype=float)
    if accel.ndim != 2 or accel.shape[1] != 3 or accel.shape != gyro.shape:
        raise ValueError("accel and gyro must be matching (n, 3) arrays")
    mag_a = np.linalg.norm(accel, axis=1)
    mag_w = np.linalg.norm(gyro, axis=1)
    c1 = (mag_a > cfg.accel_norm_min) & (mag_a < cfg.accel_norm_max)
    c2 = _windowed_std(mag_a, cfg.std_half_width) < cfg.accel_std_max
    c3 = mag_w < cfg.gyro_norm_max
    c4 = _windowed_std(mag_w, cfg.std_half_width) < cfg.gyro_std_max
    return c1, c2, c3, c4


def sfs_series(accel, gyro, cfg: StanceConfig) -> NDArray[np.float64]:
    """Still-foot score for every sample of a calibrated record.

    The score of sample k is the count of samples in the window
    ``k +- detect_half_width`` where C1..C4 all hold, divided by the
    full window length, so it lies in [0, 1].  Windows truncated by the
    record ends keep the full-length normalizer, so scores sag near the
    first and last ``detect_half_width`` samples; walking records start
    and end with still margins much longer than the window, where this
    is harmless.
    """
    c1, c2, c3, c4 = _conditions(accel, gyro, cfg)
    return _window_fraction(c1 & c2 & c3 & c4, cfg)


def stance_schedule(accel, gyro, cfg: StanceConfig):
    """Per sample of a calibrated record: the score, whether a stance
    update runs, and the factor on its base variances, as ``cfg.mode``
    sets them.  The score is `sfs_series` in every mode.

    - ``"soft"`` updates at scores of at least ``sfs_threshold``, with
      factor ``1 + covariance_gain * (1 - score)``.
    - ``"hard"``, the binary baseline, updates where C1*C2*C3 hold on at
      least ``sfs_threshold`` of the sample's window, counted as the
      score counts (C4 does not take part), with factor 1.  A fraction
      of the window, not a count, so the rule means the same at every
      rate: a count above ``detect_half_width / 2`` took two still
      samples of seven at 50 Hz (epsilon_TTD 0.165 on 80 m squares),
      where the fraction takes three.
    - ``"none"`` never updates.

    Raises ValueError if a window, ``2 * detect_half_width + 1`` or
    ``2 * std_half_width + 1`` samples, is longer than the record.
    """
    n = len(accel)
    # As Python ints, so that no width overflows before it is compared.
    for name in ("detect_half_width", "std_half_width"):
        width = 2 * int(getattr(cfg, name)) + 1
        if width > n:
            raise ValueError(
                f"stance {name} ({getattr(cfg, name)}) makes a window "
                f"of {width} samples, longer than the log's {n}")
    scores = sfs_series(accel, gyro, cfg)
    if cfg.mode == "soft":
        return (scores, scores >= cfg.sfs_threshold,
                1.0 + cfg.covariance_gain * (1.0 - scores))
    if cfg.mode == "hard":
        c1, c2, c3, _ = _conditions(accel, gyro, cfg)
        active = _window_fraction(c1 & c2 & c3, cfg) >= cfg.sfs_threshold
    else:
        active = np.zeros(scores.size, dtype=bool)
    return scores, active, np.ones(scores.size)


def stance_intervals(active) -> list[tuple[int, int]]:
    """Maximal runs of True as half-open (start, stop) index pairs."""
    active = np.asarray(active, dtype=bool)
    if active.size == 0:
        return []
    padded = np.concatenate([[False], active, [False]]).astype(np.int8)
    edges = np.flatnonzero(np.diff(padded))
    return [
        (int(edges[j]), int(edges[j + 1])) for j in range(0, edges.size, 2)
    ]


def _linear_stance_rows() -> NDArray[np.float64]:
    """The state-independent part of the full stack's prediction Jacobian."""
    h = np.zeros((N_PSEUDO, DIM))
    eye3 = np.eye(3)
    h[0:3, POS] = eye3
    h[3:6, VEL] = eye3
    h[9:12, OMEGA] = eye3
    h[12:15, BIAS_A] = eye3
    return h


_LINEAR_STANCE_ROWS = _linear_stance_rows()

# State entries copied into the prediction stack (rows 6-8, the gravity
# direction, are overwritten), and the flat positions in the prediction
# Jacobian of the entries `StanceStack.linearize` fills: gravity
# direction by QUAT and by ACC_B, accel bias by QUAT.
_STANCE_SOURCE = np.r_[0:6, 0:3, 16:22]
_STANCE_INDEX = np.array(
    _flat_index(range(6, 9), range(9, 13))
    + _flat_index(range(6, 9), range(13, 16))
    + _flat_index(range(12, 15), range(9, 13))
)


class StanceStack:
    """The stance pseudo-measurement stack of one run.

    The stack, in row order (15 rows, all injected at every update):

    ==================  ====  ===========================  ==================
    group               rows  target value                 state prediction
    ==================  ====  ===========================  ==================
    position_xy         2     xy latched at event start    p[0:2]
    position_z          1     0                            p[2]
    velocity            3     0                            v
    gravity_direction   3     (0, 0, +g)                   R(q)^T a_b
    angular_rate        3     0                            omega
    accel_bias          3     calibrated accel sample      b_a - R(q) g_vec
    ==================  ====  ===========================  ==================

    The accel-bias rows use the raw calibrated accelerometer sample as
    the target: at rest the sample is gravity reaction plus residual
    bias, so the residual isolates the bias states.  The gravity-direction
    rows target the whole vector, its length included, and no row
    targets the gyro sample: the angular-rate rows pin omega to 0, and
    the IMU update of the same step already measures omega + b_w against
    that sample.  No row targets the acceleration state either: `predict`
    rebuilds it every step as R(q)^T a_b - (0, 0, g), which the
    gravity-direction rows already pin to 0.

    Everything that does not change within a run is built once: the
    target stack, written in place (`latch` at event start, the IMU
    sample at each `linearize`), and a copy of the base variances of
    ``cfg``, ``base_variances``.
    """

    def __init__(self, cfg: StanceConfig, g: float):
        self.z_full = np.zeros(N_PSEUDO)
        self.z_full[8] = g
        self.g_vec = np.array([0.0, 0.0, -g])
        self.base_variances = cfg.pseudo_variances.copy()

    def latch(self, x) -> None:
        """Start an event: hold the horizontal position of ``x``."""
        self.z_full[0:2] = x[POS.start:POS.start + 2]

    def linearize(self, x, imu_sample):
        """Residual ``z_p - prediction`` and prediction Jacobian H at one
        state, (15,) and (15, 25).  Of the calibrated ``imu_sample``
        (accel then gyro) only the accel half is read, as the accel-bias
        target.

        One read of the state; only the gravity-direction and accel-bias
        rows depend on it nonlinearly.
        """
        self.z_full[12:15] = imu_sample[:3]
        x = np.asarray(x, dtype=float)
        qw, qx, qy, qz, fx, fy, fz = x[QUAT.start:ACC_B.stop].tolist()
        # R(q)^T a_b = quat_rotate(conj(q), a_b) and R(q) g_vec.
        nav_f, d_nav_q, d_nav_f = _conj_rotate_terms(qw, qx, qy, qz, fx, fy, fz)
        body_g, d_body_q, _ = _rotate_terms(qw, qx, qy, qz,
                                            *self.g_vec.tolist())

        h = x[_STANCE_SOURCE]
        h[6:9] = nav_f
        h[12:15] -= body_g

        values = list(d_nav_q + d_nav_f) + [-v for v in d_body_q]
        h_jac = _LINEAR_STANCE_ROWS.copy()
        h_jac.ravel()[_STANCE_INDEX] = values
        return self.z_full - h, h_jac


def zupt_update(x, p_mat, stance: StanceStack, imu_sample, factor: float):
    """Inject one stance pseudo-measurement into a mean and covariance.

    The residual and H of ``stance`` at ``x`` with the calibrated
    ``imu_sample`` go through the Joseph-form update, with the base
    variances scaled by the confidence ``factor`` of the sample's score,
    ``1 + covariance_gain * (1 - score)`` (1 for the hard detector).  The
    update refuses a non-finite or indefinite innovation covariance and
    a degenerate quaternion; the covariance it returns is neither
    checked (the tracker checks each step once, see
    `pdrnav.tracker._check_state`) nor symmetrised (the next `predict`
    re-symmetrises it).
    """
    nu, jac = stance.linearize(x, imu_sample)
    return _measurement_update(x, p_mat, nu, jac, factor * stance.base_variances)


def match_intervals(
    predicted: list[tuple[int, int]],
    truth: list[tuple[int, int]],
    tolerance: int = 5,
) -> int:
    """Count one-to-one matches between detected and true stance spans.

    A detected span matches a true span when it lies inside the true
    span widened by ``tolerance`` samples on each side and overlaps the
    unwidened span.  Each true span absorbs at most one detection, so
    fragmented detections count as false positives.
    """
    matched = 0
    used = [False] * len(truth)
    for ps, pe in predicted:
        for j, (ts, te) in enumerate(truth):
            if used[j]:
                continue
            inside = ps >= ts - tolerance and pe <= te + tolerance
            overlaps = ps < te and pe > ts
            if inside and overlaps:
                used[j] = True
                matched += 1
                break
    return matched


def event_f1(
    predicted: list[tuple[int, int]],
    truth: list[tuple[int, int]],
    tolerance: int = 5,
) -> dict:
    """Event-level precision, recall and F1 of a stance detection.

    Events are half-open index intervals as `stance_intervals` returns
    them; a score series gives its events as
    ``stance_intervals(scores >= sfs_threshold)``, the threshold
    inclusive.
    """
    tp = match_intervals(predicted, truth, tolerance)
    precision = tp / len(predicted) if predicted else 0.0
    recall = tp / len(truth) if truth else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return {
        "f1": f1,
        "precision": precision,
        "recall": recall,
        "true_positives": tp,
        "detected": len(predicted),
        "expected": len(truth),
    }
