"""Foot-stance detection and zero-velocity pseudo-measurements.

While the foot is on the ground the filter can be told, with high
confidence, a batch of things it cannot otherwise observe: the position
is frozen at the value latched when the stance began, velocity and
acceleration are zero, the specific force is exactly the gravity
reaction and the raw sensor readings expose the residual biases.  This
module detects those stance windows from the calibrated IMU stream and
assembles the pseudo-measurement stack that injects them.

Detection is built on four per-sample condition signals:

- C1: the specific-force magnitude is inside a band around g,
- C2: its standard deviation over a short window is small,
- C3: the angular-rate magnitude is below a threshold,
- C4: its standard deviation over the same short window is small.

The still-foot score (SFS) of a sample is the fraction of its
surrounding detection window where all four conditions hold, a soft
value in [0, 1].  A stance event runs while the score sits at or above
``sfs_threshold``; the hard baseline detector thresholds a windowed
count of C1*C2*C3 instead and carries no confidence information.

The pseudo-measurement covariance is scaled by ``1 + gain * (1 - SFS)``
so that low-confidence stance samples pull the filter gently and
clean mid-stance samples pull it hard.

A run builds one `StanceStack`: the target stack, the enabled rows and
their base variances.  Its `linearize` gives the residual and the
closed-form prediction Jacobian of those rows from one read of the
state, and `zupt_update` feeds them, with the scaled variances, to the
filter's update on a mean and covariance that the caller owns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from . import constants
from .ekf import (
    ACC,
    ACC_B,
    BIAS_A,
    BIAS_W,
    DIM,
    OMEGA,
    POS,
    QUAT,
    VEL,
    _measurement_update,
)
from .quat import _conj_rotate_terms, _rotate_terms

__all__ = [
    "PSEUDO_GROUPS",
    "N_PSEUDO",
    "StanceConfig",
    "default_stance_config",
    "condition_series",
    "sfs_series",
    "hard_series",
    "stance_intervals",
    "detect_stance",
    "StanceStack",
    "zupt_update",
    "match_intervals",
    "event_f1",
]

# Pseudo-measurement groups in stacking order with their row counts.
# Every group can be switched off individually; the full stack is 22
# scalar rows.
PSEUDO_GROUPS = (
    ("position_xy", 2),
    ("position_z", 1),
    ("velocity", 3),
    ("acceleration", 3),
    ("gravity_direction", 3),
    ("gravity_norm", 1),
    ("angular_rate", 3),
    ("accel_bias", 3),
    ("gyro_bias", 3),
)
N_PSEUDO = sum(rows for _, rows in PSEUDO_GROUPS)

# Row index of the gravity-norm scalar inside the full stack; its
# gradient direction a_b/|a_b| is undefined at a_b = 0, where the row's
# Jacobian is taken as zero.
_NORM_ROW = 12
_NORM_EPS = 1e-6


def _default_pseudo_variances(fs: float = constants.DEFAULT_FS) -> NDArray[np.float64]:
    """Per-row variances of the full pseudo-measurement stack.

    The kinematic rows encode how still a stance really is (the foot
    rolls slightly, so they are not driven to zero); the two bias groups
    observe raw sensor samples and therefore carry the white-noise
    variance of the sensor itself.
    """
    accel_var = float(np.mean(constants.RAZOR_ACCEL_N**2) * fs)
    gyro_var = float(np.mean(constants.RAZOR_GYRO_N**2) * fs)
    out = np.empty(N_PSEUDO)
    out[0:2] = 1e-4      # latched xy, sigma 1 cm
    out[2] = 1e-4        # height, sigma 1 cm
    out[3:6] = 1e-6      # velocity, sigma 1 mm/s
    out[6:9] = 1e-4      # acceleration
    out[9:12] = 1e-4     # gravity direction in nav coordinates
    out[12] = 1e-4       # gravity magnitude
    out[13:16] = 1e-8    # angular rate
    out[16:19] = accel_var
    out[19:22] = gyro_var
    return out


def _as_group_flags(groups) -> dict[str, bool]:
    """The enable flags checked: a mapping from exactly the names in
    ``PSEUDO_GROUPS`` to booleans."""
    names = [name for name, _ in PSEUDO_GROUPS]
    if not isinstance(groups, dict):
        raise ValueError(
            f"pseudo_groups must map each of {names} to true or false, "
            f"got {groups!r}"
        )
    extra = groups.keys() - set(names)
    missing = set(names) - groups.keys()
    if extra or missing:
        raise ValueError(
            f"pseudo-measurement groups must be exactly {names}; "
            f"missing {sorted(missing)}, unknown {sorted(extra)}"
        )
    bad = {name: groups[name] for name in names
           if not isinstance(groups[name], (bool, np.bool_))}
    if bad:
        raise ValueError(f"pseudo_groups flags must be true or false, got {bad}")
    return {name: bool(groups[name]) for name in names}


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
        Score level at which a stance event starts and ends, in [0, 1].
    covariance_gain : float
        Scale of the confidence modulation; the pseudo-measurement
        variances are multiplied by ``1 + gain * (1 - score)``.
    pseudo_variances : ndarray, shape (22,)
        Base diagonal variances of the full pseudo-measurement stack.
    pseudo_groups : dict
        Enable flag per pseudo-measurement group, keys as in
        ``PSEUDO_GROUPS``; unless ``mode`` is ``"none"``, at least one
        must be on.
    mode : str
        ``"soft"`` (score-modulated covariance), ``"hard"`` (binary
        detector, unmodulated covariance) or ``"none"`` (no stance
        updates at all, for ablation).
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
    pseudo_groups: dict[str, bool] = field(
        default_factory=lambda: {name: True for name, _ in PSEUDO_GROUPS}
    )
    mode: str = "soft"

    def __post_init__(self):
        self.pseudo_variances = np.asarray(
            self.pseudo_variances, dtype=float
        ).reshape(N_PSEUDO)
        self.pseudo_groups = _as_group_flags(self.pseudo_groups)
        if not self.accel_norm_min < self.accel_norm_max:
            raise ValueError("accel_norm_min must be below accel_norm_max")
        if not 0.0 <= self.sfs_threshold <= 1.0:
            raise ValueError("sfs_threshold must lie in [0, 1]")
        if self.detect_half_width < 1 or self.std_half_width < 1:
            raise ValueError("window half widths must be at least 1 sample")
        if self.covariance_gain < 0:
            raise ValueError("covariance_gain must be nonnegative")
        if np.any(self.pseudo_variances <= 0):
            raise ValueError("pseudo_variances must be positive")
        if self.mode not in ("soft", "hard", "none"):
            raise ValueError(f"unknown stance mode {self.mode!r}")
        self.row_mask()

    def row_mask(self) -> NDArray[np.bool_]:
        """Boolean mask over the 22 rows selecting the enabled groups.

        Raises `ValueError` when no group is on unless ``mode`` is
        ``"none"``; the flags are a mutable dict, so this runs at every
        use as well as at construction.
        """
        mask = np.concatenate([
            np.full(rows, self.pseudo_groups[name])
            for name, rows in PSEUDO_GROUPS
        ])
        if self.mode != "none" and not mask.any():
            raise ValueError(
                f"stance mode {self.mode!r} needs at least one pseudo_groups "
                "flag on; mode 'none' switches stance updates off"
            )
        return mask


def default_stance_config(fs: float = constants.DEFAULT_FS) -> StanceConfig:
    """Detector defaults tuned on the synthetic gait generator."""
    return StanceConfig(pseudo_variances=_default_pseudo_variances(fs))


def _window_bounds(n: int, i, half: int):
    lo = np.maximum(np.asarray(i) - half, 0)
    hi = np.minimum(np.asarray(i) + half + 1, n)
    return lo, hi


def _windowed_std(vals: NDArray[np.float64], half: int) -> NDArray[np.float64]:
    """Standard deviation over a centered window, truncated at the ends.

    Running sums over globally centered values; centering keeps the
    squared-sum cancellation benign for magnitude series sitting near g.
    """
    vals = vals - vals.mean()
    c1 = np.concatenate([[0.0], np.cumsum(vals)])
    c2 = np.concatenate([[0.0], np.cumsum(vals * vals)])
    lo, hi = _window_bounds(vals.size, np.arange(vals.size), half)
    cnt = hi - lo
    mean = (c1[hi] - c1[lo]) / cnt
    ex2 = (c2[hi] - c2[lo]) / cnt
    return np.sqrt(np.maximum(ex2 - mean * mean, 0.0))


def _windowed_count(flags: NDArray[np.bool_], half: int) -> NDArray[np.int64]:
    c = np.concatenate([[0], np.cumsum(flags.astype(np.int64))])
    lo, hi = _window_bounds(flags.size, np.arange(flags.size), half)
    return c[hi] - c[lo]


def _magnitudes(accel, gyro):
    accel = np.asarray(accel, dtype=float)
    gyro = np.asarray(gyro, dtype=float)
    if accel.ndim != 2 or accel.shape[1] != 3 or accel.shape != gyro.shape:
        raise ValueError("accel and gyro must be matching (n, 3) arrays")
    return np.linalg.norm(accel, axis=1), np.linalg.norm(gyro, axis=1)


def condition_series(accel, gyro, cfg: StanceConfig):
    """All four condition signals over a calibrated record.

    Parameters
    ----------
    accel, gyro : ndarray, shape (n, 3)
        Calibrated specific force (m/s^2) and angular rate (rad/s).
    cfg : StanceConfig

    Returns
    -------
    tuple of four boolean ndarrays, shape (n,)
    """
    mag_a, mag_w = _magnitudes(accel, gyro)
    c1 = (mag_a > cfg.accel_norm_min) & (mag_a < cfg.accel_norm_max)
    c2 = _windowed_std(mag_a, cfg.std_half_width) < cfg.accel_std_max
    c3 = mag_w < cfg.gyro_norm_max
    c4 = _windowed_std(mag_w, cfg.std_half_width) < cfg.gyro_std_max
    return c1, c2, c3, c4


def sfs_series(accel, gyro, cfg: StanceConfig) -> NDArray[np.float64]:
    """Still-foot score for every sample of a calibrated record.

    The score of sample k is the count of samples in the window
    ``k +- detect_half_width`` where C1..C4 all hold, divided by the
    full window length and clamped to [0, 1].  Windows truncated by the
    record ends keep the full-length normalizer, so scores sag near the
    first and last ``detect_half_width`` samples; walking records start
    and end with still margins much longer than the window, where this
    is harmless.
    """
    c1, c2, c3, c4 = condition_series(accel, gyro, cfg)
    width = 2 * cfg.detect_half_width + 1
    counts = _windowed_count(c1 & c2 & c3 & c4, cfg.detect_half_width)
    return np.clip(counts / width, 0.0, 1.0)


def hard_series(accel, gyro, cfg: StanceConfig) -> NDArray[np.bool_]:
    """Binary baseline detector over a record.

    Declares stance where the windowed count of C1*C2*C3 strictly
    exceeds half the window half-width.  C4 does not participate; the
    comparison is against ``detect_half_width / 2`` exactly, so an even
    count equal to it is not stance.
    """
    c1, c2, c3, _ = condition_series(accel, gyro, cfg)
    counts = _windowed_count(c1 & c2 & c3, cfg.detect_half_width)
    return counts > cfg.detect_half_width / 2.0


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


def detect_stance(scores, threshold: float) -> list[tuple[int, int]]:
    """Stance events from a score series.

    An event begins at the first sample whose score reaches
    ``threshold`` and ends before the first subsequent sample whose
    score drops below it.
    """
    return stance_intervals(np.asarray(scores, dtype=float) >= threshold)


def _linear_stance_rows() -> NDArray[np.float64]:
    """The state-independent part of the full stack's prediction Jacobian."""
    h = np.zeros((N_PSEUDO, DIM))
    eye3 = np.eye(3)
    h[0:3, POS] = eye3
    h[3:6, VEL] = eye3
    h[6:9, ACC] = eye3
    h[13:16, OMEGA] = eye3
    h[16:19, BIAS_A] = eye3
    h[19:22, BIAS_W] = eye3
    return h


_LINEAR_STANCE_ROWS = _linear_stance_rows()

# State entries copied into the prediction stack (rows 9-12, the gravity
# direction and norm, are overwritten), and the flat positions in the
# prediction Jacobian of the entries `StanceStack.linearize` fills:
# gravity direction by QUAT and by ACC_B, gravity norm by ACC_B, accel
# bias by QUAT.
_STANCE_SOURCE = np.r_[0:9, 0:4, 16:25]
_STANCE_INDEX = np.array(
    [r * DIM + c for r in range(9, 12) for c in range(9, 13)]
    + [r * DIM + c for r in range(9, 12) for c in range(13, 16)]
    + [_NORM_ROW * DIM + c for c in range(13, 16)]
    + [r * DIM + c for r in range(16, 19) for c in range(9, 13)]
)


class StanceStack:
    """The stance pseudo-measurement stack of one run.

    The full stack, in row order (22 rows when every group is enabled):

    ==================  ====  ===========================  ==================
    group               rows  target value                 state prediction
    ==================  ====  ===========================  ==================
    position_xy         2     xy latched at event start    p[0:2]
    position_z          1     0                            p[2]
    velocity            3     0                            v
    acceleration        3     0                            a
    gravity_direction   3     (0, 0, +g)                   R(q)^T a_b
    gravity_norm        1     g                            |a_b|
    angular_rate        3     0                            omega
    accel_bias          3     calibrated accel sample      b_a - R(q) g_vec
    gyro_bias           3     calibrated gyro sample       b_w
    ==================  ====  ===========================  ==================

    The two bias groups use the raw calibrated sample as the target: at
    rest the sample is gravity reaction plus residual bias, so the
    residual isolates the bias states.

    Everything that does not change within a run is built once: the
    target stack, written in place (`latch` at event start, the IMU
    sample at each `linearize`), the enabled rows of ``cfg`` and their
    base variances ``base_variances``.
    """

    def __init__(self, cfg: StanceConfig, g: float):
        mask = cfg.row_mask()
        self.z_full = np.zeros(N_PSEUDO)
        self.z_full[11] = g
        self.z_full[_NORM_ROW] = g
        self.mask = slice(None) if mask.all() else mask
        self.g_vec = np.array([0.0, 0.0, -g])
        self.base_variances = cfg.pseudo_variances[mask]

    def latch(self, x) -> None:
        """Start an event: hold the horizontal position of ``x``."""
        self.z_full[0:2] = x[POS.start:POS.start + 2]

    def linearize(self, x, imu_sample):
        """Residual ``z_p - prediction`` and prediction Jacobian H of the
        enabled rows at one state, (m,) and (m, 25), with the calibrated
        ``imu_sample`` (accel then gyro) as the bias targets.

        One read of the state; only the gravity-direction, gravity-norm
        and accel-bias rows depend on it nonlinearly.  The gravity-norm
        gradient ``a_b / |a_b|`` is taken as zero where ``|a_b|`` is
        below 1e-6, where it has no direction.  The row is then zero, so
        it cannot move the mean or the covariance whatever its variance:
        H P has a zero row, S a zero row and column off the diagonal,
        and the gain a zero column.
        """
        self.z_full[16:22] = imu_sample
        x = np.asarray(x, dtype=float)
        qw, qx, qy, qz, fx, fy, fz = x[QUAT.start:ACC_B.stop].tolist()
        # R(q)^T a_b = quat_rotate(conj(q), a_b) and R(q) g_vec.
        nav_f, d_nav_q, d_nav_f = _conj_rotate_terms(qw, qx, qy, qz, fx, fy, fz)
        body_g, d_body_q, _ = _rotate_terms(qw, qx, qy, qz,
                                            *self.g_vec.tolist())
        norm = math.sqrt(fx * fx + fy * fy + fz * fz)

        h = x[_STANCE_SOURCE]
        h[9:13] = (*nav_f, norm)
        h[16:19] -= body_g

        values = list(d_nav_q + d_nav_f)
        if norm >= _NORM_EPS:
            values += (fx / norm, fy / norm, fz / norm)
        else:
            values += (0.0, 0.0, 0.0)
        values += [-v for v in d_body_q]
        h_jac = _LINEAR_STANCE_ROWS.copy()
        h_jac.ravel()[_STANCE_INDEX] = values
        return (self.z_full - h)[self.mask], h_jac[self.mask]


def _confidence_factor(cfg: StanceConfig, scores):
    """``1 + covariance_gain * (1 - score)``, for one score or an array."""
    return 1.0 + cfg.covariance_gain * (1.0 - scores)


def zupt_update(x, p_mat, stance: StanceStack, imu_sample, factor: float):
    """Inject one stance pseudo-measurement into a mean and covariance.

    The residual and H of ``stance`` at ``x`` with the calibrated
    ``imu_sample`` go through the Joseph-form update, with the base
    variances scaled by the confidence ``factor`` of the sample's score,
    ``1 + covariance_gain * (1 - score)`` (1 for the hard detector).
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

    Events are half-open index intervals as returned by `detect_stance`
    and `stance_intervals`.
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
