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
    StateEstimate,
    _measurement_update,
)
from .quat import _conj_rotate_terms, _rotate_terms

__all__ = [
    "PSEUDO_GROUPS",
    "N_PSEUDO",
    "StanceConfig",
    "StanceEvent",
    "default_stance_config",
    "condition_series",
    "sfs_series",
    "hard_series",
    "stance_intervals",
    "detect_stance",
    "StanceResidual",
    "build_pseudo_measurements",
    "soft_covariance",
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
# Jacobian is zero and `build_pseudo_measurements` inflates its variance.
_NORM_ROW = 12
_NORM_EPS = 1e-6
_NORM_INFLATION = 1e6


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
    names = [name for name, _ in PSEUDO_GROUPS]
    if isinstance(groups, dict):
        extra = groups.keys() - set(names)
        missing = set(names) - groups.keys()
        if extra or missing:
            raise ValueError(
                f"pseudo-measurement groups must be exactly {names}; "
                f"missing {sorted(missing)}, unknown {sorted(extra)}"
            )
        return {name: bool(groups[name]) for name in names}
    flags = list(groups)
    if len(flags) != len(names):
        raise ValueError(f"expected {len(names)} group flags, got {len(flags)}")
    return {name: bool(flag) for name, flag in zip(names, flags)}


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
        ``PSEUDO_GROUPS``.
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

    def row_mask(self) -> NDArray[np.bool_]:
        """Boolean mask over the 22 rows selecting the enabled groups."""
        parts = [
            np.full(rows, self.pseudo_groups[name])
            for name, rows in PSEUDO_GROUPS
        ]
        return np.concatenate(parts)

    def to_dict(self) -> dict:
        return {
            "accel_norm_min": self.accel_norm_min,
            "accel_norm_max": self.accel_norm_max,
            "accel_std_max": self.accel_std_max,
            "gyro_norm_max": self.gyro_norm_max,
            "gyro_std_max": self.gyro_std_max,
            "detect_half_width": self.detect_half_width,
            "std_half_width": self.std_half_width,
            "sfs_threshold": self.sfs_threshold,
            "covariance_gain": self.covariance_gain,
            "pseudo_variances": [float(v) for v in self.pseudo_variances],
            "pseudo_groups": dict(self.pseudo_groups),
            "mode": self.mode,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StanceConfig":
        required = {
            "accel_norm_min", "accel_norm_max", "accel_std_max",
            "gyro_norm_max", "gyro_std_max", "detect_half_width",
            "std_half_width", "sfs_threshold", "covariance_gain",
            "pseudo_variances", "pseudo_groups", "mode",
        }
        missing = required - d.keys()
        if missing:
            raise ValueError(f"stance config missing keys: {sorted(missing)}")
        unknown = d.keys() - required
        if unknown:
            raise ValueError(f"stance config has unknown keys: {sorted(unknown)}")
        return cls(
            accel_norm_min=float(d["accel_norm_min"]),
            accel_norm_max=float(d["accel_norm_max"]),
            accel_std_max=float(d["accel_std_max"]),
            gyro_norm_max=float(d["gyro_norm_max"]),
            gyro_std_max=float(d["gyro_std_max"]),
            detect_half_width=int(d["detect_half_width"]),
            std_half_width=int(d["std_half_width"]),
            sfs_threshold=float(d["sfs_threshold"]),
            covariance_gain=float(d["covariance_gain"]),
            pseudo_variances=np.asarray(d["pseudo_variances"], dtype=float),
            pseudo_groups=d["pseudo_groups"],
            mode=str(d["mode"]),
        )


def default_stance_config(fs: float = constants.DEFAULT_FS) -> StanceConfig:
    """Detector defaults tuned on the synthetic gait generator."""
    return StanceConfig(pseudo_variances=_default_pseudo_variances(fs))


@dataclass
class StanceEvent:
    """One stance period, anchored at the sample where it was declared.

    ``latched_xy`` is the horizontal position estimate captured exactly
    once, at ``start_index``; every pseudo-measurement of the event
    pulls toward this one value, which is what keeps the foot from
    skating during the stance.
    """

    start_index: int
    latched_xy: NDArray[np.float64]

    def __post_init__(self):
        # np.array, not asarray: the event must own its copy so later
        # writes to the caller's buffer cannot move the latched target.
        self.latched_xy = np.array(self.latched_xy, dtype=float).reshape(2)


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
# prediction Jacobian of the entries `StanceResidual.linearize` fills:
# gravity direction by QUAT and by ACC_B, gravity norm by ACC_B, accel
# bias by QUAT.
_STANCE_SOURCE = np.r_[0:9, 0:4, 16:25]
_STANCE_INDEX = np.array(
    [r * DIM + c for r in range(9, 12) for c in range(9, 13)]
    + [r * DIM + c for r in range(9, 12) for c in range(13, 16)]
    + [_NORM_ROW * DIM + c for c in range(13, 16)]
    + [r * DIM + c for r in range(16, 19) for c in range(9, 13)]
)


def _target_stack(g: float) -> NDArray[np.float64]:
    """The full stack's targets with the latched xy (rows 0-1) and the
    IMU sample (rows 16-21) left at zero for the caller to write."""
    z_full = np.zeros(N_PSEUDO)
    z_full[11] = g
    z_full[_NORM_ROW] = g
    return z_full


class StanceResidual:
    """Residual ``z_p - prediction`` of one stance stack.

    `linearize` gives the residual of the enabled rows and the
    closed-form Jacobian H of their prediction at one state, from one
    read of the state.  Calling it maps states ``(25,)`` or batches
    ``(25, k)``, column by column, to residuals; `jacobian` gives the
    derivative of the residual, ``-H``.
    """

    def __init__(self, z_full: NDArray[np.float64], mask: NDArray[np.bool_] | slice,
                 g_vec: NDArray[np.float64]):
        self.z_full = z_full
        self.mask = mask
        self.g_vec = g_vec

    def linearize(self, x):
        """Residual and prediction Jacobian H at one state, (m,) and (m, 25).

        Only the gravity-direction, gravity-norm and accel-bias rows
        depend on the state nonlinearly.  The gravity-norm gradient
        ``a_b / |a_b|`` is taken as zero where ``|a_b|`` is below the
        threshold at which `build_pseudo_measurements` defuses that row.
        The row is then zero, so it cannot move the mean or the
        covariance whatever its variance: H P has a zero row, S a zero
        row and column off the diagonal, and the gain a zero column.
        """
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

    def __call__(self, xs):
        xs = np.asarray(xs, dtype=float)
        if xs.ndim == 1:
            return self.linearize(xs)[0]
        return np.column_stack([self.linearize(x)[0] for x in xs.T])

    def jacobian(self, x) -> NDArray[np.float64]:
        """Derivative of the residual at one state, ``-H``, shape (m, 25)."""
        return -self.linearize(x)[1]


def build_pseudo_measurements(
    x,
    event: StanceEvent,
    accel_sample,
    gyro_sample,
    cfg: StanceConfig,
    g: float = constants.GRAVITY,
    *,
    mask: NDArray[np.bool_] | None = None,
):
    """Assemble the stance pseudo-measurement stack for one sample.

    The stack, in row order (22 rows when every group is enabled):

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

    Parameters
    ----------
    x : ndarray, shape (25,)
        Predicted state at this sample (used to spot the singular
        gravity-norm gradient).
    event : StanceEvent
    accel_sample, gyro_sample : ndarray, shape (3,)
        The calibrated IMU sample being processed.
    cfg : StanceConfig
    g : float
        Gravity magnitude, m/s^2.
    mask : ndarray of bool, shape (22,), optional
        ``cfg.row_mask()``, for a caller that builds many stacks under
        one configuration and holds it already.

    Returns
    -------
    z_p : ndarray, shape (m,)
        Stacked targets for the enabled groups.
    residual : StanceResidual
        Maps states (25,) or batches (25, k) to residuals
        ``z_p - prediction``; its ``linearize(x)`` gives the residual
        and the closed-form prediction Jacobian together, as
        `zupt_update` uses them.
    variance_scale : ndarray, shape (m,)
        Per-row multipliers for the variances, 1 everywhere except the
        gravity-norm row when ``|a_b|`` is too small to define its
        gradient direction, which gets 1e6.
    """
    x = np.asarray(x, dtype=float)
    accel_sample = np.asarray(accel_sample, dtype=float).reshape(3)
    gyro_sample = np.asarray(gyro_sample, dtype=float).reshape(3)
    g_vec = np.array([0.0, 0.0, -g])
    if mask is None:
        mask = cfg.row_mask()

    z_full = _target_stack(g)
    z_full[0:2] = event.latched_xy
    z_full[16:19] = accel_sample
    z_full[19:22] = gyro_sample
    z_p = z_full[mask]

    scale_full = np.ones(N_PSEUDO)
    fx, fy, fz = x[ACC_B].tolist()
    if math.sqrt(fx * fx + fy * fy + fz * fz) < _NORM_EPS:
        scale_full[_NORM_ROW] = _NORM_INFLATION
    return z_p, StanceResidual(z_full, mask, g_vec), scale_full[mask]


def _confidence_factor(cfg: StanceConfig, scores):
    """``1 + covariance_gain * (1 - score)``, for one score or an array."""
    return 1.0 + cfg.covariance_gain * (1.0 - scores)


def soft_covariance(
    cfg: StanceConfig,
    sfs_k: float,
    base_variances: NDArray[np.float64] | None = None,
) -> NDArray[np.float64]:
    """Confidence-modulated variances for the enabled rows.

    A score of 1 returns the base variances unchanged; lower scores
    scale them up by ``1 + covariance_gain * (1 - score)``, weakening
    the pull of every pseudo-measurement together.  ``base_variances``
    are ``cfg.pseudo_variances`` of the enabled rows, for a caller that
    holds them already.
    """
    if not 0.0 <= sfs_k <= 1.0:
        raise ValueError(f"score {sfs_k} outside [0, 1]")
    if base_variances is None:
        base_variances = cfg.pseudo_variances[cfg.row_mask()]
    return _confidence_factor(cfg, sfs_k) * base_variances


def zupt_update(
    est: StateEstimate,
    residual,
    variances,
    *,
    joseph: bool = True,
) -> StateEstimate:
    """Inject one stance pseudo-measurement into the filter.

    ``residual`` is the `StanceResidual` from
    `build_pseudo_measurements`; its residual and prediction Jacobian
    feed the standard update.
    """
    nu, jac = residual.linearize(est.x)
    return StateEstimate(*_measurement_update(
        est.x, est.P, nu, jac, np.asarray(variances, dtype=float), joseph))


class _StanceStack:
    """The stance update for a loop that owns the filter's mean and
    covariance, with everything that does not change within a run built
    once: one `StanceResidual` over a target stack written in place (the
    latched xy at event start, the IMU sample at each update), and the
    base variances of the enabled rows.

    One update is `zupt_update` with the `build_pseudo_measurements`
    stack and `soft_covariance` variances.  The stack's
    ``variance_scale`` is left out: it only inflates the gravity-norm
    row where `StanceResidual.linearize` zeroes that row, which leaves
    the update unchanged bit for bit.
    """

    def __init__(self, cfg: StanceConfig, g: float):
        mask = cfg.row_mask()
        self.residual = StanceResidual(
            _target_stack(g), slice(None) if mask.all() else mask,
            np.array([0.0, 0.0, -g]))
        self.base_variances = cfg.pseudo_variances[mask]

    def latch(self, x) -> None:
        """Start an event: hold the horizontal position of ``x``."""
        self.residual.z_full[0:2] = x[POS.start:POS.start + 2]

    def update(self, x, p_mat, imu_sample, factor: float, joseph: bool):
        """Update with the calibrated ``imu_sample`` (accel then gyro) and
        the confidence factor of its score."""
        self.residual.z_full[16:22] = imu_sample
        nu, jac = self.residual.linearize(x)
        return _measurement_update(x, p_mat, nu, jac,
                                   factor * self.base_variances, joseph)


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
