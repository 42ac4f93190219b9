"""Batch tracking pipeline.

Decodes a raw IMU log through its calibration, runs the error-state
filter sample by sample with stance-conditioned pseudo-measurement
updates, and evaluates the resulting trajectory.  Processing is
strictly offline: the stance score is a sliding window over the whole
log, so it is computed up front and the filter loop consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import constants
from .calibration import (
    SensorCalibration,
    apply_accel_calibration,
    apply_gyro_calibration,
)
from .ekf import (
    POS,
    QUAT,
    FilterConfig,
    FilterDivergenceError,
    default_filter_config,
    init_state,
    predict,
    update,
)
from .zupt import (
    StanceConfig,
    StanceStack,
    _confidence_factor,
    default_stance_config,
    hard_series,
    sfs_series,
    stance_intervals,
    zupt_update,
)

__all__ = [
    "ImuLog",
    "Trajectory",
    "TrackerDiagnostic",
    "TrackerDivergence",
    "EvalReport",
    "run_tracker",
    "epsilon_ttd",
    "checkpoint_errors",
    "evaluate_trajectory",
]

_ADC_MIN, _ADC_MAX = -32768, 32767

# Rows per block when float counts are checked for whole values, so the
# check's temporaries stay small next to a long log.
_CHECK_ROWS = 4096


def _whole_numbers(counts: np.ndarray) -> bool:
    """Whether every count is a whole number; integer arrays are by type,
    float arrays are compared with their rounding block by block."""
    if counts.dtype.kind in "iu":
        return True
    return all(
        (block == np.rint(block)).all()
        for block in (counts[lo:lo + _CHECK_ROWS]
                      for lo in range(0, counts.shape[0], _CHECK_ROWS))
    )


@dataclass
class ImuLog:
    """One recorded (or synthesized) IMU log in raw counts.

    Attributes
    ----------
    t : ndarray, shape (n,)
        Sample times, seconds, strictly increasing.
    accel, gyro : ndarray, shape (n, 3)
        Raw integer counts.
    fs : float
        Sample rate, Hz.
    lsb_accel, lsb_gyro : float
        Physical value of one count (m/s^2, rad/s).
    """

    t: np.ndarray
    accel: np.ndarray
    gyro: np.ndarray
    fs: float
    lsb_accel: float
    lsb_gyro: float

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=float)
        self.accel = np.asarray(self.accel)
        self.gyro = np.asarray(self.gyro)
        n = self.t.size
        if self.accel.shape != (n, 3) or self.gyro.shape != (n, 3):
            raise ValueError("accel and gyro must be (n, 3) matching t")
        if n > 1 and not np.all(np.diff(self.t) > 0.0):
            raise ValueError("log times must be strictly increasing")
        if self.fs <= 0.0 or self.lsb_accel <= 0.0 or self.lsb_gyro <= 0.0:
            raise ValueError("fs and LSB scales must be positive")
        for name, counts in (("accel", self.accel), ("gyro", self.gyro)):
            if counts.size == 0:
                continue
            if not _whole_numbers(counts):
                raise ValueError(f"{name} counts must be integers")
            if counts.min() < _ADC_MIN or counts.max() > _ADC_MAX:
                raise ValueError(
                    f"{name} counts outside the 16-bit ADC range "
                    f"[{_ADC_MIN}, {_ADC_MAX}]"
                )


@dataclass
class Trajectory:
    """Estimated path, one row per processed sample."""

    t: np.ndarray
    p: np.ndarray
    q_nb: np.ndarray
    sfs: np.ndarray
    stance: np.ndarray

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        self.q_nb = np.asarray(self.q_nb, dtype=float)
        self.sfs = np.asarray(self.sfs, dtype=float)
        self.stance = np.asarray(self.stance, dtype=bool)
        n = self.t.size
        if (self.p.shape != (n, 3) or self.q_nb.shape != (n, 4)
                or self.sfs.shape != (n,) or self.stance.shape != (n,)):
            raise ValueError("trajectory arrays must share the sample count")
        if n > 1 and not np.all(np.diff(self.t) > 0.0):
            raise ValueError("trajectory times must be strictly increasing")


def _empty_trajectory() -> Trajectory:
    return Trajectory(
        t=np.empty(0), p=np.empty((0, 3)), q_nb=np.empty((0, 4)),
        sfs=np.empty(0), stance=np.empty(0, dtype=bool),
    )


@dataclass
class TrackerDiagnostic:
    """What was known at the moment the filter fell over."""

    sample_index: int
    covariance_condition: float
    message: str


class TrackerDivergence(FilterDivergenceError):
    """Filter divergence carrying the partial trajectory.

    Attributes
    ----------
    trajectory : Trajectory
        Every sample finished before the failure.
    diagnostic : TrackerDiagnostic
    """

    def __init__(self, trajectory: Trajectory, diagnostic: TrackerDiagnostic):
        super().__init__(
            f"filter diverged at sample {diagnostic.sample_index}: "
            f"{diagnostic.message} "
            f"(covariance condition {diagnostic.covariance_condition:.3g})"
        )
        self.trajectory = trajectory
        self.diagnostic = diagnostic


def _condition_number(p_mat: np.ndarray) -> float:
    try:
        cond = float(np.linalg.cond(p_mat))
    except np.linalg.LinAlgError:
        return float("inf")
    return cond if np.isfinite(cond) else float("inf")


def run_tracker(
    log: ImuLog,
    accel_cal: SensorCalibration,
    gyro_cal: SensorCalibration,
    filter_cfg: FilterConfig | None = None,
    stance_cfg: StanceConfig | None = None,
    *,
    p0=(0.0, 0.0, 0.0),
    heading0: float = 0.0,
    init_duration: float = 1.0,
) -> Trajectory:
    """Track one log from start to finish.

    Per sample: decode counts to physical units, propagate the filter,
    update with the IMU measurement, evaluate the stance score, and
    while a stance event is active inject the pseudo-measurement stack.
    The horizontal pseudo-target is latched from the estimate at the
    sample the event starts, after that sample's regular update.

    Parameters
    ----------
    log : ImuLog
    accel_cal, gyro_cal : SensorCalibration
    filter_cfg : FilterConfig, optional
        Defaults to the sample-rate-matched tuning.
    stance_cfg : StanceConfig, optional
        Defaults likewise.  Its ``mode`` selects soft score-modulated
        updates, a hard binary detector, or no stance updates at all.
    p0 : array_like, shape (3,)
        Starting position.
    heading0 : float
        Initial yaw, radians (not observable from the IMU alone).
    init_duration : float
        Leading still stretch used to level the filter, seconds.

    Returns
    -------
    Trajectory

    Raises
    ------
    TrackerDivergence
        If the filter diverges; the exception carries the partial
        trajectory and a diagnostic.
    ValueError
        If the log is too short or not still enough to initialize.
    """
    if filter_cfg is None:
        filter_cfg = default_filter_config(log.fs)
    if stance_cfg is None:
        stance_cfg = default_stance_config(log.fs)

    n = log.t.size
    if n == 0:
        return _empty_trajectory()

    f_b = apply_accel_calibration(accel_cal, np.asarray(log.accel, dtype=float))
    w_b = apply_gyro_calibration(gyro_cal, np.asarray(log.gyro, dtype=float))

    scores = sfs_series(f_b, w_b, stance_cfg)
    if stance_cfg.mode == "soft":
        active = scores >= stance_cfg.sfs_threshold
    elif stance_cfg.mode == "hard":
        active = hard_series(f_b, w_b, stance_cfg)
    else:
        active = np.zeros(n, dtype=bool)

    k_init = min(n, max(int(round(init_duration * log.fs)), 1))
    x, p_mat = init_state(np.asarray(p0, dtype=float), heading0,
                          f_b[:k_init], w_b[:k_init], filter_cfg, log.fs)

    t_out = log.t
    p_out = np.empty((n, 3))
    q_out = np.empty((n, 4))
    # Per-run constants, built here rather than held on the (mutable)
    # configs: the effective process noise, the stance stack, each
    # sample's confidence factor and the IMU measurement vectors.
    q_diag = filter_cfg.effective_q_diag()
    r_diag = filter_cfg.r_diag
    stance = StanceStack(stance_cfg, filter_cfg.g)
    factors = (_confidence_factor(stance_cfg, scores)
               if stance_cfg.mode == "soft" else np.ones(n))
    z_imu = np.hstack([f_b, w_b])

    # One filter step per sample on the mean and covariance held here;
    # each stage checks its own result, so a divergence is reported at
    # the sample and stage that caused it.
    for k in range(n):
        try:
            x, p_mat = predict(x, p_mat, filter_cfg, q_diag)
            x, p_mat = update(x, p_mat, z_imu[k], r_diag)
            if active[k]:
                if k == 0 or not active[k - 1]:
                    stance.latch(x)
                x, p_mat = zupt_update(x, p_mat, stance, z_imu[k], factors[k])
            if not np.isfinite(x).all():
                raise FilterDivergenceError("state became non-finite")
        except (FilterDivergenceError, np.linalg.LinAlgError, ValueError) as exc:
            partial = Trajectory(
                t=t_out[:k], p=p_out[:k], q_nb=q_out[:k],
                sfs=scores[:k], stance=active[:k],
            )
            diag = TrackerDiagnostic(
                sample_index=k,
                covariance_condition=_condition_number(p_mat),
                message=str(exc),
            )
            raise TrackerDivergence(partial, diag) from exc
        p_out[k] = x[POS]
        q_out[k] = x[QUAT]

    return Trajectory(t=t_out, p=p_out, q_nb=q_out, sfs=scores, stance=active)


def epsilon_ttd(traj: Trajectory, ttd: float) -> float:
    """Return-to-start error normalized by total travelled distance.

    Dimensionless: closure error in meters over ``ttd`` in meters.
    Zero for an ideal tracker on a closed path.
    """
    if ttd <= 0.0:
        raise ValueError("ttd must be positive")
    if traj.t.size == 0:
        raise ValueError("empty trajectory")
    return float(np.linalg.norm(traj.p[0] - traj.p[-1])) / ttd


def checkpoint_errors(traj: Trajectory,
                      checkpoints: list[tuple[float, np.ndarray]]) -> list[float]:
    """Euclidean error at the trajectory sample nearest each checkpoint.

    Parameters
    ----------
    traj : Trajectory
    checkpoints : list of (t, p_true)
        Times must fall within the trajectory span.

    Returns
    -------
    list of float
        One distance (m) per checkpoint, in order.
    """
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


@dataclass
class EvalReport:
    """Closed-walk performance summary."""

    epsilon_ttd: float
    ttd: float
    closure_error: float
    checkpoint_errors: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.ttd <= 0.0:
            raise ValueError("ttd must be positive")
        if self.closure_error < 0.0 or self.epsilon_ttd < 0.0:
            raise ValueError("errors must be non-negative")
        if any(e < 0.0 for e in self.checkpoint_errors):
            raise ValueError("checkpoint errors must be non-negative")
        expected = self.closure_error / self.ttd
        if abs(self.epsilon_ttd - expected) > 1e-12 * max(1.0, expected):
            raise ValueError("epsilon_ttd must equal closure_error / ttd")


def evaluate_trajectory(traj: Trajectory, truth, ttd: float) -> EvalReport:
    """Score a trajectory against ground truth.

    Checkpoints are the truth positions at the midpoint of every true
    stance interval that falls inside the trajectory span; the foot is
    planted there, so the reference is unambiguous.

    Raises
    ------
    ValueError
        If the trajectory has no samples.
    """
    if traj.t.size == 0:
        raise ValueError("empty trajectory")
    closure = float(np.linalg.norm(traj.p[0] - traj.p[-1]))
    checkpoints = []
    for start, stop in stance_intervals(truth.stance):
        mid = (start + stop) // 2
        tc = truth.t[mid]
        if traj.t[0] <= tc <= traj.t[-1]:
            checkpoints.append((tc, truth.p[mid]))
    errors = checkpoint_errors(traj, checkpoints) if checkpoints else []
    return EvalReport(
        epsilon_ttd=closure / ttd,
        ttd=ttd,
        closure_error=closure,
        checkpoint_errors=errors,
    )
