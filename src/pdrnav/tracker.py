"""Batch tracking pipeline.

Decodes a raw IMU log through its calibration, runs the error-state
filter sample by sample with stance-conditioned pseudo-measurement
updates, and evaluates the resulting trajectory.  Processing is
strictly offline: the stance score is a sliding window over the whole
log, so it is computed up front and the filter loop consumes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calibration import (
    SensorCalibration,
    apply_accel_calibration,
    apply_gyro_calibration,
)
from .constants import ADC_MAX, ADC_MIN
from .ekf import (
    POS,
    QUAT,
    FilterConfig,
    FilterDivergenceError,
    _finite,
    default_filter_config,
    init_state,
    predict,
    update,
)
from .zupt import (
    StanceConfig,
    StanceStack,
    default_stance_config,
    stance_intervals,
    stance_schedule,
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

# Largest distance of a log time step from the sample period, in
# periods.  The filter steps by 1/fs, so a dropped sample (a step of
# 2/fs) or a repeated one would silently shift every later position;
# half a period flags both and lets timestamp jitter through.
_STEP_TOLERANCE = 0.5

# Leading stretch of every log, in seconds, that levels the filter: the
# walker stands still before the first step.
_LEVEL_SECONDS = 1.0

def _check_counts(sensor: str, counts: np.ndarray) -> np.ndarray:
    """The counts as int16, whose range is the 16-bit ADC range: an int16
    array as it is, another integer array after one scan of its extremes
    (0 stands in for those of an empty one) and a cast.  ValueError for
    any other dtype, naming it (float counts are not rounded here), and
    for a count outside the range, naming the count."""
    if counts.dtype == np.int16:
        return counts
    if counts.dtype.kind not in "iu":
        raise ValueError(f"{sensor} counts must be integers, not "
                         f"{counts.dtype}; round and cast them first")
    low, high = counts.min(initial=0), counts.max(initial=0)
    if low < ADC_MIN or high > ADC_MAX:
        bad = high if ADC_MIN <= low else low
        raise ValueError(f"{sensor} count {bad} is outside the 16-bit "
                         f"ADC range [{ADC_MIN}, {ADC_MAX}]")
    return counts.astype(np.int16)


@dataclass
class ImuLog:
    """One recorded (or synthesized) IMU log in raw counts.

    Attributes
    ----------
    t : ndarray, shape (n,)
        Sample times, seconds, strictly increasing.
    accel, gyro : ndarray, shape (n, 3)
        Raw counts, held as int16, whose range is the 16-bit ADC range.
        Given of any integer dtype, they are checked and cast here
        (`_check_counts`), so code that takes a log, such as
        `calibration.batch_means`, need not check them.  Float and bool
        counts are refused: round and cast them first, as in
        ``np.rint(x).astype(np.int32)``.  Cast the counts before
        arithmetic that can leave int16, such as squaring.
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
        for name in ("fs", "lsb_accel", "lsb_gyro"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(
                    f"{name} must be positive and finite, got {value}")
        self.accel = _check_counts("accel", self.accel)
        self.gyro = _check_counts("gyro", self.gyro)


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


@dataclass
class TrackerDiagnostic:
    """What was known at the moment the filter fell over.

    ``stage`` names the stage of the step that failed, ``"predict"``,
    ``"imu"`` or ``"stance"``, found by replaying the sample with a check
    after each stage; ``covariance_condition`` is that of the covariance
    the stage was given.  ``stage`` is None only if the replay passes
    where the step failed, which a deterministic step cannot do.
    """

    sample_index: int
    covariance_condition: float
    message: str
    stage: str | None


class TrackerDivergence(FilterDivergenceError):
    """Filter divergence carrying the partial trajectory.

    Attributes
    ----------
    trajectory : Trajectory
        Every sample finished before the failure.
    diagnostic : TrackerDiagnostic
    """

    def __init__(self, trajectory: Trajectory, diagnostic: TrackerDiagnostic):
        stage = diagnostic.stage
        super().__init__(
            f"filter diverged at sample {diagnostic.sample_index}"
            f"{f' in the {stage} stage' if stage else ''}: "
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


def _check_state(x: np.ndarray, p_mat: np.ndarray) -> None:
    """The divergence check on a filter state: every covariance entry
    finite, the smallest diagonal entry at least -1e-9 times the trace,
    and a finite mean.  It does not symmetrise; `predict` does that once
    per sample.  The kernels do not call it: `run_tracker` checks each
    step's result once, and each stage's only on a replay."""
    if not _finite(p_mat):
        raise FilterDivergenceError("covariance is no longer finite")
    diag = p_mat.diagonal().tolist()
    low = min(diag)
    if low < 0.0 and low < -1e-9 * max(sum(diag), 1e-30):
        raise FilterDivergenceError(
            f"covariance lost positive semidefiniteness (min diag {low:g})"
        )
    if not _finite(x):
        raise FilterDivergenceError("state became non-finite")


def _run_stage(stage, kernel, *args):
    """Run one stage of the filter step: its kernel on ``args``."""
    return kernel(*args)


class _StageFailure(Exception):
    """A checked stage failed; args: its name, the error, its input P."""


def _run_checked(stage, kernel, x, p_mat, *args):
    """`_run_stage`, then `_check_state`; any failure is a `_StageFailure`."""
    try:
        x1, p1 = kernel(x, p_mat, *args)
        _check_state(x1, p1)
    except (FilterDivergenceError, ValueError) as exc:
        raise _StageFailure(stage, exc, p_mat) from exc
    return x1, p1


def _check_time_steps(log: ImuLog) -> None:
    """Refuse a log whose time steps are not its sample period: the
    first step off ``1 / fs`` by more than ``_STEP_TOLERANCE`` periods
    is named by the sample it ends at.  The steps are measured in place
    in one buffer, one float per sample, so that a million-sample log
    checks within its parse's peak."""
    off = np.diff(log.t)
    off *= log.fs
    off -= 1.0
    np.abs(off, out=off)
    outside = off > _STEP_TOLERANCE
    if outside.any():
        k = int(np.argmax(outside)) + 1
        step = log.t[k] - log.t[k - 1]
        raise ValueError(
            f"log time step into sample {k} is {step:g} s, more than half "
            f"a period from 1/fs = {1.0 / log.fs:g} s; the filter steps by "
            f"1/fs, so a gap or a repeated sample would go untracked"
        )


def run_tracker(
    log: ImuLog,
    accel_cal: SensorCalibration,
    gyro_cal: SensorCalibration,
    filter_cfg: FilterConfig | None = None,
    stance_cfg: StanceConfig | None = None,
) -> Trajectory:
    """Track one log from start to finish.

    Per sample: decode counts to physical units, propagate the filter,
    update with the IMU measurement, and while a stance event is active
    inject the pseudo-measurement stack.  The horizontal pseudo-target
    is latched from the estimate at the sample the event starts, after
    that sample's regular update.

    The IMU alone observes neither position nor heading, so the track
    is in its own frame: it starts at the origin with yaw 0, levelled
    on the log's first second, over which the walker stands still.

    Parameters
    ----------
    log : ImuLog
    accel_cal, gyro_cal : SensorCalibration
    filter_cfg : FilterConfig, optional
        Defaults to the sample-rate-matched tuning.  Its ``ts`` must be
        ``1 / log.fs``.
    stance_cfg : StanceConfig, optional
        Defaults likewise.  `stance_schedule` turns it into the samples
        that get a stance update and the weight of each.

    Returns
    -------
    Trajectory

    Raises
    ------
    TrackerDivergence
        If the filter diverges; the exception carries the partial
        trajectory and a diagnostic naming the sample and the stage.
        Each step is checked once, at its end, so a covariance entry
        that one stage leaves non-finite or negative on the diagonal
        is refused only if it is still so at the end of the step; a
        later stage of the same sample may repair it.  Overflow on the
        way there raises no numpy warning: the check reports it.
    ValueError
        If the log is too short (an empty one included) or not still
        enough to level on, the filter's ``ts`` is not the log's sample
        period, or a time step of the log is more than half a period
        away from ``1 / log.fs``; and from `stance_schedule`, if a
        stance window is longer than the log.
    """
    if filter_cfg is None:
        filter_cfg = default_filter_config(log.fs)
    if abs(filter_cfg.ts * log.fs - 1.0) > 1e-9:
        raise ValueError(
            f"filter ts {filter_cfg.ts:g} s does not match the log's "
            f"{log.fs:g} Hz; ts must be 1/fs = {1.0 / log.fs:g} s"
        )
    if stance_cfg is None:
        stance_cfg = default_stance_config(log.fs)
    _check_time_steps(log)

    n = log.t.size
    f_b = apply_accel_calibration(accel_cal, np.asarray(log.accel, dtype=float))
    w_b = apply_gyro_calibration(gyro_cal, np.asarray(log.gyro, dtype=float))

    k_init = min(n, max(int(round(_LEVEL_SECONDS * log.fs)), 1))
    x, p_mat = init_state(np.zeros(3), 0.0, f_b[:k_init], w_b[:k_init],
                          filter_cfg, log.fs)
    scores, active, factors = stance_schedule(f_b, w_b, stance_cfg)

    t_out = log.t
    p_out = np.empty((n, 3))
    q_out = np.empty((n, 4))
    # Per-run constants, built here rather than held on the (mutable)
    # configs: the effective process noise, the stance stack, each
    # sample's variance factor and the IMU measurement vectors.
    q_diag = filter_cfg.effective_q_diag()
    r_diag = filter_cfg.r_diag
    stance = StanceStack(stance_cfg, filter_cfg.g)
    factors = factors.tolist()
    is_active = active.tolist()
    z_imu = np.hstack([f_b, w_b])

    # One filter step on sample k, each stage run as ``run(stage,
    # kernel, x, P, *args)``.  The loop runs it on the mean and
    # covariance held here and checks once at its end.  The kernels
    # return new arrays, so the step's input pair survives a failure,
    # and the failed sample is replayed from it with a check after each
    # stage, to report the stage that caused the divergence.
    def step(x, p_mat, k, run):
        x, p_mat = run("predict", predict, x, p_mat, filter_cfg, q_diag)
        x, p_mat = run("imu", update, x, p_mat, z_imu[k], r_diag)
        if is_active[k]:
            if k == 0 or not is_active[k - 1]:
                stance.latch(x)
            x, p_mat = run("stance", zupt_update, x, p_mat, stance, z_imu[k],
                           factors[k])
        return x, p_mat

    # Overflow in a diverging step is the check's to report; numpy's
    # warnings of it would repeat it, or escape where warnings are
    # errors.  One errstate for the loop, replay included: one a sample
    # would cost microseconds each.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            x_in, p_in = x, p_mat
            try:
                x, p_mat = step(x, p_mat, k, _run_stage)
                _check_state(x, p_mat)
            except (FilterDivergenceError, ValueError) as exc:
                stage, cause, p_given = None, exc, p_mat
                try:
                    step(x_in, p_in, k, _run_checked)
                except _StageFailure as failure:
                    stage, cause, p_given = failure.args
                partial = Trajectory(
                    t=t_out[:k], p=p_out[:k], q_nb=q_out[:k],
                    sfs=scores[:k], stance=active[:k],
                )
                diag = TrackerDiagnostic(
                    sample_index=k,
                    covariance_condition=_condition_number(p_given),
                    message=str(cause),
                    stage=stage,
                )
                raise TrackerDivergence(partial, diag) from cause
            p_out[k] = x[POS]
            q_out[k] = x[QUAT]

    return Trajectory(t=t_out, p=p_out, q_nb=q_out, sfs=scores, stance=active)


def epsilon_ttd(traj: Trajectory, ttd: float) -> float:
    """Return-to-start error normalized by total travelled distance.

    Dimensionless: closure error in meters over ``ttd`` in meters.
    Zero for an ideal tracker on a closed path.
    """
    if not (ttd > 0.0 and math.isfinite(ttd)):
        raise ValueError(f"ttd must be positive and finite, got {ttd}")
    if traj.t.size == 0:
        raise ValueError("empty trajectory")
    return float(np.linalg.norm(traj.p[0] - traj.p[-1])) / ttd


def checkpoint_errors(traj: Trajectory,
                      checkpoints: list[tuple[float, np.ndarray]]) -> list[float]:
    """Euclidean error at the trajectory sample nearest each checkpoint.

    The nearest sample is the closer of the two that bracket the
    checkpoint time; on a tie the earlier one wins.

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
    # The samples either side of each time, clipped to the trajectory,
    # and the later of the two only where it is strictly closer.
    right = np.searchsorted(traj.t, times)
    left = np.maximum(right - 1, 0)
    right = np.minimum(right, traj.t.size - 1)
    nearest = np.where(np.abs(traj.t[right] - times)
                       < np.abs(traj.t[left] - times), right, left)
    offsets = traj.p[nearest] - np.array([p for _, p in checkpoints],
                                         dtype=float).reshape(-1, 3)
    # One norm per row, as `np.linalg.norm` of the 3-vector computes it
    # (the square root of its dot with itself) without the wrapper's
    # checks; the norm over an axis of the block sums in another order
    # and can differ in the last bit.
    return [math.sqrt(row.dot(row)) for row in offsets]


@dataclass
class EvalReport:
    """Closed-walk performance summary."""

    epsilon_ttd: float
    ttd: float
    closure_error: float
    checkpoint_errors: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if not (self.ttd > 0.0 and math.isfinite(self.ttd)):
            raise ValueError(f"ttd must be positive and finite, got {self.ttd}")
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
