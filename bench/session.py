"""Workloads of the pdrnav benchmark: inputs, set-up and one round.

A round is one field session driven through ``pdrnav.cli.main``, one
subcommand after another in a single process:

- ``calibrate`` on 16 still orientations of 500 samples each, rendered
  through a gain with full cross-couplings and a counts bias;
- ``allan`` on each of the six axes of a still log;
- ``simulate`` -> ``track`` -> ``eval`` on a closed square walk.

Every workload runs the whole session, so every end-to-end metric is
measured on each; they differ in which part is large.

The walks are fixed (noise seed 0, the seed of the first criterion-4
walk): closure error varies several-fold from one noise draw to the
next, so a seeded walk would make the accuracy metrics useless as a
yardstick.  The calibration captures are fixed for the same reason (see
`setup`).  ``--seed`` draws the noise of the still log.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

import checks
from pdrnav import calibration, cli, ekf, gait, tracker, zupt
from pdrnav import io as pio

FS = 100.0
G = 9.80665
LSB_A = 4.0 * G / 32768.0                 # +-4 g over 16 bits
LSB_W = np.deg2rad(500.0) / 32768.0       # +-500 deg/s over 16 bits

# Razor-class noise figures per axis, restated here so the Allan check
# compares the program against the benchmark's own numbers.
_DEG = np.pi / 180.0
ACCEL_N = np.array([5.5e-3, 5.1e-3, 7.6e-3])             # (m/s^2)/sqrt(Hz)
GYRO_N = np.array([5.2e-3, 12.1e-3, 5.6e-3]) * _DEG      # (rad/s)/sqrt(Hz)
ACCEL_B = np.array([609e-6, 590e-6, 732e-6])             # m/s^2
GYRO_B = np.array([3.0e-3, 18.0e-3, 4.4e-3]) * _DEG      # rad/s
DENSITIES = np.concatenate([ACCEL_N, GYRO_N])            # allan axes 0..5

ORIENTATIONS = 16
STILL_CAPTURE_SAMPLES = 500
WALK_NOISE_SEED = 0
CAPTURE_SEED = 0
STEP_LENGTH = 1.0
LEAD_IN = TAIL = 1.0


@dataclass(frozen=True)
class Walk:
    """A closed square walk at 100 Hz with 1 m steps."""

    side_m: float
    cadence_hz: float
    stance_s: float

    @property
    def path(self) -> list[list[float]]:
        s = self.side_m
        return [[0.0, 0.0], [s, 0.0], [s, s], [0.0, s], [0.0, 0.0]]


@dataclass(frozen=True)
class Workload:
    name: str
    walk: Walk
    still_samples: int


WORKLOADS = {
    # The criterion-4 gait (1.5 Hz cadence, 0.15 s stances) on a 40 m
    # square: 2,883 samples, stance updates on under a third of them,
    # predict dominates.  The 300 m criterion-4 walk itself is one 15-25 s
    # track call, too long for the host probe to correct.
    "walk": Workload("walk", Walk(10.0, 1.5, 0.15), 100_001),
    # 0.5 Hz cadence and 1.5 s stances on an 8 m square: 1,951 samples,
    # about four fifths under stance updates, so the zupt share triples.
    "slow_walk": Workload("slow_walk", Walk(2.0, 0.5, 1.5), 100_001),
    # The lab session dominates: a 1,000,001-sample still log parsed six
    # times a round.  Its 20 m walk is there so that every end-to-end
    # metric is measured on every workload.
    "imu_characterization": Workload(
        "imu_characterization", Walk(5.0, 1.5, 0.15), 1_000_001),
}

# Calls of each short operation per round.  The host this benchmark was
# tuned on slows down by up to half in bursts of seconds, so one call of
# a sub-second operation is a poor sample; the median of several is not.
REPEATS = 5


def noise_params() -> gait.NoiseParams:
    """Razor-class noise at FS: white density plus a bias random walk
    that wanders by about the bias instability over 100 s."""
    return gait.NoiseParams(
        accel_sigma=ACCEL_N * np.sqrt(FS),
        gyro_sigma=GYRO_N * np.sqrt(FS),
        accel_walk_sigma=ACCEL_B / np.sqrt(100.0 * FS),
        gyro_walk_sigma=GYRO_B / np.sqrt(100.0 * FS),
    )


@dataclass
class Inputs:
    """Files written by set-up and the values the checks expect."""

    dir: str
    walk: checks.WalkTruth
    gain: np.ndarray
    bias: np.ndarray
    still_samples: int

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)


def _spread_directions(n: int) -> np.ndarray:
    """n unit vectors on a golden spiral, (n, 3)."""
    i = np.arange(n) + 0.5
    polar = np.arccos(1.0 - 2.0 * i / n)
    azimuth = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.column_stack([np.sin(polar) * np.cos(azimuth),
                            np.sin(polar) * np.sin(azimuth), np.cos(polar)])


def _random_rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def _still_at(up_body: np.ndarray, n: int) -> gait.GroundTruth:
    """A motionless sensor whose body frame sees the upward gravity
    reaction along ``up_body``: the attitude rotates z onto it."""
    axis = np.cross([0.0, 0.0, 1.0], up_body)
    sin_angle = np.linalg.norm(axis)
    angle = np.arctan2(sin_angle, up_body[2])
    axis = axis / sin_angle if sin_angle > 1e-12 else np.array([1.0, 0.0, 0.0])
    q = np.concatenate([[np.cos(angle / 2.0)], np.sin(angle / 2.0) * axis])
    zeros = np.zeros((n, 3))
    return gait.GroundTruth(
        t=np.arange(n) / FS, p=zeros, v=zeros, a=zeros,
        q_nb=np.tile(q, (n, 1)), omega=zeros, stance=np.ones(n, dtype=bool),
        fs=FS)


def _write_counts(path, truth, accel_cal, gyro_cal, seed) -> None:
    counts_a, counts_w = gait.inverse_imu(truth, accel_cal, gyro_cal,
                                          noise_params(), seed=seed)
    pio.write_log(path, tracker.ImuLog(
        t=truth.t, accel=counts_a, gyro=counts_w, fs=FS,
        lsb_accel=LSB_A, lsb_gyro=LSB_W))


def setup(workload: Workload, seed: int, work_dir: str) -> Inputs:
    """Write every input file of one workload; the same seed writes the
    same bytes."""
    os.makedirs(os.path.join(work_dir, "stills"), exist_ok=True)
    scale_a = gait.scale_calibration(LSB_A)
    scale_w = gait.scale_calibration(LSB_W)

    # Datasheet calibration and default config for tracking the walk,
    # which the simulator renders through the same pure scale.
    cal = os.path.join(work_dir, "cal.json")
    pio.write_calibration(cal, scale_a, scale_w)
    pio.write_config(os.path.join(work_dir, "config.json"), pio.PipelineConfig(
        filter=ekf.default_filter_config(FS),
        stance=zupt.default_stance_config(FS),
        calibration_paths={"accel": cal, "gyro": cal}))
    w = workload.walk
    pio.write_gait_params(
        os.path.join(work_dir, "gait.json"),
        gait.GaitParams(step_length=STEP_LENGTH, cadence=w.cadence_hz,
                        path=w.path, stance_duration=w.stance_s,
                        lead_in=LEAD_IN, tail=TAIL, seed=WALK_NOISE_SEED),
        FS, noise_params(), LSB_A, LSB_W)

    # Calibration sensor: full cross-coupled gain, and a counts bias of
    # 400-800 per axis.  The bias is kept away from zero because its
    # recovery is judged relative to its size and the fit's absolute
    # error is a few counts.  The captures are fixed like the walks: the
    # fit's cost depends on the noise draw (850 to 1,600 secular-equation
    # solves over ten draws), which would make calibrate_s a property of
    # the seed.
    rng = np.random.default_rng(CAPTURE_SEED)
    capture_seeds = rng.integers(0, 2**31, size=ORIENTATIONS)
    gain = (np.eye(3) + rng.uniform(-0.05, 0.05, (3, 3))) / LSB_A
    bias = rng.choice([-1.0, 1.0], 3) * rng.uniform(400.0, 800.0, 3)
    accel_cal = calibration.SensorCalibration(gain=gain, bias=bias,
                                              noise_sigma=1.0)
    ups = _spread_directions(ORIENTATIONS) @ _random_rotation(rng).T
    for k, up in enumerate(ups):
        _write_counts(os.path.join(work_dir, "stills", f"still_{k:02d}.csv"),
                      _still_at(up, STILL_CAPTURE_SAMPLES), accel_cal, scale_w,
                      int(capture_seeds[k]))

    _write_counts(os.path.join(work_dir, "still.csv"),
                  gait.still_truth((workload.still_samples - 1) / FS, FS),
                  scale_a, scale_w, seed)

    return Inputs(
        dir=work_dir,
        walk=checks.walk_truth(w.path, STEP_LENGTH, w.cadence_hz, w.stance_s,
                               LEAD_IN, TAIL, FS),
        gain=gain, bias=bias, still_samples=workload.still_samples)


# Host speed probe.  The hosts this benchmark runs on are shared, and
# their speed swings by up to half for seconds to minutes at a time, far
# more than the bounds in BENCHMARK.json.  Between calls the run times
# this fixed mix of the program's kinds of work (small-array numpy and a
# Cholesky solve, number formatting, CSV parsing, long-vector numpy),
# written without pdrnav so that a change to the program cannot move
# it, and every end-to-end time is scaled by it (`Runner._scaled`).  A
# time reads as seconds on a host where the probe takes PROBE_S.
PROBE_S = 0.035


class HostProbe:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        a = rng.standard_normal((25, 25))
        self._p = a @ a.T / 25.0 + np.eye(25)
        self._h = rng.standard_normal((6, 25))
        self._batch = rng.standard_normal((3, 51))
        self._long = rng.standard_normal(200_000)
        self._csv = [",".join(format(x, ".17g") for x in row)
                     for row in rng.standard_normal((300, 7))]
        self._last = None

    def seconds(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        p, h, u = self._p, self._h, self._batch
        for _ in range(300):
            t = 2.0 * np.cross(u, u[::-1], axis=0)
            v = np.concatenate([u[:1], np.cross(u, t, axis=0)])
            s = h @ p @ h.T + np.eye(6)
            gain = cho_solve(cho_factor(s, lower=True), h @ p).T
            p1 = p - gain @ (h @ p)
            acc += float(v[0, 0]) + float(p1[0, 0]) + float(np.all(np.isfinite(p1)))
        acc += len("".join(",".join(format(x, ".17g") for x in row) for row in p))
        acc += float(np.loadtxt(self._csv, delimiter=",").sum())
        acc += float(np.cumsum(self._long)[-1] + self._long @ self._long)
        elapsed = time.perf_counter() - t0
        if not np.isfinite(acc):
            raise RuntimeError("host probe produced a non-finite result")
        return elapsed

    def around(self, fn, *args):
        """Call ``fn``; return its result, its wall seconds and the mean
        probe time just before and just after it.  The probe after one
        call serves as the probe before the next."""
        before = self._last if self._last is not None else self.seconds()
        t0 = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - t0
        self._last = self.seconds()
        return out, wall, 0.5 * (before + self._last)


@dataclass
class Op:
    kind: str
    seconds: float         # wall clock
    probe: float           # probe seconds around the call
    size: int              # samples or rows the operation handles
    problems: list[str]
    exited_ok: bool


@dataclass
class Runner:
    """Runs subcommands through ``cli.main``, timing each call alone and
    checking its output after the clock stops."""

    tracer: object = None
    probe: HostProbe = field(default_factory=HostProbe)
    ops: list[Op] = field(default_factory=list)
    scores: list[checks.WalkScore] = field(default_factory=list)

    def run(self, kind: str, argv: list[str], size: int, check) -> None:
        main = cli.main if self.tracer is None else self.tracer.op(kind, cli.main)

        def call():
            try:
                return main(argv)
            except Exception:  # a crash fails this operation, not the run
                traceback.print_exc()
                return None

        rc, seconds, probe = self.probe.around(call)
        if rc != 0:
            problems = [f"exit code {rc}"]
        else:
            try:
                problems = check()
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        for p in problems:
            print(f"bench: {kind} failed: {p}", file=sys.stderr)
        self.ops.append(Op(kind, seconds, probe, size, problems, rc == 0))

    def round(self, inputs: Inputs) -> None:
        """One field session: calibrate, six Allan axes, one walk.
        Every call but ``track`` and ``allan`` is made ``REPEATS``
        times on the same inputs."""
        for _ in range(REPEATS):
            self._calibrate(inputs)
        self._allan(inputs)
        for _ in range(REPEATS):
            self._simulate(inputs)
        self._track(inputs)
        for _ in range(REPEATS):
            self._eval(inputs)

    def _calibrate(self, inputs: Inputs) -> None:
        out = inputs.path("fit.json")
        self.run("calibrate", ["calibrate", "--stills", inputs.path("stills"),
                               "--out", out],
                 ORIENTATIONS * STILL_CAPTURE_SAMPLES,
                 lambda: checks.check_calibrate(out, inputs.gain, inputs.bias))

    def _allan(self, inputs: Inputs) -> None:
        for axis in range(6):
            curve = inputs.path(f"allan_{axis}.csv")
            self.run("allan",
                     ["allan", "--log", inputs.path("still.csv"),
                      "--axis", str(axis), "--out", curve],
                     inputs.still_samples,
                     lambda: checks.check_allan(
                         inputs.path(f"allan_{axis}_coefficients.json"), curve,
                         axis, DENSITIES[axis]))

    def _simulate(self, inputs: Inputs) -> None:
        p = inputs.path
        self.run("simulate", ["simulate", "--params", p("gait.json"),
                              "--out", p("walk.csv"), "--truth", p("truth.csv")],
                 inputs.walk.t.size,
                 lambda: checks.check_simulate(p("walk.csv"), p("truth.csv"),
                                               inputs.walk))

    def _track(self, inputs: Inputs) -> None:
        p = inputs.path
        self.run("track", ["track", "--log", p("walk.csv"), "--cal", p("cal.json"),
                           "--config", p("config.json"), "--out", p("traj.csv")],
                 inputs.walk.t.size,
                 lambda: checks.check_track(p("traj.csv"), inputs.walk))

    def _eval(self, inputs: Inputs) -> None:
        p = inputs.path

        def check():
            problems, score = checks.check_eval(p("report.json"), p("traj.csv"),
                                                inputs.walk)
            self.scores.append(score)
            return problems

        self.run("eval", ["eval", "--traj", p("traj.csv"), "--truth", p("truth.csv"),
                          "--ttd", repr(inputs.walk.perimeter),
                          "--out", p("report.json")],
                 inputs.walk.t.size, check)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.problems)

    @property
    def correct(self) -> bool:
        """No operation that exited cleanly wrote a wrong output."""
        return not any(op.problems for op in self.ops if op.exited_ok)

    def _scaled(self, kind: str) -> list[tuple[float, int]]:
        """Seconds and size of each call of ``kind``, the seconds scaled
        by PROBE_S over the median probe of the five calls around it."""
        probes = [op.probe for op in self.ops]
        return [(op.seconds * PROBE_S / statistics.median(probes[max(i - 2, 0):i + 3]),
                 op.size)
                for i, op in enumerate(self.ops) if op.kind == kind]

    def median_seconds(self, kind: str) -> float:
        return statistics.median(s for s, _ in self._scaled(kind))

    def median_rate(self, kind: str) -> float:
        return statistics.median(n / s for s, n in self._scaled(kind))


def end_to_end(runner: Runner, setup_s: float, peak_rss_mb: float) -> dict:
    """Every end-to-end metric as ``{name: (value, unit)}``."""
    nan = float("nan")
    score = runner.scores[-1] if runner.scores else None
    return {
        "setup_s": (setup_s, "s"),
        "simulate_samples_per_s": (runner.median_rate("simulate"), "samples/s"),
        "track_samples_per_s": (runner.median_rate("track"), "samples/s"),
        "eval_s": (runner.median_seconds("eval"), "s"),
        "closure_m": (score.closure_m if score else nan, "m"),
        "checkpoint_rms_m": (score.checkpoint_rms_m if score else nan, "m"),
        "calibrate_s": (runner.median_seconds("calibrate"), "s"),
        "allan_samples_per_s": (runner.median_rate("allan"), "samples/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
