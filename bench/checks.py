"""Output checks, computed apart from the program.

Every check reads the files a ``pdrnav`` subcommand wrote with plain
numpy and json, and compares them with values the benchmark derives on
its own: the walk's phase table and footfalls from the gait parameters,
the rendered calibration, the injected noise densities.  Nothing here
imports ``pdrnav``.

Each ``check_*`` function returns a list of problems; an empty list
means the output passed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Acceptance bounds the checks hold the program to.
EPSILON_TTD_MAX = 0.02       # criterion 4: closure over travelled distance
STANCE_F1_MIN = 0.95         # criterion 6: sample-level stance F1
CAL_REL_MAX = 0.01           # criterion 1: gain and bias recovery
ALLAN_REL_MAX = 0.10         # criterion 7: random-walk density recovery

# Tolerances for values the program and the benchmark compute the same
# way: they differ only by floating-point rounding and 17-digit text.
_EXACT_M = 1e-9
_UNIT_NORM = 1e-9


@dataclass(frozen=True)
class WalkTruth:
    """What a simulated walk must look like, derived from its parameters."""

    t: np.ndarray            # (n,) sample times
    stance: np.ndarray       # (n,) bool, foot planted
    footfalls: np.ndarray    # (steps + 1, 2) planted foot positions, in order
    perimeter: float         # path length from the waypoints, m


def walk_truth(path, step_length: float, cadence: float, stance_s: float,
               lead_in: float, tail: float, fs: float) -> WalkTruth:
    """Phase table of a walk: a still lead-in, then one swing and one
    stance per step along the polyline, then a still tail."""
    path = np.asarray(path, dtype=float)
    seg = np.linalg.norm(np.diff(path, axis=0), axis=1)
    perimeter = float(seg.sum())
    steps = max(int(round(perimeter / step_length)), 1)
    swing = 1.0 / cadence - stance_s
    # Phase start times summed step by step, so that a boundary landing
    # on the sample grid rounds the way the generator's clock does.  A
    # sample on a boundary belongs to the phase that starts there.
    clock = lead_in + stance_s
    starts = []
    for _ in range(steps):
        starts.append(clock)
        clock += swing
        starts.append(clock)
        clock += stance_s
    n = int(round((clock + tail) * fs)) + 1
    t = np.arange(n) / fs
    phase = np.searchsorted(np.array(starts), t, side="right")
    stance = phase % 2 == 0
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    arcs = np.linspace(0.0, perimeter, steps + 1)
    footfalls = np.column_stack([
        np.interp(arcs, cum, path[:, 0]), np.interp(arcs, cum, path[:, 1])
    ])
    return WalkTruth(t=t, stance=stance, footfalls=footfalls,
                     perimeter=perimeter)


def read_csv(path) -> np.ndarray:
    """All numeric rows of a comment-headed CSV, as a 2-d array."""
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def stance_runs(mask) -> list[tuple[int, int]]:
    """Maximal runs of True as half-open (start, stop) pairs."""
    padded = np.concatenate([[0], np.asarray(mask, dtype=np.int8), [0]])
    edges = np.flatnonzero(np.diff(padded))
    return list(zip(edges[0::2].tolist(), edges[1::2].tolist()))


def sample_f1(detected, truth) -> float:
    """F1 of a per-sample stance mask."""
    detected = np.asarray(detected, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    tp = int(np.sum(detected & truth))
    wrong = int(np.sum(detected != truth))
    return 2.0 * tp / (2.0 * tp + wrong) if tp or wrong else 0.0


def event_f1(detected, truth, tolerance: int = 5) -> float:
    """F1 of stance events: a detected run matches the first unmatched
    true run that it overlaps and that contains it once widened by
    ``tolerance`` samples on each side."""
    found = stance_runs(detected)
    true = stance_runs(truth)
    used = [False] * len(true)
    hits = 0
    for a, b in found:
        for j, (ta, tb) in enumerate(true):
            if not used[j] and a < tb and b > ta and a >= ta - tolerance \
                    and b <= tb + tolerance:
                used[j] = True
                hits += 1
                break
    return 2.0 * hits / (len(found) + len(true)) if found or true else 0.0


def _times_match(t, expected) -> bool:
    return t.shape == expected.shape and bool(
        np.all(np.abs(t - expected) <= 1e-9))


def check_simulate(log_path, truth_path, walk: WalkTruth) -> list[str]:
    """The log and truth sidecar sample the walk the parameters describe."""
    problems = []
    log = read_csv(log_path)
    truth = read_csv(truth_path)
    n = walk.t.size
    if log.shape != (n, 7):
        problems.append(f"log has shape {log.shape}, expected ({n}, 7)")
    elif not _times_match(log[:, 0], walk.t):
        problems.append("log timestamps are not k / fs")
    if truth.shape != (n, 12):
        problems.append(f"truth has shape {truth.shape}, expected ({n}, 12)")
        return problems
    if not np.array_equal(truth[:, 11] != 0.0, walk.stance):
        bad = int(np.sum((truth[:, 11] != 0.0) != walk.stance))
        problems.append(f"truth stance differs from the phase table on {bad} samples")
    length = float(np.sum(np.linalg.norm(np.diff(truth[:, 1:3], axis=0), axis=1)))
    if abs(length - walk.perimeter) > 1e-6 * walk.perimeter:
        problems.append(f"path length {length:.9g} m, waypoints give "
                        f"{walk.perimeter:.9g} m")
    return problems


def check_track(traj_path, walk: WalkTruth) -> list[str]:
    """One unit-quaternion row per log sample, and the stances found."""
    traj = read_csv(traj_path)
    n = walk.t.size
    if traj.shape != (n, 10):
        return [f"trajectory has shape {traj.shape}, expected ({n}, 10)"]
    problems = []
    if not _times_match(traj[:, 0], walk.t):
        problems.append("trajectory times differ from the log's")
    norm_err = float(np.max(np.abs(np.linalg.norm(traj[:, 4:8], axis=1) - 1.0)))
    if not norm_err <= _UNIT_NORM:
        problems.append(f"quaternion norm off unity by {norm_err:.3g}")
    detected = traj[:, 9] != 0.0
    for label, f1 in (("sample", sample_f1(detected, walk.stance)),
                      ("event", event_f1(detected, walk.stance))):
        if not f1 >= STANCE_F1_MIN:
            problems.append(f"stance {label} F1 {f1:.4f} below {STANCE_F1_MIN}")
    return problems


@dataclass(frozen=True)
class WalkScore:
    closure_m: float
    checkpoint_rms_m: float
    epsilon_ttd: float


def score_walk(traj_path, walk: WalkTruth) -> WalkScore:
    """Closure and the error at every true stance midpoint, from the
    trajectory file and the footfalls alone."""
    traj = read_csv(traj_path)
    p = traj[:, 1:4]
    closure = float(np.linalg.norm(p[-1] - p[0]))
    runs = stance_runs(walk.stance)
    mids = np.array([(a + b) // 2 for a, b in runs])
    planted = np.column_stack([walk.footfalls, np.zeros(len(walk.footfalls))])
    errors = np.linalg.norm(p[mids] - planted[:len(mids)], axis=1)
    return WalkScore(closure_m=closure,
                     checkpoint_rms_m=float(np.sqrt(np.mean(errors**2))),
                     epsilon_ttd=closure / walk.perimeter)


def check_eval(report_path, traj_path, walk: WalkTruth) -> tuple[list[str], WalkScore]:
    """The report agrees with the trajectory, and closure meets criterion 4."""
    score = score_walk(traj_path, walk)
    with open(report_path) as fh:
        report = json.load(fh)
    problems = []
    if abs(report["closure_error"] - score.closure_m) > _EXACT_M:
        problems.append(f"report closure {report['closure_error']!r} m, "
                        f"trajectory gives {score.closure_m!r} m")
    if abs(report["ttd"] - walk.perimeter) > _EXACT_M:
        problems.append(f"report ttd {report['ttd']!r}, path is {walk.perimeter!r}")
    errors = np.asarray(report["checkpoint_errors"], dtype=float)
    n_runs = len(stance_runs(walk.stance))
    if errors.size != n_runs:
        problems.append(f"{errors.size} checkpoints reported, walk has {n_runs} stances")
    else:
        rms = float(np.sqrt(np.mean(errors**2)))
        if abs(rms - score.checkpoint_rms_m) > _EXACT_M:
            problems.append(f"report checkpoint RMS {rms!r} m, footfalls give "
                            f"{score.checkpoint_rms_m!r} m")
    if not score.epsilon_ttd <= EPSILON_TTD_MAX:
        problems.append(f"epsilon_ttd {score.epsilon_ttd:.4f} above {EPSILON_TTD_MAX}")
    return problems, score


def lower_factor(gain) -> np.ndarray:
    """Cholesky factor of gain @ gain.T: the part of a gain that
    still-orientation magnitudes can identify."""
    gain = np.asarray(gain, dtype=float)
    return np.linalg.cholesky(gain @ gain.T)


def check_calibrate(cal_path, gain, bias) -> list[str]:
    """The fitted accelerometer model matches the rendered one."""
    with open(cal_path) as fh:
        fitted = json.load(fh)["accel"]
    ref = lower_factor(gain)
    got = lower_factor(np.reshape(fitted["gain"], (3, 3)))
    rel_gain = float(np.linalg.norm(got - ref) / np.linalg.norm(ref))
    rel_bias = float(np.linalg.norm(np.asarray(fitted["bias"]) - bias)
                     / np.linalg.norm(bias))
    problems = []
    if not rel_gain <= CAL_REL_MAX:
        problems.append(f"gain off by {rel_gain:.3%}")
    if not rel_bias <= CAL_REL_MAX:
        problems.append(f"bias off by {rel_bias:.3%}")
    return problems


def check_allan(coeff_path, curve_path, axis: int, density: float) -> list[str]:
    """The extracted random-walk coefficient matches the injected density."""
    with open(coeff_path) as fh:
        coeffs = json.load(fh)
    problems = []
    if coeffs["axis"] != axis:
        problems.append(f"coefficients are for axis {coeffs['axis']}, asked {axis}")
    rel = abs(coeffs["random_walk"] - density) / density
    if not rel <= ALLAN_REL_MAX:
        problems.append(f"axis {axis} random walk off by {rel:.2%}")
    curve = read_csv(curve_path)
    if curve.shape[0] < 4 or not np.all(np.diff(curve[:, 0]) > 0.0):
        problems.append("Allan curve has too few points or unordered taus")
    return problems
