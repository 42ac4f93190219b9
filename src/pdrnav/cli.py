"""Batch command line front end.

Five subcommands cover the offline workflow: ``calibrate`` fits the
accelerometer model from a directory of still captures, ``track`` runs
the filter over a raw log, ``allan`` characterizes sensor noise,
``simulate`` renders a synthetic walk to a log plus truth sidecar, and
``eval`` scores a trajectory against truth.

Exit codes: 0 on success, 2 on any input problem (unreadable files,
malformed formats, bad arguments), 3 when the filter diverges.  On
divergence the partial trajectory is still written to ``--out`` and the
diagnostic goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .allan import allan_deviation, extract_coefficients
from .calibration import (
    MIN_STILL_SAMPLES,
    CalibrationError,
    batch_means,
    fit_accel_calibration,
)
from .constants import GRAVITY
from .gait import generate_gait, inverse_imu, scale_calibration
from .io import (
    read_calibration,
    read_config,
    read_gait_params,
    read_log,
    read_trajectory,
    read_truth,
    write_allan_curve,
    write_calibration,
    write_json,
    write_log,
    write_trajectory,
    write_truth,
)
from .tracker import ImuLog, TrackerDivergence, evaluate_trajectory, run_tracker


def _cmd_calibrate(args: argparse.Namespace) -> int:
    names = sorted(
        n for n in os.listdir(args.stills)
        if n.endswith(".csv") and os.path.isfile(os.path.join(args.stills, n))
    )
    if not names:
        raise ValueError(f"no .csv still logs found in {args.stills!r}")
    stills = []
    lsb_gyro = None
    gyro_stds = []
    for name in names:
        log = read_log(os.path.join(args.stills, name))
        if log.t.size < MIN_STILL_SAMPLES:
            raise ValueError(
                f"{name}: {log.t.size} samples, a still capture needs at "
                f"least {MIN_STILL_SAMPLES}"
            )
        if lsb_gyro is None:
            lsb_gyro = log.lsb_gyro
        elif log.lsb_gyro != lsb_gyro:
            raise ValueError(
                f"{name}: gyro scale {log.lsb_gyro:g} differs from "
                f"{names[0]}'s {lsb_gyro:g}; captures must share one sensor"
            )
        stills.append((log.accel, log.gyro))
        gyro_stds.append(log.gyro.std(axis=0, ddof=1).mean())
    batch = batch_means(stills, lsb_gyro=lsb_gyro,
                        still_gyro_limit=args.still_gyro_limit)
    accel_cal = fit_accel_calibration(batch, args.g)
    # Gyro model is datasheet scale with zero coarse bias; only its
    # noise floor comes from the data.
    gyro_sigma = max(float(np.mean(gyro_stds)) * lsb_gyro, 1e-12)
    gyro_cal = scale_calibration(lsb_gyro, noise_sigma=gyro_sigma)
    write_calibration(args.out, accel_cal, gyro_cal)
    return 0


def _cmd_track(args: argparse.Namespace) -> int:
    log = read_log(args.log)
    config = read_config(args.config)
    if args.cal is not None:
        accel_cal, gyro_cal = read_calibration(args.cal)
    else:
        accel_cal, _ = read_calibration(config.calibration_paths["accel"])
        _, gyro_cal = read_calibration(config.calibration_paths["gyro"])
    try:
        traj = run_tracker(log, accel_cal, gyro_cal,
                           filter_cfg=config.filter, stance_cfg=config.stance)
    except TrackerDivergence as exc:
        write_trajectory(args.out, exc.trajectory)
        d = exc.diagnostic
        print(
            f"filter diverged at sample {d.sample_index} "
            f"(covariance condition {d.covariance_condition:.3e}): {d.message}",
            file=sys.stderr,
        )
        return 3
    write_trajectory(args.out, traj)
    return 0


def _cmd_allan(args: argparse.Namespace) -> int:
    log = read_log(args.log)
    if args.axis < 3:
        series = log.accel[:, args.axis] * log.lsb_accel
    else:
        series = log.gyro[:, args.axis - 3] * log.lsb_gyro
    curve = allan_deviation(series, log.fs,
                            points_per_decade=args.points_per_decade)
    coeffs = extract_coefficients(curve)
    write_allan_curve(args.out, curve.taus, curve.adev)
    sidecar = os.path.splitext(args.out)[0] + "_coefficients.json"
    write_json(sidecar, {
        "axis": args.axis,
        "random_walk": coeffs.random_walk,
        "bias_instability": coeffs.bias_instability,
    })
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    params, fs, noise, lsb_accel, lsb_gyro = read_gait_params(args.params)
    truth = generate_gait(params, fs)
    counts_a, counts_w = inverse_imu(
        truth,
        scale_calibration(lsb_accel),
        scale_calibration(lsb_gyro),
        noise,
        seed=params.seed,
    )
    log = ImuLog(t=truth.t, accel=counts_a, gyro=counts_w, fs=fs,
                 lsb_accel=lsb_accel, lsb_gyro=lsb_gyro)
    write_log(args.out, log)
    write_truth(args.truth, truth)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    traj = read_trajectory(args.traj)
    truth = read_truth(args.truth)
    report = evaluate_trajectory(traj, truth, args.ttd)
    write_json(args.out, report)
    return 0


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not positive")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdrnav",
        description="Foot-mounted pedestrian dead reckoning, batch tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "calibrate",
        help="fit accelerometer gain/bias from a directory of still logs",
    )
    p.add_argument("--stills", required=True,
                   help="directory of .csv still logs, one orientation each")
    p.add_argument("--out", required=True, help="calibration JSON to write")
    p.add_argument("--g", type=_positive, default=GRAVITY,
                   help="local gravity magnitude, m/s^2 (default %(default)s)")
    p.add_argument("--still-gyro-limit", type=_positive, default=0.05,
                   help="reject captures whose median rate exceeds this, rad/s")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("track", help="run the filter over a raw log")
    p.add_argument("--log", required=True, help="raw IMU log CSV")
    p.add_argument("--cal", default=None,
                   help="calibration JSON; omit to use the config's "
                        "calibration_paths")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--out", required=True, help="trajectory CSV to write")
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser(
        "allan",
        help="Allan deviation of one axis of a still log",
    )
    p.add_argument("--log", required=True, help="raw IMU log CSV")
    p.add_argument("--axis", type=int, required=True, choices=range(6),
                   help="0-2 accel x/y/z, 3-5 gyro x/y/z")
    p.add_argument("--out", required=True,
                   help="curve CSV to write; coefficients go to "
                        "<out>_coefficients.json")
    p.add_argument("--points-per-decade", type=int, default=10)
    p.set_defaults(func=_cmd_allan)

    p = sub.add_parser("simulate", help="render a synthetic walk")
    p.add_argument("--params", required=True, help="gait parameter JSON")
    p.add_argument("--out", required=True, help="raw log CSV to write")
    p.add_argument("--truth", required=True, help="truth sidecar CSV to write")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("eval", help="score a trajectory against truth")
    p.add_argument("--traj", required=True, help="trajectory CSV")
    p.add_argument("--truth", required=True, help="truth sidecar CSV")
    p.add_argument("--ttd", type=_positive, required=True,
                   help="total travelled distance, m")
    p.add_argument("--out", required=True, help="report JSON to write")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CalibrationError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"pdrnav {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
