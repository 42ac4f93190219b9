"""Batch command line front end.

Five subcommands cover the offline workflow: ``calibrate`` fits the
accelerometer model and the gyro bias from a directory of still
captures, ``track`` runs the filter over a raw log, ``allan``
characterizes sensor noise, ``simulate`` renders a synthetic walk to a
log plus truth sidecar, and ``eval`` scores a trajectory against truth.

Exit codes: 0 on success, 2 on any input problem (unreadable files,
malformed formats, bad arguments, a walk too long to hold in memory), 3
when the filter diverges.  On
divergence the partial trajectory is still written to ``--out`` and the
diagnostic, naming the sample and the stage of the filter step that
failed, goes to stderr.

`main` can be called many times in one process.  It builds its parser
once, on the first call, and looks up the subcommand's ``_cmd_*``
function on every call.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

from .allan import allan_deviation, extract_coefficients
from .calibration import batch_means, fit_accel_calibration
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
from .tracker import (
    ImuLog,
    TrackerDivergence,
    _check_time_steps,
    evaluate_trajectory,
    run_tracker,
)


def _cmd_calibrate(args: argparse.Namespace) -> int:
    names = sorted(
        n for n in os.listdir(args.stills)
        if n.endswith(".csv") and os.path.isfile(os.path.join(args.stills, n))
    )
    if not names:
        raise ValueError(f"no .csv still logs found in {args.stills!r}")
    stills = {name: read_log(os.path.join(args.stills, name))
              for name in names}
    batch = batch_means(stills)
    accel_cal = fit_accel_calibration(batch, args.g)
    # Gyro model is the captures' shared datasheet scale; a still gyro
    # reads its bias, so the bias is the batch's mean count over every
    # capture's samples, and the noise floor comes from the data too.
    lsb_gyro = stills[names[0]].lsb_gyro
    gyro_sigma = batch.gyro_noise_counts * lsb_gyro
    gyro_cal = dataclasses.replace(
        scale_calibration(lsb_gyro, noise_sigma=gyro_sigma),
        bias=batch.gyro_bias)
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
        print(exc, file=sys.stderr)
        return 3
    write_trajectory(args.out, traj)
    return 0


def _cmd_allan(args: argparse.Namespace) -> int:
    log = read_log(args.log)
    # The sweep averages over spans of whole samples, taking each to be
    # 1/fs long, so a gap would shift every span that straddles it.
    _check_time_steps(log)
    fs = log.fs
    if args.axis < 3:
        series = log.accel[:, args.axis] * log.lsb_accel
    else:
        series = log.gyro[:, args.axis - 3] * log.lsb_gyro
    # The parsed rows are four times the series; free them for the sweep.
    del log
    curve = allan_deviation(series, fs)
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
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"{text!r} is not positive and finite")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdrnav",
        description="Foot-mounted pedestrian dead reckoning, batch tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "calibrate",
        help="fit accelerometer gain/bias and gyro bias from a directory "
             "of still logs",
    )
    p.add_argument("--stills", required=True,
                   help="directory of .csv still logs, one orientation each")
    p.add_argument("--out", required=True, help="calibration JSON to write")
    p.add_argument("--g", type=_positive, default=GRAVITY,
                   help="local gravity magnitude, m/s^2 (default %(default)s)")

    p = sub.add_parser("track", help="run the filter over a raw log")
    p.add_argument("--log", required=True, help="raw IMU log CSV")
    p.add_argument("--cal", default=None,
                   help="calibration JSON; omit to use the config's "
                        "calibration_paths")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--out", required=True, help="trajectory CSV to write")

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

    p = sub.add_parser("simulate", help="render a synthetic walk")
    p.add_argument("--params", required=True, help="gait parameter JSON")
    p.add_argument("--out", required=True, help="raw log CSV to write")
    p.add_argument("--truth", required=True, help="truth sidecar CSV to write")

    p = sub.add_parser("eval", help="score a trajectory against truth")
    p.add_argument("--traj", required=True, help="trajectory CSV")
    p.add_argument("--truth", required=True, help="truth sidecar CSV")
    p.add_argument("--ttd", type=_positive, required=True,
                   help="total travelled distance, m")
    p.add_argument("--out", required=True, help="report JSON to write")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # Looked up by name at call time, not bound into the cached parser.
    command = globals()[f"_cmd_{args.command}"]
    try:
        return command(args)
    except (ValueError, OSError, json.JSONDecodeError, MemoryError) as exc:
        print(f"pdrnav {args.command}: {exc}", file=sys.stderr)
        return 2
