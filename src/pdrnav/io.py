"""File formats for the batch pipeline.

Plain text throughout: IMU logs and trajectories are CSV, calibration
and configuration are JSON.  Floats are written with 17 significant
digits so every file round-trips bit-exactly, which is what makes
byte-identical reruns a meaningful promise.

Readers are strict.  A missing key is an error and so is an unknown
one; silently defaulted configuration is how two runs quietly diverge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from io import StringIO

import numpy as np

from .calibration import SensorCalibration
from .ekf import FilterConfig
from .gait import GaitParams, GroundTruth, NoiseParams
from .tracker import ImuLog, Trajectory
from .zupt import StanceConfig

__all__ = [
    "ImuLog",
    "PipelineConfig",
    "read_log",
    "write_log",
    "read_truth",
    "write_truth",
    "read_trajectory",
    "write_trajectory",
    "read_calibration",
    "write_calibration",
    "read_config",
    "write_config",
    "read_gait_params",
    "write_gait_params",
    "write_allan_curve",
    "write_json",
]

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# Rows per block in `_write_rows`: large enough to amortise the numpy
# calls, small enough that a million-row log never exists as Python
# objects all at once.
_BLOCK_ROWS = 1024


def _write_rows(fh, fmt: str, columns) -> None:
    """Write ``fmt % row`` for every row of the side-by-side ``columns``.

    ``fmt`` has one field per column: ``%.17g`` gives the same bytes as
    `_fmt`, ``%d`` an integer-valued column (counts, flags) as an
    integer.
    """
    n = len(columns[0])
    for lo in range(0, n, _BLOCK_ROWS):
        block = np.column_stack([c[lo:lo + _BLOCK_ROWS] for c in columns])
        fh.writelines([fmt % tuple(row) for row in block.tolist()])


def _read_csv_body(path, n_cols: int, label: str) -> np.ndarray:
    """Read a comment-headed CSV, tolerating an empty body."""
    with open(path) as fh:
        body = "".join(
            line for line in fh if line.strip() and not line.startswith("#")
        )
    if not body:
        return np.empty((0, n_cols))
    rows = np.loadtxt(StringIO(body), delimiter=",", ndmin=2)
    if rows.shape[1] != n_cols:
        raise ValueError(
            f"{label} rows must have {n_cols} columns, got {rows.shape[1]}"
        )
    return rows


def write_log(path, log: ImuLog) -> None:
    """Write an IMU log: one header line, then `t,ax,ay,az,gx,gy,gz`."""
    with open(path, "w") as fh:
        fh.write(
            f"# fs={_fmt(log.fs)} lsb_a={_fmt(log.lsb_accel)} "
            f"lsb_w={_fmt(log.lsb_gyro)}\n"
        )
        _write_rows(fh, "%.17g" + ",%d" * 6 + "\n",
                    [log.t, np.rint(log.accel), np.rint(log.gyro)])


def read_log(path) -> ImuLog:
    """Parse an IMU log written by `write_log` (or the simulator)."""
    with open(path) as fh:
        header = fh.readline().strip()
        fields = {}
        if header.startswith("#"):
            for token in header[1:].split():
                if "=" in token:
                    key, _, value = token.partition("=")
                    fields[key] = value
        missing = {"fs", "lsb_a", "lsb_w"} - fields.keys()
        if missing:
            raise ValueError(
                f"log header must declare fs, lsb_a, lsb_w; missing {sorted(missing)}"
            )
        body = fh.read()
    if body.strip():
        rows = np.loadtxt(StringIO(body), delimiter=",", ndmin=2)
    else:
        rows = np.empty((0, 7))
    if rows.shape[1] != 7:
        raise ValueError(f"log rows must have 7 columns, got {rows.shape[1]}")
    return ImuLog(
        t=rows[:, 0],
        accel=rows[:, 1:4],
        gyro=rows[:, 4:7],
        fs=float(fields["fs"]),
        lsb_accel=float(fields["lsb_a"]),
        lsb_gyro=float(fields["lsb_w"]),
    )


_TRUTH_HEADER = "# t,px,py,pz,vx,vy,vz,qw,qx,qy,qz,stance"


def write_truth(path, truth: GroundTruth) -> None:
    """Write the ground-truth sidecar: `t, p, v, q, stance` per row."""
    with open(path, "w") as fh:
        fh.write(_TRUTH_HEADER + "\n")
        _write_rows(fh, ",".join(["%.17g"] * 11) + ",%d\n",
                    [truth.t, truth.p, truth.v, truth.q_nb, truth.stance])


def read_truth(path) -> GroundTruth:
    """Read a truth sidecar.

    The sidecar stores the kinematics evaluation needs; acceleration
    and angular rate are not part of the format and come back as zeros.
    """
    rows = _read_csv_body(path, 12, "truth")
    n = rows.shape[0]
    t = rows[:, 0]
    fs = 1.0 / float(np.median(np.diff(t))) if n > 1 else 0.0
    return GroundTruth(
        t=t,
        p=rows[:, 1:4],
        v=rows[:, 4:7],
        a=np.zeros((n, 3)),
        q_nb=rows[:, 7:11],
        omega=np.zeros((n, 3)),
        stance=rows[:, 11] != 0.0,
        fs=fs,
    )


_TRAJ_HEADER = "# t,px,py,pz,qw,qx,qy,qz,sfs,stance"


def write_trajectory(path, traj: Trajectory) -> None:
    """Write an estimated trajectory, floats at full precision."""
    with open(path, "w") as fh:
        fh.write(_TRAJ_HEADER + "\n")
        _write_rows(fh, ",".join(["%.17g"] * 9) + ",%d\n",
                    [traj.t, traj.p, traj.q_nb, traj.sfs, traj.stance])


def read_trajectory(path) -> Trajectory:
    rows = _read_csv_body(path, 10, "trajectory")
    return Trajectory(
        t=rows[:, 0],
        p=rows[:, 1:4],
        q_nb=rows[:, 4:8],
        sfs=rows[:, 8],
        stance=rows[:, 9] != 0.0,
    )


def _cal_to_dict(cal: SensorCalibration) -> dict:
    return {
        "gain": [float(x) for x in np.asarray(cal.gain).ravel()],
        "bias": [float(x) for x in np.asarray(cal.bias)],
        "noise_sigma": float(cal.noise_sigma),
    }


def _cal_from_dict(d: dict, label: str) -> SensorCalibration:
    _require_keys(d, {"gain", "bias", "noise_sigma"}, label)
    gain = np.asarray(d["gain"], dtype=float)
    if gain.shape != (9,):
        raise ValueError(f"{label} gain must be 9 numbers row-major")
    bias = np.asarray(d["bias"], dtype=float)
    if bias.shape != (3,):
        raise ValueError(f"{label} bias must be 3 numbers")
    return SensorCalibration(
        gain=gain.reshape(3, 3), bias=bias, noise_sigma=float(d["noise_sigma"])
    )


def write_calibration(path, accel: SensorCalibration, gyro: SensorCalibration) -> None:
    """Persist both sensor calibrations to one JSON document."""
    doc = {"accel": _cal_to_dict(accel), "gyro": _cal_to_dict(gyro)}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_calibration(path) -> tuple[SensorCalibration, SensorCalibration]:
    with open(path) as fh:
        doc = json.load(fh)
    _require_keys(doc, {"accel", "gyro"}, "calibration file")
    return (
        _cal_from_dict(doc["accel"], "accel calibration"),
        _cal_from_dict(doc["gyro"], "gyro calibration"),
    )


def _require_keys(d: dict, expected: set, label: str) -> None:
    if not isinstance(d, dict):
        raise ValueError(f"{label} must be a JSON object")
    missing = expected - d.keys()
    unknown = d.keys() - expected
    if missing or unknown:
        raise ValueError(
            f"{label} must have exactly keys {sorted(expected)}; "
            f"missing {sorted(missing)}, unknown {sorted(unknown)}"
        )


@dataclass
class PipelineConfig:
    """Everything the tracker needs beyond the log itself."""

    filter: FilterConfig
    stance: StanceConfig
    calibration_paths: dict

    def __post_init__(self) -> None:
        _require_keys(self.calibration_paths, {"accel", "gyro"},
                      "calibration_paths")


def write_config(path, config: PipelineConfig) -> None:
    """Write the pipeline configuration, every parameter explicit."""
    doc = {
        "filter": config.filter.to_dict(),
        "stance": config.stance.to_dict(),
        "calibration_paths": {
            "accel": str(config.calibration_paths["accel"]),
            "gyro": str(config.calibration_paths["gyro"]),
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_config(path) -> PipelineConfig:
    with open(path) as fh:
        doc = json.load(fh)
    _require_keys(doc, {"filter", "stance", "calibration_paths"}, "config file")
    return PipelineConfig(
        filter=FilterConfig.from_dict(doc["filter"]),
        stance=StanceConfig.from_dict(doc["stance"]),
        calibration_paths=dict(doc["calibration_paths"]),
    )


_GAIT_KEYS = {
    "step_length", "cadence", "path", "stance_duration",
    "swing_peak_height", "lead_in", "tail", "seed",
}
_NOISE_KEYS = {"accel_sigma", "gyro_sigma", "accel_walk_sigma", "gyro_walk_sigma"}


def write_gait_params(path, params: GaitParams, fs: float, noise: NoiseParams,
                      lsb_accel: float, lsb_gyro: float) -> None:
    """Persist a simulation scenario: walk, rate, noise, ADC scales."""
    doc = {
        "gait": {
            "step_length": params.step_length,
            "cadence": params.cadence,
            "path": [[float(x), float(y)] for x, y in params.path],
            "stance_duration": params.stance_duration,
            "swing_peak_height": params.swing_peak_height,
            "lead_in": params.lead_in,
            "tail": params.tail,
            "seed": params.seed,
        },
        "fs": fs,
        "noise": {key: [float(x) for x in getattr(noise, key)]
                  for key in sorted(_NOISE_KEYS)},
        "lsb_accel": lsb_accel,
        "lsb_gyro": lsb_gyro,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_gait_params(path) -> tuple[GaitParams, float, NoiseParams, float, float]:
    with open(path) as fh:
        doc = json.load(fh)
    _require_keys(doc, {"gait", "fs", "noise", "lsb_accel", "lsb_gyro"},
                  "simulation parameter file")
    _require_keys(doc["gait"], _GAIT_KEYS, "gait section")
    _require_keys(doc["noise"], _NOISE_KEYS, "noise section")
    gait = doc["gait"]
    params = GaitParams(
        step_length=float(gait["step_length"]),
        cadence=float(gait["cadence"]),
        path=gait["path"],
        stance_duration=float(gait["stance_duration"]),
        swing_peak_height=float(gait["swing_peak_height"]),
        lead_in=float(gait["lead_in"]),
        tail=float(gait["tail"]),
        seed=int(gait["seed"]),
    )
    noise = NoiseParams(**{key: np.asarray(doc["noise"][key], dtype=float)
                           for key in _NOISE_KEYS})
    return (params, float(doc["fs"]), noise,
            float(doc["lsb_accel"]), float(doc["lsb_gyro"]))


def write_allan_curve(path, taus, adev) -> None:
    """Write an Allan deviation curve as `tau,adev` rows."""
    taus = np.asarray(taus, dtype=float)
    adev = np.asarray(adev, dtype=float)
    with open(path, "w") as fh:
        fh.write("# tau,adev\n")
        for tau, dev in zip(taus, adev):
            fh.write(f"{_fmt(tau)},{_fmt(dev)}\n")


def write_json(path, doc: dict) -> None:
    """Write a small JSON report with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
