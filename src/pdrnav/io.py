"""File formats for the batch pipeline.

Plain text throughout: IMU logs and trajectories are CSV, calibration
and configuration are JSON.  Floats are written with 17 significant
digits so every file round-trips bit-exactly, which is what makes
byte-identical reruns a meaningful promise.

Every JSON document goes through one codec: `_to_doc` writes a
dataclass as an object with one key per field, in field order, arrays
as lists; `_from_doc` reads it back.  Readers are strict.  A missing key
is an error and so is an unknown one; silently defaulted configuration
is how two runs quietly diverge.  Each value must match its field's
annotation (a finite number, a whole number, a boolean, a string, a
list of finite numbers), and an error names the key; shapes and ranges
are the classes' own checks.

CSV files stream in both directions, so a million-row log costs about
its parsed array in memory, not several copies of its text.  Readers
hand the open file, from the first data row on, to `np.loadtxt`, which
skips blank lines and ``#`` comments itself.  Writers format and round
blocks of `_BLOCK_ROWS` rows.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import typing
from dataclasses import dataclass
from itertools import chain

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


def _write_rows(fh, fmt: str, columns, *, rint_from: int | None = None) -> None:
    """Write ``fmt % row`` for every row of the side-by-side ``columns``.

    ``fmt`` has one field per column: ``%.17g`` gives the same bytes as
    `_fmt`, ``%d`` an integer-valued column (counts, flags) as an
    integer.  With ``rint_from``, the columns from that index on are
    rounded to the nearest integer first, a block at a time.
    """
    n = len(columns[0])
    for lo in range(0, n, _BLOCK_ROWS):
        block = np.column_stack([c[lo:lo + _BLOCK_ROWS] for c in columns])
        if rint_from is not None:
            np.rint(block[:, rint_from:], out=block[:, rint_from:])
        fh.writelines([fmt % tuple(row) for row in block.tolist()])


def _read_rows(fh, n_cols: int, label: str) -> np.ndarray:
    """Parse the rest of an open comment-headed CSV, tolerating no data.

    Lines up to the first data row are read here, so a body without one
    gives ``(0, n_cols)`` rather than loadtxt's "no data" warning.
    """
    for line in fh:
        if line.strip() and not line.startswith("#"):
            break
    else:
        return np.empty((0, n_cols))
    rows = np.loadtxt(chain([line], fh), delimiter=",", ndmin=2)
    if rows.shape[1] != n_cols:
        raise ValueError(
            f"{label} rows must have {n_cols} columns, got {rows.shape[1]}"
        )
    return rows


def _read_csv_body(path, n_cols: int, label: str) -> np.ndarray:
    """Read a comment-headed CSV, tolerating an empty body."""
    with open(path) as fh:
        return _read_rows(fh, n_cols, label)


def write_log(path, log: ImuLog) -> None:
    """Write an IMU log: one header line, then `t,ax,ay,az,gx,gy,gz`."""
    with open(path, "w") as fh:
        fh.write(
            f"# fs={_fmt(log.fs)} lsb_a={_fmt(log.lsb_accel)} "
            f"lsb_w={_fmt(log.lsb_gyro)}\n"
        )
        _write_rows(fh, "%.17g" + ",%d" * 6 + "\n",
                    [log.t, log.accel, log.gyro], rint_from=1)


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
        rows = _read_rows(fh, 7, "log")
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


def write_allan_curve(path, taus, adev) -> None:
    """Write an Allan deviation curve as `tau,adev` rows."""
    with open(path, "w") as fh:
        fh.write("# tau,adev\n")
        _write_rows(fh, "%.17g,%.17g\n", [taus, adev])


def _to_doc(obj):
    """``obj`` as a JSON value: a dataclass is an object with one key per
    field, in field order, and arrays are (nested) lists."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _to_doc(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {key: _to_doc(value) for key, value in obj.items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def _is_number(value) -> bool:
    """A finite JSON number; booleans are not numbers."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _is_numbers(value) -> bool:
    if isinstance(value, list):
        return all(map(_is_numbers, value))
    return _is_number(value)


# Per annotated field type: what a JSON value must be, the test, and the
# conversion to the field's value.
_JSON_TYPES = {
    float: ("a finite number", _is_number, float),
    int: ("a whole number",
          lambda v: _is_number(v) and float(v).is_integer(), int),
    bool: ("true or false", lambda v: isinstance(v, bool), bool),
    str: ("a string", lambda v: isinstance(v, str), str),
    np.ndarray: ("a finite number or an evenly nested list of them",
                 _is_numbers, lambda v: np.asarray(v, dtype=float)),
}


@functools.cache
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls)


def _decode(tp, value, where: str):
    """``value`` checked against the annotated type ``tp`` and converted;
    ``where`` names it in the error."""
    if dataclasses.is_dataclass(tp):
        return _from_doc(tp, value, where)
    kind = typing.get_origin(tp) or tp
    if kind is dict:
        if not isinstance(value, dict):
            raise ValueError(f"{where} must be a JSON object, got {value!r}")
        item = typing.get_args(tp)[1]
        return {key: _decode(item, v, f"{where} entry {key!r}")
                for key, v in value.items()}
    what, valid, convert = _JSON_TYPES[kind]
    try:
        if valid(value):
            return convert(value)
    except ValueError:  # a ragged list
        pass
    raise ValueError(f"{where} must be {what}, got {value!r}")


def _from_doc(cls, doc, label: str):
    """The dataclass ``cls`` from a JSON object with exactly its fields.

    Each value must match its field's annotation (see `_JSON_TYPES`);
    shapes and ranges are checked by the class itself, and its error
    is prefixed with ``label``.
    """
    names = [f.name for f in dataclasses.fields(cls)]
    _require_keys(doc, set(names), label)
    types = _field_types(cls)
    values = {name: _decode(types[name], doc[name], f"{label} key {name!r}")
              for name in names}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from exc


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


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_json(path, doc) -> None:
    """Write a JSON document with a trailing newline; dataclasses and
    arrays inside ``doc`` are written as `_to_doc` gives them."""
    with open(path, "w") as fh:
        json.dump(_to_doc(doc), fh, indent=2)
        fh.write("\n")


def _cal_doc(cal: SensorCalibration) -> dict:
    # The file keeps the gain as 9 numbers, row-major.
    return dict(_to_doc(cal), gain=cal.gain.ravel().tolist())


def write_calibration(path, accel: SensorCalibration, gyro: SensorCalibration) -> None:
    """Persist both sensor calibrations to one JSON document."""
    write_json(path, {"accel": _cal_doc(accel), "gyro": _cal_doc(gyro)})


def read_calibration(path) -> tuple[SensorCalibration, SensorCalibration]:
    doc = _read_json(path)
    _require_keys(doc, {"accel", "gyro"}, "calibration file")
    return (
        _from_doc(SensorCalibration, doc["accel"], "accel calibration"),
        _from_doc(SensorCalibration, doc["gyro"], "gyro calibration"),
    )


@dataclass
class PipelineConfig:
    """Everything the tracker needs beyond the log itself."""

    filter: FilterConfig
    stance: StanceConfig
    calibration_paths: dict[str, str]

    def __post_init__(self) -> None:
        _require_keys(self.calibration_paths, {"accel", "gyro"},
                      "calibration_paths")
        self.calibration_paths = {
            key: os.fspath(path) for key, path in self.calibration_paths.items()}


def write_config(path, config: PipelineConfig) -> None:
    """Write the pipeline configuration, every parameter explicit."""
    write_json(path, config)


def read_config(path) -> PipelineConfig:
    return _from_doc(PipelineConfig, _read_json(path), "config file")


def write_gait_params(path, params: GaitParams, fs: float, noise: NoiseParams,
                      lsb_accel: float, lsb_gyro: float) -> None:
    """Persist a simulation scenario: walk, rate, noise, ADC scales."""
    write_json(path, {"gait": params, "fs": fs, "noise": noise,
                      "lsb_accel": lsb_accel, "lsb_gyro": lsb_gyro})


def read_gait_params(path) -> tuple[GaitParams, float, NoiseParams, float, float]:
    doc = _read_json(path)
    label = "simulation parameter file"
    _require_keys(doc, {"gait", "fs", "noise", "lsb_accel", "lsb_gyro"}, label)
    return (
        _from_doc(GaitParams, doc["gait"], "gait section"),
        _decode(float, doc["fs"], f"{label} key 'fs'"),
        _from_doc(NoiseParams, doc["noise"], "noise section"),
        _decode(float, doc["lsb_accel"], f"{label} key 'lsb_accel'"),
        _decode(float, doc["lsb_gyro"], f"{label} key 'lsb_gyro'"),
    )
