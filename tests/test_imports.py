"""scipy loads with the first filter update, not with the package.

Importing scipy.linalg takes longer than most subcommands run, and only
the filter's Cholesky factor and solve use it.  In a fresh interpreter,
importing the package and running every subcommand that does not track
must leave scipy unloaded; tracking then loads it and writes the same
trajectory as a process that held scipy all along.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import pdrnav
from pdrnav import cli, constants
from pdrnav.ekf import default_filter_config
from pdrnav.gait import (
    GaitParams,
    inverse_imu,
    razor_noise,
    scale_calibration,
    still_truth,
)
from pdrnav.io import (
    PipelineConfig,
    write_calibration,
    write_config,
    write_gait_params,
    write_log,
)
from pdrnav.tracker import ImuLog
from pdrnav.zupt import default_stance_config

FS = 100.0
LSB_A = constants.DEFAULT_LSB_ACCEL
LSB_W = constants.DEFAULT_LSB_GYRO
PATH = [[0.0, 0.0], [4.0, 0.0], [4.0, 3.0], [0.0, 3.0], [0.0, 0.0]]

# Runs in a fresh interpreter on the directory given as its argument;
# prints the exit codes and the scipy modules loaded after each step.
SESSION = """
import json, sys
import pdrnav, pdrnav.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

d = sys.argv[1]
steps = [
    ("import", None),
    ("simulate", ["simulate", "--params", f"{d}/gait.json",
                  "--out", f"{d}/walk.csv", "--truth", f"{d}/truth.csv"]),
    ("allan", ["allan", "--log", f"{d}/still.csv", "--axis", "3",
               "--out", f"{d}/allan.csv"]),
    ("eval", ["eval", "--traj", f"{d}/reference.csv",
              "--truth", f"{d}/truth.csv", "--ttd", "14",
              "--out", f"{d}/report.json"]),
    ("track", ["track", "--log", f"{d}/walk.csv", "--cal", f"{d}/cal.json",
               "--config", f"{d}/config.json", "--out", f"{d}/traj.csv"]),
]
report = {}
for name, argv in steps:
    code = 0 if argv is None else pdrnav.cli.main(argv)
    report[name] = [code, scipy_modules()]
print(json.dumps(report))
"""


def write_inputs(d: Path) -> None:
    write_gait_params(d / "gait.json",
                      GaitParams(step_length=1.0, cadence=1.5, path=PATH, seed=3),
                      FS, razor_noise(FS), LSB_A, LSB_W)
    write_calibration(d / "cal.json", scale_calibration(LSB_A),
                      scale_calibration(LSB_W))
    write_config(d / "config.json", PipelineConfig(
        filter=default_filter_config(FS), stance=default_stance_config(FS),
        calibration_paths={"accel": str(d / "cal.json"),
                           "gyro": str(d / "cal.json")}))
    truth = still_truth(1000.0, FS)
    accel, gyro = inverse_imu(truth, scale_calibration(LSB_A),
                              scale_calibration(LSB_W), razor_noise(FS), seed=4)
    write_log(d / "still.csv", ImuLog(t=truth.t, accel=accel, gyro=gyro, fs=FS,
                                      lsb_accel=LSB_A, lsb_gyro=LSB_W))


def test_only_tracking_loads_scipy(tmp_path):
    write_inputs(tmp_path)
    # The reference trajectory, tracked here where scipy is loaded.
    ref = tmp_path / "ref"
    ref.mkdir()
    assert cli.main(["simulate", "--params", str(tmp_path / "gait.json"),
                     "--out", str(ref / "walk.csv"),
                     "--truth", str(ref / "truth.csv")]) == 0
    assert cli.main(["track", "--log", str(ref / "walk.csv"),
                     "--cal", str(tmp_path / "cal.json"),
                     "--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path / "reference.csv")]) == 0

    src = os.path.dirname(os.path.dirname(os.path.abspath(pdrnav.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SESSION, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    report = json.loads(proc.stdout.splitlines()[-1])

    for name in ("import", "simulate", "allan", "eval"):
        assert report[name] == [0, []], (name, report[name])
    code, loaded = report["track"]
    assert code == 0 and "scipy.linalg" in loaded
    assert (tmp_path / "traj.csv").read_bytes() == \
        (tmp_path / "reference.csv").read_bytes()
    assert (tmp_path / "walk.csv").read_bytes() == (ref / "walk.csv").read_bytes()
    assert np.isfinite(json.loads(
        (tmp_path / "report.json").read_text())["closure_error"])
