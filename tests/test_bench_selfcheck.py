"""The benchmark harness runs every workload on reduced inputs.

``bench/selfcheck.py`` tracks, evaluates and traces each workload on
small inputs and checks every output, so a change to the library that
breaks the harness, its output checks or the layer functions it traces
fails here and not only when the benchmark is run.  A traced tracker
run pins the filter layer the per-layer metrics read.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pdrnav.tracker
from pdrnav import constants
from pdrnav.gait import GaitParams, generate_gait, inverse_imu, razor_noise, scale_calibration
from pdrnav.tracker import ImuLog

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selfcheck.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    report = proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.returncode == 0, report
    assert "selfcheck: OK" in proc.stdout, report


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_sees_the_filter_layer():
    # The tracer wraps the public functions of each layer module, so the
    # per-sample filter step is visible exactly when the tracker calls
    # `ekf.predict`, `ekf.update` and `zupt.zupt_update` by those names,
    # and the detector pass when `zupt.stance_schedule` calls
    # `zupt.sfs_series` by its name.
    tracing = _load_tracing()
    fs = 100.0
    lsb_a, lsb_w = constants.DEFAULT_LSB_ACCEL, constants.DEFAULT_LSB_GYRO
    cal_a, cal_w = scale_calibration(lsb_a), scale_calibration(lsb_w)
    params = GaitParams(step_length=1.0, cadence=1.5,
                        path=[[0.0, 0.0], [2.0, 0.0], [2.0, 2.0]], seed=3)
    truth = generate_gait(params, fs)
    counts_a, counts_w = inverse_imu(truth, cal_a, cal_w, razor_noise(fs), seed=3)
    log = ImuLog(t=truth.t, accel=counts_a, gyro=counts_w, fs=fs,
                 lsb_accel=lsb_a, lsb_gyro=lsb_w)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traj = pdrnav.tracker.run_tracker(log, cal_a, cal_w)
    finally:
        tracer.uninstall()
    metrics = {name: value for name, (value, _) in
               tracing.layer_metrics(tracer, 0.0).items()}

    assert traj.stance.any()
    assert metrics["ekf.predict_calls_per_sample"] == 1
    assert metrics["zupt.updates_per_sample"] == traj.stance.sum() / traj.t.size
    assert metrics["ekf.predict_us"] > 0
    assert metrics["ekf.update_us"] > 0
    assert metrics["zupt.update_us"] > 0
    assert metrics["zupt.sfs_series_us_per_sample"] > 0
