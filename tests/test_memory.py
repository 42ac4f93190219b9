"""Peak memory of the lab session's long-record paths.

A still record for Allan analysis runs to a million samples, so
rendering, writing and parsing it must cost about the arrays it
produces, not several full-size temporaries.  Peaks are the traced
allocations (numpy reports its buffers to `tracemalloc`) of one call,
counted against the size of an (n, 3) or (n, 7) float64 array.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from pdrnav import constants
from pdrnav.gait import inverse_imu, razor_noise, scale_calibration, still_truth
from pdrnav.io import read_log, write_log
from pdrnav.tracker import ImuLog

FS = 100.0
N = 50_001
COLUMN3 = N * 3 * 8     # bytes of one (n, 3) float64 array


def traced_peak(fn, *args):
    """Return ``fn(*args)`` and the peak bytes allocated during the call
    that were not freed before it; the result stays alive, so it counts."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, peak


def still_log():
    truth = still_truth((N - 1) / FS, FS, yaw=0.4)
    accel, gyro = inverse_imu(
        truth, scale_calibration(constants.DEFAULT_LSB_ACCEL),
        scale_calibration(constants.DEFAULT_LSB_GYRO), razor_noise(FS), seed=3)
    return ImuLog(t=truth.t, accel=accel, gyro=gyro, fs=FS,
                  lsb_accel=constants.DEFAULT_LSB_ACCEL,
                  lsb_gyro=constants.DEFAULT_LSB_GYRO)


def test_inverse_imu_holds_a_few_columns():
    truth = still_truth((N - 1) / FS, FS, yaw=0.4)
    args = (truth, scale_calibration(constants.DEFAULT_LSB_ACCEL),
            scale_calibration(constants.DEFAULT_LSB_GYRO), razor_noise(FS))
    (accel, _), peak = traced_peak(inverse_imu, *args)
    assert accel.shape == (N, 3)
    # The physical arrays, one draw buffer and the counts make 4x;
    # holding all four draws and a batch rotation's temporaries is 11x.
    assert peak <= 6 * COLUMN3, f"peak {peak / COLUMN3:.2f}x an (n, 3) array"


def test_read_log_holds_about_its_rows(tmp_path):
    path = tmp_path / "still.csv"
    write_log(path, still_log())
    log, peak = traced_peak(read_log, path)
    assert log.t.size == N
    parsed = N * 7 * 8
    # The parsed rows plus the time-step check make 1.2x (a full-size
    # integer check on the counts made it 1.5x); reading the body into a
    # string and a StringIO copy first is 4.2x.
    assert peak <= 2 * parsed, f"peak {peak / parsed:.2f}x the (n, 7) rows"


def test_log_checks_float_counts_by_block():
    # Float counts (as `read_log` parses them) are checked for whole
    # values one block at a time.  What is left is the time-step check,
    # one float and one bool per sample (0.38x); a full-size `np.rint`
    # copy and its comparison would add 1.1x.
    log = still_log()
    t = log.t.copy()
    accel, gyro = log.accel.astype(float), log.gyro.astype(float)
    _, peak = traced_peak(lambda: ImuLog(
        t=t, accel=accel, gyro=gyro, fs=FS,
        lsb_accel=log.lsb_accel, lsb_gyro=log.lsb_gyro))
    assert peak <= 0.5 * COLUMN3, f"peak {peak / COLUMN3:.2f}x an (n, 3) array"


def test_write_log_rounds_by_block(tmp_path):
    log = still_log()
    _, peak = traced_peak(write_log, tmp_path / "still.csv", log)
    # One block of formatted rows; full-size rounded copies of the
    # counts would be 2x.
    assert peak < COLUMN3, f"peak {peak / COLUMN3:.2f}x an (n, 3) array"
    assert np.array_equal(read_log(tmp_path / "still.csv").accel, log.accel)
