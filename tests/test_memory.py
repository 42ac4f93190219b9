"""Peak memory of the lab session's long-record paths.

A still record for Allan analysis runs to a million samples, so
its truth, rendering, writing, parsing and analysis must cost about the
arrays they produce, not several full-size temporaries.  Peaks are the traced
allocations (numpy reports its buffers to `tracemalloc`) of one call,
counted against the size of an (n, 3) float64 array or of the parsed
log rows.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
# numpy imports these on first use: `numpy.random` on the first read of
# `np.random` (the generator in `inverse_imu`) and `numpy.ma` in the
# first `np.unique` call (the tau grid in `allan_deviation`).  Each
# import traces 0.5-1 MB once per process, so a test run on its own
# would count it in the first traced call; importing them here keeps
# that set-up out of every peak.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from pdrnav import cli, constants
from pdrnav.allan import allan_deviation
from pdrnav.calibration import batch_means
from pdrnav.gait import inverse_imu, razor_noise, scale_calibration, still_truth
from pdrnav.io import read_log, write_log, write_trajectory
from pdrnav.tracker import ImuLog, Trajectory

FS = 100.0
N = 50_001
COLUMN3 = N * 3 * 8     # bytes of one (n, 3) float64 array
# Bytes of the log rows as parsed when counts were int32 (a float64 time
# and six int32 counts); int16 counts make 20-byte rows.
ROWS32 = N * 32
WALK = 2_883            # samples of the benchmark's walk


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


def test_still_truth_holds_its_time_column():
    truth, peak = traced_peak(still_truth, (N - 1) / FS, FS, 0.4)
    assert truth.p.shape == truth.omega.shape == (N, 3)
    assert truth.q_nb.shape == (N, 4) and truth.stance.shape == (N,)
    # The time column and its integer ramp make 0.67x; the six constant
    # arrays stored at full length made 5.7x.  They are read-only views.
    assert peak <= COLUMN3, f"peak {peak / COLUMN3:.2f}x an (n, 3) array"
    for name in ("p", "v", "a", "q_nb", "omega", "stance"):
        assert not getattr(truth, name).flags.writeable, name


def test_inverse_imu_holds_a_few_columns():
    truth = still_truth((N - 1) / FS, FS, yaw=0.4)
    args = (truth, scale_calibration(constants.DEFAULT_LSB_ACCEL),
            scale_calibration(constants.DEFAULT_LSB_GYRO), razor_noise(FS))
    (accel, _), peak = traced_peak(inverse_imu, *args)
    assert accel.shape == (N, 3)
    # Both sensors' int16 counts make 0.5x; with the kept first block of
    # white gyro draws and a few blocks of rows the call peaks at 0.89x.
    # A full-length accel physical array and int32 counts peaked at
    # 1.80x; rendering the gyro into a physical array of its own as well
    # made 2.67x; a full-length draw buffer and float counts made 4.0x;
    # holding all four draws and a batch rotation's temporaries is 11x.
    assert peak <= 1.25 * COLUMN3, \
        f"peak {peak / COLUMN3:.2f}x an (n, 3) array"


def test_allan_deviation_holds_two_series():
    series = np.random.default_rng(5).standard_normal(N)
    curve, peak = traced_peak(allan_deviation, series, FS)
    assert curve.adev.size > 10
    # The centred copy and the integral make 2.01x, and the second
    # difference buffer takes the centred copy's place; concatenating
    # the integral and dividing it into a new array made 3.01x.
    assert peak <= 2.25 * series.nbytes, \
        f"peak {peak / series.nbytes:.2f}x the series"


def test_batch_means_holds_a_few_blocks():
    # One long capture among short ones, in int16 counts as every
    # `ImuLog` holds them; the bound is in bytes of the same counts as
    # float64.  The call peaks at 0.32x those (0.31x from float counts):
    # the long capture's rates and one column of them (0.16x each)
    # while it is checked; a block of its squared deviations is 786 KB.
    # A full-length array of every sample's rate made 0.52x,
    # the per-capture loops with the command's gyro statistics 1.24x,
    # and a block padding every capture to the long one's length would
    # be 15x.
    rng = np.random.default_rng(4)
    logs = {f"still_{k:02d}.csv": ImuLog(
                t=np.arange(n) / FS,
                accel=np.rint(rng.normal(3000.0, 3.0, (n, 3))).astype(np.int16),
                gyro=np.rint(rng.normal(0.0, 7.0, (n, 3))).astype(np.int16),
                fs=FS, lsb_accel=constants.DEFAULT_LSB_ACCEL,
                lsb_gyro=constants.DEFAULT_LSB_GYRO)
            for k, n in enumerate([100_000] + [500] * 15)}
    own = sum(6 * 8 * log.t.size for log in logs.values())
    batch, peak = traced_peak(batch_means, logs)
    assert batch.samples_per_orientation == 500
    assert peak <= 0.4 * own, f"peak {peak / own:.2f}x the captures' floats"


def test_allan_command_frees_the_log_for_the_sweep(tmp_path):
    path = tmp_path / "still.csv"
    write_log(path, still_log())
    code, peak = traced_peak(cli.main, ["allan", "--log", str(path),
                                        "--axis", "4",
                                        "--out", str(tmp_path / "a.csv")])
    assert code == 0
    # The call peaks at 0.96-1.09x, with the heap's state, while the log
    # is parsed; the sweep's arrays are each a quarter of the 32-byte
    # rows.  With int32 counts it peaked at 1.33x, and sweeping with the
    # parsed log still held made 2.04x.
    assert peak <= 1.25 * ROWS32, f"peak {peak / ROWS32:.2f}x the 32-byte rows"


def test_read_log_holds_about_its_rows(tmp_path):
    path = tmp_path / "still.csv"
    write_log(path, still_log())
    log, peak = traced_peak(read_log, path)
    assert log.t.size == N
    assert log.accel.dtype == log.gyro.dtype == np.int16
    # The 20-byte rows plus the time-step check, one float and one bool
    # per sample, make 0.96-1.02x, with the heap's state; 32-byte rows
    # made 1.28x, rows of seven float64 columns 2.1x, and reading the
    # body into a string and a StringIO copy first makes 5.3x.
    assert peak <= 1.25 * ROWS32, f"peak {peak / ROWS32:.2f}x the 32-byte rows"


def test_write_log_rounds_by_block(tmp_path):
    log = still_log()
    _, peak = traced_peak(write_log, tmp_path / "still.csv", log)
    # One block of formatted rows; full-size rounded copies of the
    # counts would be 2x.
    assert peak < COLUMN3, f"peak {peak / COLUMN3:.2f}x an (n, 3) array"
    assert np.array_equal(read_log(tmp_path / "still.csv").accel, log.accel)


def tracked_trajectory(n, seed):
    """A trajectory whose floats hardly repeat, as a tracker's do, so
    that each value is a run of its own and is texted."""
    rng = np.random.default_rng(seed)
    return Trajectory(t=np.arange(n) / FS, p=10.0 * rng.standard_normal((n, 3)),
                      q_nb=rng.standard_normal((n, 4)), sfs=rng.random(n),
                      stance=rng.random(n) < 0.3)


def test_write_trajectory_holds_one_block(tmp_path):
    # The writer holds one block's texts at a time: 1.2 MB for a walk
    # and for a walk ten times as long.  Texting each block's runs as
    # Python strings peaked at 1.9 MB.
    _, peak = traced_peak(write_trajectory, tmp_path / "walk.csv",
                          tracked_trajectory(WALK, 8))
    _, long_peak = traced_peak(write_trajectory, tmp_path / "long.csv",
                               tracked_trajectory(10 * WALK, 9))
    assert peak <= 3e6, f"peak {peak / 1e6:.2f} MB"
    assert long_peak <= 1.1 * peak, \
        f"peak {long_peak / 1e6:.2f} MB, {peak / 1e6:.2f} MB for one walk"
