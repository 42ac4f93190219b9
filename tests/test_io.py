"""Round-trip and strictness tests for the file formats.

Every format must survive write-then-read bit-exactly, because the
pipeline promises byte-identical reruns; and every reader must reject
both missing and unknown keys, because a silently defaulted setting is
how two runs quietly disagree.
"""

from __future__ import annotations

import dataclasses
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pdrnav import constants
from pdrnav.calibration import SensorCalibration
from pdrnav.ekf import default_filter_config
from pdrnav.gait import (
    GaitParams,
    GroundTruth,
    NoiseParams,
    generate_gait,
    inverse_imu,
    razor_noise,
    scale_calibration,
    still_truth,
)
from pdrnav.io import (
    _BLOCK_ROWS,
    PipelineConfig,
    _decimal_times,
    _float_groups,
    _to_doc,
    read_calibration,
    read_config,
    read_gait_params,
    read_log,
    read_trajectory,
    read_truth,
    write_allan_curve,
    write_calibration,
    write_config,
    write_gait_params,
    write_json,
    write_log,
    write_trajectory,
    write_truth,
)
from pdrnav.tracker import ImuLog, Trajectory
from pdrnav.zupt import default_stance_config

from oracles import (
    _fmt,
    per_value_allan_text,
    per_value_log_text,
    per_value_trajectory_text,
    per_value_truth_text,
    stringio_csv_rows,
    stringio_log_rows,
)

FS = 100.0
LSB_A = constants.DEFAULT_LSB_ACCEL
LSB_W = constants.DEFAULT_LSB_GYRO


@pytest.fixture(scope="module")
def short_walk():
    params = GaitParams(step_length=1.0, cadence=1.5,
                        path=[[0.0, 0.0], [4.0, 0.0]], seed=5)
    truth = generate_gait(params, FS)
    cal_a = scale_calibration(LSB_A)
    cal_w = scale_calibration(LSB_W)
    counts_a, counts_w = inverse_imu(truth, cal_a, cal_w, razor_noise(FS), seed=5)
    log = ImuLog(t=truth.t, accel=counts_a, gyro=counts_w, fs=FS,
                 lsb_accel=LSB_A, lsb_gyro=LSB_W)
    return truth, log


class TestRowWriters:
    """The CSV writers against one ``format(x, ".17g")`` per value (the
    log's time column: one `repr`), on values whose text is easy to get
    wrong and on more rows than one write block holds."""

    N = 9000
    AWKWARD = np.array([-0.0, 5e-324, -5e-324, 1e-5, 1e22, -1e22, 0.1,
                        -2.5, 1.0 / 3.0, 123456789.0])

    def values(self, rng, shape):
        picks = rng.choice(self.AWKWARD, size=shape)
        return np.where(rng.random(shape) < 0.5, picks,
                        rng.standard_normal(shape))

    @staticmethod
    def assert_text(path, want):
        # Line lists, so a mismatch is reported by its first differing
        # line rather than by a diff of the whole file.
        assert path.read_text().splitlines(True) == want.splitlines(True)

    def times(self):
        # Strictly increasing, and still covering the awkward values.
        head = np.array([-1e22, -2.5, -0.0, 5e-324, 1e-5, 0.1])
        return np.concatenate([head, 1.0 + np.arange(self.N - 7) / 100.0,
                               [1e22]])

    def test_log(self, tmp_path):
        rng = np.random.default_rng(60)
        counts = rng.integers(-32768, 32768, size=(self.N, 6))
        counts[:4] = [[-32768, -1, 0, 32767, -5, 7]] * 4
        log = ImuLog(t=self.times(), accel=counts[:, :3], gyro=counts[:, 3:],
                     fs=FS, lsb_accel=LSB_A, lsb_gyro=LSB_W)
        write_log(tmp_path / "log.csv", log)
        self.assert_text(tmp_path / "log.csv", per_value_log_text(log))

    def counts_log(self, counts):
        return ImuLog(t=np.arange(len(counts)) / FS, accel=counts[:, :3],
                      gyro=counts[:, 3:], fs=FS, lsb_accel=LSB_A,
                      lsb_gyro=LSB_W)

    def test_log_still_block_with_few_distinct_counts(self, tmp_path):
        # A still log's block holds a few hundred distinct counts, here
        # seven per axis, each texted once and gathered into many rows.
        rng = np.random.default_rng(65)
        level = np.array([0, 0, 8192, 0, 0, 0])
        counts = level + rng.integers(-3, 4, size=(self.N, 6))
        log = self.counts_log(counts.astype(np.int32))
        write_log(tmp_path / "log.csv", log)
        self.assert_text(tmp_path / "log.csv", per_value_log_text(log))

    def test_log_with_one_row_past_two_blocks(self, tmp_path):
        n = 2 * _BLOCK_ROWS + 1
        rng = np.random.default_rng(66)
        log = self.counts_log(rng.integers(-32768, 32768, size=(n, 6)))
        write_log(tmp_path / "log.csv", log)
        self.assert_text(tmp_path / "log.csv", per_value_log_text(log))

    @staticmethod
    def replace_gyro(log, bad):
        """Replace the gyro counts of a built log, past its check, by a
        copy that holds ``bad`` in the second block: a float copy for a
        float ``bad``, an int32 one for an int.  Returns the refusal to
        expect."""
        dtype = np.float64 if isinstance(bad, float) else np.int32
        log.gyro = log.gyro.astype(dtype)
        log.gyro[_BLOCK_ROWS + 5, 1] = bad
        if dtype is np.float64:
            return "gyro counts must be integers, not float64"
        return f"gyro count {bad} is outside the 16-bit ADC range"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e20, -1e20,
                                     40000, -40000])
    def test_log_refuses_a_count_that_is_not_one(self, tmp_path, bad):
        # Refused, never cast to a count that the file would then hold:
        # a float copy by its dtype, whatever it holds, and an integer
        # count outside the ADC range by its value.
        log = self.counts_log(np.zeros((2 * _BLOCK_ROWS, 6), np.int16))
        message = self.replace_gyro(log, bad)
        path = tmp_path / "log.csv"
        with pytest.raises(ValueError,
                           match=re.escape(f"log {path}: {message}")):
            write_log(path, log)
        # The block before the refused one may have been written, but
        # only to a temporary file, which is gone: no shorter log is left.
        assert list(tmp_path.iterdir()) == []

    def test_refused_log_leaves_an_existing_target_as_it_was(self, tmp_path):
        path = tmp_path / "log.csv"
        write_log(path, self.counts_log(np.ones((2 * _BLOCK_ROWS, 6),
                                                np.int16)))
        before = path.read_bytes()
        for bad in (0.0, 40000, -40000):
            log = self.counts_log(np.zeros((2 * _BLOCK_ROWS, 6), np.int16))
            message = self.replace_gyro(log, bad)
            with pytest.raises(ValueError, match=re.escape(message)):
                write_log(path, log)
            assert path.read_bytes() == before
            assert list(tmp_path.iterdir()) == [path]

    def test_failed_json_leaves_an_existing_target_as_it_was(self, tmp_path):
        # json.dump has written the first key when the second fails.
        path = tmp_path / "doc.json"
        write_json(path, {"a": 1})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_json(path, {"a": 2, "b": object()})
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_json_is_refused(self, tmp_path, value):
        # JSON has no text for these; ``Infinity`` and ``NaN`` are
        # Python's extensions, which this package's readers refuse.
        path = tmp_path / "doc.json"
        with pytest.raises(ValueError, match=f"JSON {re.escape(str(path))}"):
            write_json(path, {"a": 1.0, "b": np.array([0.5, value])})
        assert list(tmp_path.iterdir()) == []

    def test_truth(self, tmp_path):
        rng = np.random.default_rng(61)
        n = self.N
        truth = GroundTruth(
            t=self.times(), p=self.values(rng, (n, 3)),
            v=self.values(rng, (n, 3)), a=np.zeros((n, 3)),
            q_nb=self.values(rng, (n, 4)), omega=np.zeros((n, 3)),
            stance=rng.random(n) < 0.3, fs=FS)
        write_truth(tmp_path / "truth.csv", truth)
        self.assert_text(tmp_path / "truth.csv", per_value_truth_text(truth))

    def test_trajectory(self, tmp_path):
        rng = np.random.default_rng(62)
        n = self.N
        traj = Trajectory(
            t=self.times(), p=self.values(rng, (n, 3)),
            q_nb=self.values(rng, (n, 4)), sfs=self.values(rng, n),
            stance=rng.random(n) < 0.3)
        write_trajectory(tmp_path / "traj.csv", traj)
        self.assert_text(tmp_path / "traj.csv", per_value_trajectory_text(traj))

    def test_allan_curve(self, tmp_path):
        rng = np.random.default_rng(63)
        taus = self.times()
        adev = self.values(rng, self.N)
        write_allan_curve(tmp_path / "allan.csv", taus, adev)
        self.assert_text(tmp_path / "allan.csv",
                         per_value_allan_text(taus, adev))


class TestRunFormatting:
    """The float writers text each run of equal bits once; these pin the
    runs' edges to the per-value oracles."""

    @staticmethod
    def truth(p, v, q_nb, stance):
        n = len(stance)
        return GroundTruth(t=np.arange(n) / FS, p=p, v=v, a=np.zeros((n, 3)),
                           q_nb=q_nb, omega=np.zeros((n, 3)), stance=stance,
                           fs=FS)

    def assert_truth_text(self, path, truth):
        write_truth(path, truth)
        TestRowWriters.assert_text(path, per_value_truth_text(truth))

    def test_long_runs(self, tmp_path):
        # Runs of a few to a few thousand rows, each column cut apart
        # at its own rows.
        rng = np.random.default_rng(70)
        n = 3 * _BLOCK_ROWS + 17

        def runs(width):
            levels = rng.standard_normal((40, width))
            return levels[np.sort(rng.integers(0, 40, n))]

        truth = self.truth(runs(3), runs(3), runs(4), runs(1)[:, 0] > 0.0)
        self.assert_truth_text(tmp_path / "truth.csv", truth)

    def test_negative_zero_beside_zero_keeps_its_sign(self, tmp_path):
        n = 8
        column = np.array([0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 1.0, -0.0])
        traj = Trajectory(t=np.arange(n) / FS, p=np.column_stack([column] * 3),
                          q_nb=np.tile([1.0, -0.0, 0.0, -0.0], (n, 1)),
                          sfs=column, stance=np.zeros(n, dtype=bool))
        path = tmp_path / "traj.csv"
        write_trajectory(path, traj)
        TestRowWriters.assert_text(path, per_value_trajectory_text(traj))
        assert [row.split(",")[1] for row in path.read_text().splitlines()[1:]] \
            == ["0", "-0", "-0", "0", "0", "-0", "1", "-0"]

    def test_run_across_a_block_boundary(self, tmp_path):
        n = 2 * _BLOCK_ROWS + 3
        rng = np.random.default_rng(71)
        p = rng.standard_normal((n, 3))
        p[_BLOCK_ROWS - 10:_BLOCK_ROWS + 10] = [0.25, -0.0, 1e22]
        p[-5:] = p[-6]
        stance = np.zeros(n, dtype=bool)
        stance[_BLOCK_ROWS - 1:2 * _BLOCK_ROWS + 1] = True
        truth = self.truth(p, np.zeros((n, 3)), rng.standard_normal((n, 4)),
                           stance)
        self.assert_truth_text(tmp_path / "truth.csv", truth)

    def test_still_truth_is_constant_columns(self, tmp_path):
        # Every column but time is one broadcast row, across three blocks.
        truth = still_truth(25.0, FS, yaw=0.3)
        assert truth.t.size > 2 * _BLOCK_ROWS
        assert truth.p.strides == (0, 0)
        self.assert_truth_text(tmp_path / "truth.csv", truth)

    def test_constant_allan_column(self, tmp_path):
        taus = np.arange(1, _BLOCK_ROWS + 50) / FS
        adev = np.full(taus.size, 1.0 / 3.0)
        path = tmp_path / "allan.csv"
        write_allan_curve(path, taus, adev)
        TestRowWriters.assert_text(path, per_value_allan_text(taus, adev))

    def test_zero_rows_write_the_header_alone(self, tmp_path):
        empty = np.empty(0)
        truth = self.truth(np.empty((0, 3)), np.empty((0, 3)),
                           np.empty((0, 4)), np.empty(0, dtype=bool))
        traj = Trajectory(t=empty, p=np.empty((0, 3)), q_nb=np.empty((0, 4)),
                          sfs=empty, stance=np.empty(0, dtype=bool))
        write_truth(tmp_path / "truth.csv", truth)
        write_trajectory(tmp_path / "traj.csv", traj)
        write_allan_curve(tmp_path / "allan.csv", empty, empty)
        assert (tmp_path / "truth.csv").read_text() == per_value_truth_text(truth)
        assert (tmp_path / "traj.csv").read_text() \
            == per_value_trajectory_text(traj)
        assert (tmp_path / "allan.csv").read_text() == "# tau,adev\n"
        assert read_truth(tmp_path / "truth.csv").t.size == 0
        assert read_trajectory(tmp_path / "traj.csv").t.size == 0

    def test_float_stance_flags(self, tmp_path):
        # `GroundTruth` keeps a float 0/1 stance as it is given; its
        # flags are written as integers all the same.
        n = _BLOCK_ROWS + 100
        rng = np.random.default_rng(72)
        stance = np.repeat(rng.random(n // 50 + 1) < 0.5, 50)[:n].astype(float)
        stance[7] = -0.0
        truth = self.truth(rng.standard_normal((n, 3)), np.zeros((n, 3)),
                           rng.standard_normal((n, 4)), stance)
        assert truth.stance.dtype == np.float64
        self.assert_truth_text(tmp_path / "truth.csv", truth)
        np.testing.assert_array_equal(read_truth(tmp_path / "truth.csv").stance,
                                      stance != 0.0)

    def test_any_nonzero_flag_is_written_set(self, tmp_path):
        # The readers take a flag as set where it is nonzero, so 0.5 and
        # 2.0 are written 1, not truncated to 0 or kept as 2, and -0.0
        # is written 0.
        stance = np.array([0.5, 1.0, 2.0, 0.0, -0.0, 0.5, 2.0, -0.0])
        n = stance.size
        truth = self.truth(np.zeros((n, 3)), np.zeros((n, 3)),
                           np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)), stance)
        path = tmp_path / "truth.csv"
        self.assert_truth_text(path, truth)
        assert [row.rsplit(",", 1)[1] for row
                in path.read_text().splitlines()[1:]] \
            == ["1", "1", "1", "0", "0", "1", "1", "0"]
        np.testing.assert_array_equal(read_truth(path).stance, stance != 0.0)


class TestNonFiniteRows:
    """The float writers refuse what their readers refuse, with the
    same message, and leave no file and no changed target behind."""

    N = 2 * _BLOCK_ROWS + 10

    def trajectory(self):
        rng = np.random.default_rng(73)
        n = self.N
        return Trajectory(t=np.arange(n) / FS, p=rng.standard_normal((n, 3)),
                          q_nb=rng.standard_normal((n, 4)), sfs=rng.random(n),
                          stance=rng.random(n) < 0.5)

    def truth(self):
        n = self.N
        truth = still_truth((n - 1) / FS, FS)
        return dataclasses.replace(truth, p=np.zeros((n, 3)),
                                   v=np.zeros((n, 3)),
                                   stance=np.ones(n, dtype=bool))

    @staticmethod
    def assert_refused_as_read(tmp_path, write, read, oracle, obj, line):
        # The oracle writes the rows regardless; the reader's refusal of
        # them is the message the writer must give.
        written = tmp_path / "oracle.csv"
        written.write_text(oracle(obj))
        with pytest.raises(ValueError) as read_error:
            read(written)
        assert f", line {line}: " in str(read_error.value)
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError) as write_error:
            write(path, obj)
        assert str(write_error.value) == str(read_error.value).replace(
            str(written), str(path))
        assert sorted(tmp_path.iterdir()) == [written]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_trajectory(self, tmp_path, value):
        # The first row that holds one, not the first column that does:
        # the position's bad value comes first in the block's column
        # order, two rows after q_nb's.
        traj = self.trajectory()
        traj.p[_BLOCK_ROWS + 7, 1] = -value
        traj.q_nb[_BLOCK_ROWS + 5, 2] = value
        self.assert_refused_as_read(tmp_path, write_trajectory,
                                    read_trajectory, per_value_trajectory_text,
                                    traj, _BLOCK_ROWS + 5 + 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_truth(self, tmp_path, value):
        # A run of bad values across a block boundary, and a bad flag.
        truth = self.truth()
        truth.v[_BLOCK_ROWS - 3:_BLOCK_ROWS + 30, 0] = value
        truth.stance = truth.stance.astype(float)
        truth.stance[_BLOCK_ROWS - 3] = value
        self.assert_refused_as_read(tmp_path, write_truth, read_truth,
                                    per_value_truth_text_any_flag, truth,
                                    _BLOCK_ROWS - 3 + 2)

    def test_allan_curve(self, tmp_path):
        taus = np.arange(1, 20) / FS
        adev = np.ones(taus.size)
        adev[4] = np.nan
        path = tmp_path / "allan.csv"
        with pytest.raises(ValueError, match=rf"^Allan curve {re.escape(str(path))}"
                                             r", line 6: value nan is not finite$"):
            write_allan_curve(path, taus, adev)
        assert list(tmp_path.iterdir()) == []

    def test_refusal_leaves_an_existing_target_as_it_was(self, tmp_path):
        path = tmp_path / "traj.csv"
        traj = self.trajectory()
        write_trajectory(path, traj)
        before = path.read_bytes()
        traj.sfs[-1] = np.nan
        with pytest.raises(ValueError, match=rf"line {self.N + 1}: value nan"):
            write_trajectory(path, traj)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


def per_value_truth_text_any_flag(truth):
    """`per_value_truth_text` with each flag texted as a float, so a
    non-finite flag reaches the file for the reader to refuse."""
    text = per_value_truth_text(dataclasses.replace(
        truth, stance=np.zeros(truth.t.size)))
    lines = text.splitlines(True)
    return lines[0] + "".join(
        line.rsplit(",", 1)[0] + f",{flag}\n"
        for line, flag in zip(lines[1:], truth.stance.tolist()))


class TestLogFormat:
    def test_round_trip_is_exact(self, short_walk, tmp_path):
        _, log = short_walk
        path = tmp_path / "walk.csv"
        write_log(path, log)
        back = read_log(path)
        np.testing.assert_array_equal(back.t, log.t)
        np.testing.assert_array_equal(back.accel, log.accel)
        np.testing.assert_array_equal(back.gyro, log.gyro)
        assert back.fs == log.fs
        assert back.lsb_accel == log.lsb_accel
        assert back.lsb_gyro == log.lsb_gyro

    def test_header_carries_scales(self, short_walk, tmp_path):
        _, log = short_walk
        path = tmp_path / "walk.csv"
        write_log(path, log)
        header = path.read_text().splitlines()[0]
        assert header.startswith("# fs=")
        assert "lsb_a=" in header and "lsb_w=" in header

    def test_empty_log_round_trips(self, tmp_path):
        log = ImuLog(t=np.empty(0), accel=np.empty((0, 3), np.int16),
                     gyro=np.empty((0, 3), np.int16), fs=FS,
                     lsb_accel=LSB_A, lsb_gyro=LSB_W)
        path = tmp_path / "empty.csv"
        write_log(path, log)
        back = read_log(path)
        assert back.t.size == 0
        assert back.accel.shape == (0, 3)

    def test_file_is_opened_once_here_and_once_by_numpy(self, short_walk,
                                                        tmp_path, monkeypatch):
        # The header is read in the scan for the first data row, so the
        # library opens the log once and numpy's chunked parse once.
        import builtins

        import pdrnav.io as io_module

        _, log = short_walk
        path = tmp_path / "walk.csv"
        write_log(path, log)
        opened, parsed = [], []
        real_open, real_loadtxt = builtins.open, np.loadtxt

        def counted_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        def counted_loadtxt(fname, *args, **kwargs):
            parsed.append(fname)
            return real_loadtxt(fname, *args, **kwargs)

        monkeypatch.setattr(io_module, "open", counted_open, raising=False)
        monkeypatch.setattr(np, "loadtxt", counted_loadtxt)
        back = read_log(path)
        assert opened == [path]
        assert parsed == [path]
        np.testing.assert_array_equal(back.accel, log.accel)

    def test_missing_header_field_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# fs=100 lsb_a=0.001\n0,0,0,8192,0,0,0\n")
        with pytest.raises(ValueError, match="lsb_w"):
            read_log(path)

    @pytest.mark.parametrize("key", ["fs", "lsb_a", "lsb_w"])
    def test_duplicated_header_field_rejected(self, tmp_path, key):
        # Either value may be the one meant; neither is taken.
        fields = {"fs": "100", "lsb_a": f"{LSB_A!r}", "lsb_w": f"{LSB_W!r}"}
        header = " ".join(f"{k}={v}" for k, v in fields.items())
        path = tmp_path / "twice.csv"
        path.write_text(f"# {header} {key}=50\n0.0,0,0,8192,0,0,0\n")
        with pytest.raises(ValueError, match=rf"twice\.csv: header declares "
                                             rf"{key} more than once"):
            read_log(path)

    def test_other_repeated_header_tokens_are_ignored(self, tmp_path):
        path = tmp_path / "notes.csv"
        path.write_text(f"# fs=100 lsb_a={LSB_A!r} lsb_w={LSB_W!r} "
                        "note=a note=b\n0.0,0,0,8192,0,0,0\n")
        assert read_log(path).fs == FS

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"# fs=100 lsb_a={LSB_A} lsb_w={LSB_W}\n0,1,2,3\n")
        with pytest.raises(ValueError, match="7 columns"):
            read_log(path)

    def test_time_column_is_shortest_round_trip_text(self, short_walk,
                                                     tmp_path):
        _, log = short_walk
        path = tmp_path / "walk.csv"
        write_log(path, log)
        assert log.t[482] == 4.82
        row = path.read_text().splitlines()[1 + 482]
        assert row.split(",")[0] == "4.82"

    def test_seventeen_digit_log_reads_the_same(self, short_walk, tmp_path):
        # Logs written before the time column took its shortest text.
        _, log = short_walk
        old = tmp_path / "old.csv"
        old.write_text(per_value_log_text(log, time_text=_fmt))
        assert "\n4.8200000000000003," in old.read_text()
        new = tmp_path / "new.csv"
        write_log(new, log)
        for path in (old, new):
            back = read_log(path)
            assert np.array_equal(back.t.view(np.uint64),
                                  log.t.view(np.uint64))
            assert np.array_equal(back.accel, log.accel)
            assert np.array_equal(back.gyro, log.gyro)

    @staticmethod
    def log_with_count(path, text):
        path.write_text(f"# fs=100 lsb_a={LSB_A!r} lsb_w={LSB_W!r}\n"
                        f"0.0,0,0,8192,0,0,0\n0.01,0,0,8192,0,{text},0\n")
        return path

    @pytest.mark.parametrize("text", ["1.5", "1.0", "1e3", "nan",
                                      "99999999999"])
    def test_count_must_be_an_integer_literal(self, tmp_path, text):
        path = self.log_with_count(tmp_path / "bad.csv", text)
        with pytest.raises(ValueError,
                           match=rf"bad\.csv.*'{re.escape(text)}'"):
            read_log(path)

    def test_the_same_layout_with_a_valid_count_reads_back(self, tmp_path):
        # The control for the case above: its header must be valid, or
        # the bad count is not what it refuses.
        log = read_log(self.log_with_count(tmp_path / "good.csv", "-7"))
        assert (log.fs, log.lsb_accel, log.lsb_gyro) == (FS, LSB_A, LSB_W)
        assert log.gyro.tolist() == [[0, 0, 0], [0, -7, 0]]

    @pytest.mark.parametrize("text", ["32768", "-32769"])
    def test_count_outside_the_adc_range_names_its_line(self, tmp_path, text):
        # The parse refuses it, so the refusal names the file line; a
        # comment and a blank line sit between the first row and it.
        rows = [f"{k / 100!r},0,0,8192,0,0,0" for k in range(5)]
        rows[3] = f"0.03,0,0,8192,0,{text},0"
        path = tmp_path / "rail.csv"
        path.write_text(f"# fs=100 lsb_a={LSB_A!r} lsb_w={LSB_W!r}\n"
                        + "\n".join(rows[:2] + ["# note", ""] + rows[2:])
                        + "\n")
        with pytest.raises(ValueError,
                           match=rf"^log {re.escape(str(path))}, line 7: "
                                 rf".*'{text}'"):
            read_log(path)


@st.composite
def logs(draw):
    """Logs with strictly increasing float64 times that always hold
    -0.0, the smallest subnormal and 1e22, and counts across the ADC
    range with both rails in the first row."""
    drawn = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          max_size=40))
    times = {x for x in drawn if x != 0.0} | {-0.0, 5e-324, 1e22}
    t = np.array(sorted(times))
    counts = draw(hnp.arrays(np.int32, (t.size, 6),
                             elements=st.integers(-32768, 32767)))
    counts[0] = [-32768, 32767, 0, 32767, -32768, -1]
    return ImuLog(t=t, accel=counts[:, :3], gyro=counts[:, 3:], fs=FS,
                  lsb_accel=LSB_A, lsb_gyro=LSB_W)


@settings(max_examples=60, deadline=None)
@given(log=logs())
def test_log_round_trip_is_bit_exact(tmp_path_factory, log):
    path = tmp_path_factory.mktemp("log") / "log.csv"
    write_log(path, log)
    back = read_log(path)
    assert np.array_equal(back.t.view(np.uint64), log.t.view(np.uint64))
    assert np.array_equal(back.accel, log.accel)
    assert np.array_equal(back.gyro, log.gyro)
    assert back.accel.dtype == back.gyro.dtype == np.int16


# Both read back from rint(t * 10**d) / 10**d at some d <= 9, as the
# 17- and 16-digit decimals 34280804.238748008 and 9415651814.089002,
# which are not their shortest texts.
LONG_DECIMAL_TIMES = [34280804.23874801, 9415651814.089003]
AWKWARD_TIMES = [0.0, -0.0, -2.5, -1e22, 5e-324, 1e-5, 1e-4, 9.99e14,
                 1e15, 1e16, 1e22, *LONG_DECIMAL_TIMES]


@st.composite
def grid_logs(draw):
    """Logs on a recorder's time grid t0 + k / fs: as it is, moved by
    whole microseconds or jittered by up to 0.3 of a sample, with some
    awkward times merged in, and int64 counts with rows at both rails
    of the ADC."""
    fs = draw(st.sampled_from([3.0, 50.0, 100.0, 128.0, 200.0, 1000.0]))
    t0 = draw(st.sampled_from([0.0, 1234.5678, 1.6e9]))
    n = draw(st.one_of(st.integers(1, 64),
                       st.integers(_BLOCK_ROWS, 2 * _BLOCK_ROWS + 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = t0 + np.arange(n) / fs
    jitter = draw(st.sampled_from(["none", "microseconds", "fraction"]))
    if jitter == "microseconds":
        t = np.round(t + rng.integers(-200, 201, n) * 1e-6, 6)
    elif jitter == "fraction":
        t = t + rng.uniform(-0.3, 0.3, n) / fs
    awkward = draw(st.lists(st.sampled_from(AWKWARD_TIMES), max_size=3,
                            unique=True))
    t = np.unique(np.concatenate([t, awkward]))
    counts = rng.integers(constants.ADC_MIN, constants.ADC_MAX + 1,
                          (t.size, 6))
    counts[rng.random(t.size) < 0.05] = constants.ADC_MIN
    counts[rng.random(t.size) < 0.05] = constants.ADC_MAX
    return ImuLog(t=t, accel=counts[:, :3], gyro=counts[:, 3:], fs=fs,
                  lsb_accel=LSB_A, lsb_gyro=LSB_W)


class TestLogText:
    """The log writer texts whole blocks at a time; its file must be the
    one `repr` and `str` give value by value."""

    # No shrinking: each example writes up to two blocks and their
    # per-value text, and shrinking a failure takes minutes.  The first
    # differing line of the failing example is reported as it is.
    @settings(max_examples=60, deadline=None, derandomize=True,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(log=grid_logs())
    def test_is_the_per_value_text(self, tmp_path_factory, log):
        path = tmp_path_factory.mktemp("log") / "log.csv"
        write_log(path, log)
        TestRowWriters.assert_text(path, per_value_log_text(log))

    @pytest.mark.parametrize("t", [-0.0, 0.0, 5e-324, 1e-5, 1e-4,
                                   *LONG_DECIMAL_TIMES])
    def test_time_beside_a_grid_is_its_repr(self, tmp_path, t):
        # One awkward time in a block of the 100 Hz grid k / 100, whose
        # other times all have exact short decimals.
        times = np.sort(np.append(np.arange(1, 100) / 100.0, t))
        no_motion = np.zeros((100, 3), np.int16)
        log = ImuLog(t=times, accel=no_motion, gyro=no_motion, fs=FS,
                     lsb_accel=LSB_A, lsb_gyro=LSB_W)
        write_log(tmp_path / "log.csv", log)
        assert (tmp_path / "log.csv").read_text() == per_value_log_text(log)

    @pytest.mark.parametrize("t", [
        # Integral times and +0.0 keep repr's ".0".
        np.arange(_BLOCK_ROWS) * 1.0,
        np.append(0.0, np.arange(5, 9) * 1.0),
        # A grid below 1, from 0.0001 up, and one from +0.0.
        np.arange(1, _BLOCK_ROWS + 1) / 10_000.0,
        np.arange(_BLOCK_ROWS) / 10_000.0,
        # Nine decimals, with one and with four integer digits.
        (10 ** 9 + np.arange(_BLOCK_ROWS) * 7) / 1e9,
        (1234 * 10 ** 9 + np.arange(_BLOCK_ROWS) * 999_999) / 1e9,
        # Just below 1e15: whole seconds, and tenths below 1e14.
        10.0 ** 15 - np.arange(_BLOCK_ROWS, 0, -1),
        (10 ** 15 - 10 - np.arange(_BLOCK_ROWS, 0, -1)) / 10.0,
        np.array([0.0, 1e-4, 0.5, 5.0, 123.456789012]),
    ], ids=["integral", "zero_and_integral", "below_one", "from_zero",
            "nine_decimals", "nine_decimals_1234", "below_1e15",
            "tenths_below_1e14", "mixed"])
    def test_exact_decimal_times_are_their_repr(self, tmp_path, t):
        # Blocks the shared float layout writes from their exact
        # decimals, not through float.__repr__.
        assert _decimal_times(t) is not None
        no_motion = np.zeros((t.size, 3), np.int16)
        log = ImuLog(t=t, accel=no_motion, gyro=no_motion, fs=FS,
                     lsb_accel=LSB_A, lsb_gyro=LSB_W)
        write_log(tmp_path / "log.csv", log)
        TestRowWriters.assert_text(tmp_path / "log.csv",
                                   per_value_log_text(log))

    def test_every_count_of_the_adc_range_is_its_str(self, tmp_path):
        values = np.arange(constants.ADC_MIN, constants.ADC_MAX + 1)
        counts = np.resize(values, (-(-values.size // 6), 6))
        write_log(tmp_path / "log.csv", ImuLog(
            t=np.arange(len(counts)) / FS, accel=counts[:, :3],
            gyro=counts[:, 3:], fs=FS, lsb_accel=LSB_A, lsb_gyro=LSB_W))
        rows = (tmp_path / "log.csv").read_text().splitlines()[1:]
        texts = [text for row in rows for text in row.split(",")[1:]]
        assert texts[:values.size] == list(map(str, values.tolist()))


@st.composite
def float_bits(draw):
    """Finite float64 from bit patterns: a sign, a mantissa and a biased
    exponent, drawn mostly where the texter works the digits out itself
    (2**-20 to 2**57) and otherwise over the whole finite range."""
    n = draw(st.integers(1, 200))
    parts = draw(st.lists(st.tuples(
        st.integers(0, 1),
        st.one_of(st.integers(1003, 1080), st.integers(0, 2046)),
        st.integers(0, 2**52 - 1)), min_size=n, max_size=n))
    sign, exponent, mantissa = (np.array(part, np.uint64)
                                for part in zip(*parts))
    bits = sign << np.uint64(63) | exponent << np.uint64(52) | mantissa
    return bits.view(np.float64)


def dyadic_ties():
    """Exact binary fractions with 18 significant digits, the last a 5,
    so their 17-digit text is a tie: 10**(17 - j) + (2i + 1) / 2**j."""
    return [sign * (10.0 ** (17 - j) + (2 * i + 1) / 2.0 ** j)
            for j in range(2, 11) for i in range(4) for sign in (1, -1)]


def around(bounds):
    """Each bound and the floats on either side of it."""
    bounds = np.array(bounds, dtype=float)
    return np.concatenate([np.nextafter(bounds, 0.0), bounds,
                           np.nextafter(bounds, np.inf)]).tolist()


def decoded(groups):
    """The text of each column of NUL-padded groups."""
    return [column.tobytes().replace(b"\0", b"").decode("ascii")
            for column in groups.T]


class TestFloatText:
    """`_float_groups` works the 17 digits out in whole-array passes; each
    value's column of groups must hold a comma and the text
    ``format(x, ".17g")`` gives.  pyproject turns a RuntimeWarning into
    an error, so a value out of the passes' range that warned (log10 of
    a zero, a cast of an infinity) would fail."""

    @staticmethod
    def assert_texts(values):
        values = np.asarray(values, dtype=np.float64)
        assert decoded(_float_groups(values)) == [
            "," + format(x, ".17g") for x in values.tolist()]

    # No shrinking, as for the log writer: a failing example is shown as
    # it is drawn.
    @settings(max_examples=60, deadline=None, derandomize=True,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(values=float_bits())
    def test_is_the_per_value_text(self, values):
        self.assert_texts(values)

    @pytest.mark.parametrize("values", [
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
         1.7976931348623157e308, -1.7976931348623157e308],
        [s * 10.0 ** k for k in range(-7, 18) for s in (1, -1)]
        + around([10.0 ** k for k in range(-7, 18)]),
        # The texter's own range, (1e-6, 1e17), and its switches from
        # scientific to fixed notation and between integer groups.
        around([1e-6, 1e-5, 1e-4, 1e-3, 1.0, 1e4, 1e8, 1e12, 1e16, 1e17,
                2.0 ** 53, 2.0 ** 57]),
        dyadic_ties(),
        np.arange(-2000, 2000) / 100.0,
    ], ids=["zeros_and_extremes", "powers_of_ten", "range_bounds",
            "dyadic_ties", "grid"])
    def test_edge_values(self, values):
        self.assert_texts(values)

    def test_no_values(self):
        assert decoded(_float_groups(np.empty(0))) == []

    def test_block_of_texted_and_formatted_values(self, tmp_path):
        # One truth block whose columns mix the texter's values, zeros of
        # both signs and the values it hands to ``%``: below 1e-6, from
        # 1e17 up and subnormal.  Its runs fill several texter chunks.
        rng = np.random.default_rng(74)
        n = _BLOCK_ROWS
        others = np.array([1e-7, -3.2e-300, 5e-324, 1e17, -4.5e200, 0.0, -0.0])
        p = np.where(rng.random((n, 3)) < 0.2, rng.choice(others, (n, 3)),
                     rng.standard_normal((n, 3))
                     * 10.0 ** rng.integers(-8, 19, (n, 3)))
        truth = TestRunFormatting.truth(
            p, np.repeat(rng.choice(others, (n // 8, 3)), 8, axis=0),
            rng.standard_normal((n, 4)), rng.random(n) < 0.5)
        write_truth(tmp_path / "truth.csv", truth)
        TestRowWriters.assert_text(tmp_path / "truth.csv",
                                   per_value_truth_text(truth))


class TestTruthFormat:
    def test_round_trip_preserves_kinematics(self, short_walk, tmp_path):
        truth, _ = short_walk
        path = tmp_path / "truth.csv"
        write_truth(path, truth)
        back = read_truth(path)
        np.testing.assert_array_equal(back.t, truth.t)
        np.testing.assert_array_equal(back.p, truth.p)
        np.testing.assert_array_equal(back.v, truth.v)
        np.testing.assert_array_equal(back.q_nb, truth.q_nb)
        np.testing.assert_array_equal(back.stance, truth.stance)
        assert back.fs == pytest.approx(truth.fs)

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# header\n0,0,0\n")
        with pytest.raises(ValueError, match="12 columns"):
            read_truth(path)


class TestTrajectoryFormat:
    def test_round_trip_is_exact(self, tmp_path):
        n = 7
        traj = Trajectory(
            t=np.arange(n) / FS,
            p=np.linspace(0.0, 1.0, 3 * n).reshape(n, 3),
            q_nb=np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
            sfs=np.linspace(0.0, 1.0, n),
            stance=np.arange(n) % 2 == 0,
        )
        path = tmp_path / "traj.csv"
        write_trajectory(path, traj)
        back = read_trajectory(path)
        np.testing.assert_array_equal(back.t, traj.t)
        np.testing.assert_array_equal(back.p, traj.p)
        np.testing.assert_array_equal(back.q_nb, traj.q_nb)
        np.testing.assert_array_equal(back.sfs, traj.sfs)
        np.testing.assert_array_equal(back.stance, traj.stance)

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# header\n0,0,0\n")
        with pytest.raises(ValueError, match="10 columns"):
            read_trajectory(path)


class TestStreamingReaders:
    """The readers, which hand the path to loadtxt's chunked reader,
    against the whole-body `StringIO` parse on the layouts a hand-edited
    or cut-off file has."""

    LOG_HEADER = f"# fs=100 lsb_a={LSB_A:.17g} lsb_w={LSB_W:.17g}\n"

    @staticmethod
    def rows(n_cols, rng, n=3):
        # Strictly increasing times, awkward floats, a 0/1 last column.
        t = np.cumsum(rng.uniform(0.005, 0.02, n))
        middle = rng.standard_normal((n, n_cols - 2)) * 10.0 ** rng.integers(
            -6, 6, (n, n_cols - 2))
        flags = rng.integers(0, 2, n)
        return [",".join(format(x, ".17g") for x in (t[k], *middle[k]))
                + f",{flags[k]}\n" for k in range(n)]

    @staticmethod
    def log_rows(rng, n=3):
        t = np.cumsum(rng.uniform(0.005, 0.02, n))
        counts = rng.integers(-32768, 32768, (n, 6))
        return [",".join([format(t[k], ".17g"), *map(str, counts[k])]) + "\n"
                for k in range(n)]

    LAYOUTS = {
        "header_only": lambda head, rows: head,
        "blank_and_comment_lines": lambda head, rows: (
            head + "\n" + rows[0] + "# a note\n\n" + rows[1] + "\n"
            + "# another\n" + rows[2] + "\n\n"),
        "no_final_newline": lambda head, rows: head + "".join(rows)[:-1],
        "single_row": lambda head, rows: head + rows[0],
    }

    @staticmethod
    def read_quietly(reader, path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return reader(path)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_log(self, tmp_path, layout):
        path = tmp_path / "log.csv"
        path.write_text(self.LAYOUTS[layout](
            self.LOG_HEADER, self.log_rows(np.random.default_rng(80))))
        log = self.read_quietly(read_log, path)
        fields, rows = stringio_log_rows(path)
        assert rows.shape[1] == 7
        assert log.t.shape == (rows.shape[0],)
        assert log.accel.shape == log.gyro.shape == (rows.shape[0], 3)
        assert np.array_equal(log.t, rows[:, 0])
        assert np.array_equal(log.accel, rows[:, 1:4])
        assert np.array_equal(log.gyro, rows[:, 4:7])
        assert (log.fs, log.lsb_accel, log.lsb_gyro) == (
            float(fields["fs"]), float(fields["lsb_a"]),
            float(fields["lsb_w"]))

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_truth(self, tmp_path, layout):
        path = tmp_path / "truth.csv"
        path.write_text(self.LAYOUTS[layout](
            "# t,px,py,pz,vx,vy,vz,qw,qx,qy,qz,stance\n",
            self.rows(12, np.random.default_rng(81))))
        truth = self.read_quietly(read_truth, path)
        rows = stringio_csv_rows(path, 12)
        assert truth.p.shape == (rows.shape[0], 3)
        assert np.array_equal(truth.t, rows[:, 0])
        assert np.array_equal(truth.p, rows[:, 1:4])
        assert np.array_equal(truth.v, rows[:, 4:7])
        assert np.array_equal(truth.q_nb, rows[:, 7:11])
        assert np.array_equal(truth.stance, rows[:, 11] != 0.0)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_trajectory(self, tmp_path, layout):
        path = tmp_path / "traj.csv"
        path.write_text(self.LAYOUTS[layout](
            "# t,px,py,pz,qw,qx,qy,qz,sfs,stance\n",
            self.rows(10, np.random.default_rng(82))))
        traj = self.read_quietly(read_trajectory, path)
        rows = stringio_csv_rows(path, 10)
        assert traj.p.shape == (rows.shape[0], 3)
        assert np.array_equal(traj.t, rows[:, 0])
        assert np.array_equal(traj.p, rows[:, 1:4])
        assert np.array_equal(traj.q_nb, rows[:, 4:8])
        assert np.array_equal(traj.sfs, rows[:, 8])
        assert np.array_equal(traj.stance, rows[:, 9] != 0.0)

    def test_whitespace_line_before_the_first_row_is_skipped(self, tmp_path):
        # loadtxt refuses a whitespace-only line as a row; before the
        # first data row the reader skips it with the header.
        rows = "".join(self.log_rows(np.random.default_rng(83)))
        plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
        plain.write_text(self.LOG_HEADER + rows)
        spaced.write_text(self.LOG_HEADER + " \t\n" + rows)
        want, got = read_log(plain), self.read_quietly(read_log, spaced)
        assert np.array_equal(got.t, want.t)
        assert np.array_equal(got.accel, want.accel)
        assert np.array_equal(got.gyro, want.gyro)

    @pytest.mark.parametrize("reader, head, width", [
        (read_log, LOG_HEADER, 7),
        (read_truth, "# truth\n", 12),
        (read_trajectory, "# trajectory\n", 10),
    ], ids=["log", "truth", "trajectory"])
    def test_ragged_rows_rejected(self, tmp_path, reader, head, width):
        path = tmp_path / "ragged.csv"
        path.write_text(head + ",".join(["1"] * width) + "\n"
                        + ",".join(["2"] * (width - 2)) + "\n")
        with pytest.raises(ValueError):
            reader(path)


class TestCalibrationFormat:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        accel = SensorCalibration(
            gain=np.eye(3) * 8000 + rng.normal(0, 50, (3, 3)),
            bias=rng.normal(0, 100, 3),
            noise_sigma=0.054321,
        )
        gyro = scale_calibration(LSB_W, noise_sigma=9.1e-5)
        path = tmp_path / "cal.json"
        write_calibration(path, accel, gyro)
        back_a, back_w = read_calibration(path)
        np.testing.assert_array_equal(back_a.gain, accel.gain)
        np.testing.assert_array_equal(back_a.bias, accel.bias)
        assert back_a.noise_sigma == accel.noise_sigma
        np.testing.assert_array_equal(back_w.gain, gyro.gain)

    def test_missing_sensor_rejected(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text(json.dumps({"accel": {}}))
        with pytest.raises(ValueError, match="missing.*gyro"):
            read_calibration(path)

    def test_unknown_key_rejected(self, tmp_path):
        doc = {
            "accel": {"gain": list(np.eye(3).ravel()), "bias": [0, 0, 0],
                      "noise_sigma": 1.0, "comment": "hand tuned"},
            "gyro": {"gain": list(np.eye(3).ravel()), "bias": [0, 0, 0],
                     "noise_sigma": 1.0},
        }
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unknown.*comment"):
            read_calibration(path)

    def test_gain_must_be_nine_numbers(self, tmp_path):
        doc = {
            "accel": {"gain": [1, 2, 3], "bias": [0, 0, 0], "noise_sigma": 1.0},
            "gyro": {"gain": list(np.eye(3).ravel()), "bias": [0, 0, 0],
                     "noise_sigma": 1.0},
        }
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="accel calibration.*9 numbers"):
            read_calibration(path)


class TestConfigFormat:
    def make_config(self):
        return PipelineConfig(
            filter=default_filter_config(FS),
            stance=default_stance_config(FS),
            calibration_paths={"accel": "cal.json", "gyro": "cal.json"},
        )

    def test_round_trip_preserves_every_parameter(self, tmp_path):
        config = self.make_config()
        path = tmp_path / "config.json"
        write_config(path, config)
        back = read_config(path)
        np.testing.assert_array_equal(back.filter.q_diag, config.filter.q_diag)
        np.testing.assert_array_equal(back.filter.r_diag, config.filter.r_diag)
        assert back.filter.ts == config.filter.ts
        assert back.filter.estimate_biases == config.filter.estimate_biases
        assert _to_doc(back.stance) == _to_doc(config.stance)
        assert back.calibration_paths == config.calibration_paths

    def test_calibration_paths_are_written_as_strings(self, tmp_path):
        config = PipelineConfig(
            filter=default_filter_config(FS),
            stance=default_stance_config(FS),
            calibration_paths={"accel": tmp_path / "a.json", "gyro": "g.json"},
        )
        path = tmp_path / "config.json"
        write_config(path, config)
        assert read_config(path).calibration_paths == {
            "accel": str(tmp_path / "a.json"), "gyro": "g.json"}

    def test_missing_section_rejected(self, tmp_path):
        config = self.make_config()
        path = tmp_path / "config.json"
        write_config(path, config)
        doc = json.loads(path.read_text())
        del doc["stance"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="missing.*stance"):
            read_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        config = self.make_config()
        path = tmp_path / "config.json"
        write_config(path, config)
        doc = json.loads(path.read_text())
        doc["extras"] = {}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unknown.*extras"):
            read_config(path)

    def test_missing_filter_key_rejected(self, tmp_path):
        config = self.make_config()
        path = tmp_path / "config.json"
        write_config(path, config)
        doc = json.loads(path.read_text())
        del doc["filter"]["estimate_biases"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="estimate_biases"):
            read_config(path)

    def test_retired_joseph_key_rejected(self, tmp_path):
        # The updates are always in Joseph form; a config written with
        # the retired switch is refused by the unknown-key rule.
        config = self.make_config()
        path = tmp_path / "config.json"
        write_config(path, config)
        doc = json.loads(path.read_text())
        doc["filter"]["joseph"] = True
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unknown.*joseph"):
            read_config(path)


class TestGaitParamsFormat:
    def test_round_trip(self, tmp_path):
        params = GaitParams(step_length=0.8, cadence=1.8,
                            path=[[0.0, 0.0], [6.0, 0.0], [6.0, 6.0]],
                            stance_duration=0.12, swing_peak_height=0.04,
                            lead_in=1.5, tail=0.5, seed=9)
        noise = NoiseParams(accel_sigma=[0.01, 0.02, 0.03], gyro_sigma=0.001,
                            accel_walk_sigma=1e-4, gyro_walk_sigma=2e-5)
        path = tmp_path / "gait.json"
        write_gait_params(path, params, FS, noise, LSB_A, LSB_W)
        back_params, back_fs, back_noise, back_lsb_a, back_lsb_w = \
            read_gait_params(path)
        assert back_params.step_length == params.step_length
        assert back_params.cadence == params.cadence
        np.testing.assert_array_equal(back_params.path, params.path)
        assert back_params.seed == params.seed
        assert back_fs == FS
        np.testing.assert_array_equal(back_noise.accel_sigma, noise.accel_sigma)
        np.testing.assert_array_equal(back_noise.gyro_sigma, noise.gyro_sigma)
        assert back_lsb_a == LSB_A
        assert back_lsb_w == LSB_W

    def test_unknown_gait_key_rejected(self, tmp_path):
        params = GaitParams(step_length=1.0, cadence=1.5,
                            path=[[0.0, 0.0], [4.0, 0.0]])
        path = tmp_path / "gait.json"
        write_gait_params(path, params, FS, razor_noise(FS), LSB_A, LSB_W)
        doc = json.loads(path.read_text())
        doc["gait"]["stride"] = 2.0
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="stride"):
            read_gait_params(path)
