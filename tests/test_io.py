"""Round-trip and strictness tests for the file formats.

Every format must survive write-then-read bit-exactly, because the
pipeline promises byte-identical reruns; and every reader must reject
both missing and unknown keys, because a silently defaulted setting is
how two runs quietly disagree.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

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
)
from pdrnav.io import (
    PipelineConfig,
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
    write_log,
    write_trajectory,
    write_truth,
)
from pdrnav.tracker import ImuLog, Trajectory
from pdrnav.zupt import default_stance_config

from oracles import (
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
    """The CSV writers against one ``format(x, ".17g")`` per value, on
    values whose text is easy to get wrong and on more rows than one
    write block holds."""

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
        log = ImuLog(t=np.empty(0), accel=np.empty((0, 3)),
                     gyro=np.empty((0, 3)), fs=FS,
                     lsb_accel=LSB_A, lsb_gyro=LSB_W)
        path = tmp_path / "empty.csv"
        write_log(path, log)
        back = read_log(path)
        assert back.t.size == 0
        assert back.accel.shape == (0, 3)

    def test_missing_header_field_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# fs=100 lsb_a=0.001\n0,0,0,8192,0,0,0\n")
        with pytest.raises(ValueError, match="lsb_w"):
            read_log(path)

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"# fs=100 lsb_a={LSB_A} lsb_w={LSB_W}\n0,1,2,3\n")
        with pytest.raises(ValueError, match="7 columns"):
            read_log(path)


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
    """The readers, which parse straight from the open file, against the
    whole-body `StringIO` parse on the layouts a hand-edited or cut-off
    file has."""

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

    @pytest.mark.parametrize("reader, head, width", [
        (read_log, LOG_HEADER, 7),
        (read_truth, "# truth\n", 12),
        (read_trajectory, "# trajectory\n", 10),
    ])
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
