"""Command line plumbing: each subcommand end to end, exit codes, and
byte-identical reruns.

Everything runs in-process through ``pdrnav.cli.main`` so coverage and
monkeypatching work; the console entry point is the same function.
"""

from __future__ import annotations

import dataclasses
import json
import typing
import warnings

import numpy as np
import pytest

from pdrnav import constants
from pdrnav.calibration import SensorCalibration, canonical_gain
from pdrnav.cli import main
from pdrnav.ekf import FilterConfig, default_filter_config
from pdrnav.gait import GaitParams, NoiseParams, razor_noise
from pdrnav.io import (
    PipelineConfig,
    read_calibration,
    read_log,
    read_trajectory,
    write_config,
    write_gait_params,
    write_log,
)
from pdrnav.tracker import ImuLog
from pdrnav.zupt import PSEUDO_GROUPS, StanceConfig, default_stance_config

FS = 100.0
LSB_A = constants.DEFAULT_LSB_ACCEL
LSB_W = constants.DEFAULT_LSB_GYRO
GYRO_WHITE_SIGMA = 9e-5  # rad/s at each sample, the allan target


def _write_still_logs(stills_dir, rng, n_logs=12, n_samples=300):
    # Unit directions spread over the sphere; each still capture sees
    # gravity from one of them.
    golden = np.pi * (3.0 - np.sqrt(5.0))
    for p in range(n_logs):
        z = 1.0 - 2.0 * (p + 0.5) / n_logs
        r = np.sqrt(1.0 - z * z)
        u = np.array([r * np.cos(golden * p), r * np.sin(golden * p), z])
        f_b = u * constants.GRAVITY + rng.normal(0.0, 0.02, (n_samples, 3))
        w_b = rng.normal(0.0, 0.002, (n_samples, 3))
        log = ImuLog(
            t=np.arange(n_samples) / FS,
            accel=np.rint(f_b / LSB_A).astype(np.int32),
            gyro=np.rint(w_b / LSB_W).astype(np.int32),
            fs=FS, lsb_accel=LSB_A, lsb_gyro=LSB_W,
        )
        write_log(stills_dir / f"still_{p:02d}.csv", log)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(21)

    params = GaitParams(
        step_length=1.0, cadence=1.5,
        path=[[0.0, 0.0], [12.0, 0.0], [12.0, 9.0], [0.0, 9.0], [0.0, 0.0]],
        seed=7,
    )
    write_gait_params(ws / "gait.json", params, FS, razor_noise(FS),
                      LSB_A, LSB_W)

    stills = ws / "stills"
    stills.mkdir()
    _write_still_logs(stills, rng)

    config = PipelineConfig(
        filter=default_filter_config(FS),
        stance=default_stance_config(FS),
        calibration_paths={"accel": str(ws / "cal.json"),
                           "gyro": str(ws / "cal.json")},
    )
    write_config(ws / "config.json", config)

    # long still gyro log for the allan subcommand
    n = 100_000
    white = rng.normal(0.0, GYRO_WHITE_SIGMA, (n, 3)) / LSB_W
    level = np.tile([0.0, 0.0, constants.GRAVITY / LSB_A], (n, 1))
    write_log(ws / "still_long.csv", ImuLog(
        t=np.arange(n) / FS,
        accel=np.rint(level + rng.normal(0, 2.0, (n, 3))).astype(np.int32),
        gyro=np.rint(white).astype(np.int32),
        fs=FS, lsb_accel=LSB_A, lsb_gyro=LSB_W,
    ))

    codes = {
        "simulate": main(["simulate", "--params", str(ws / "gait.json"),
                          "--out", str(ws / "walk.csv"),
                          "--truth", str(ws / "truth.csv")]),
        "calibrate": main(["calibrate", "--stills", str(stills),
                           "--out", str(ws / "cal.json")]),
    }
    codes["track"] = main(["track", "--log", str(ws / "walk.csv"),
                           "--cal", str(ws / "cal.json"),
                           "--config", str(ws / "config.json"),
                           "--out", str(ws / "traj.csv")])
    return ws, codes


class TestPipeline:
    def test_simulate_succeeds_and_writes_both_files(self, workspace):
        ws, codes = workspace
        assert codes["simulate"] == 0
        log = read_log(ws / "walk.csv")
        assert log.t.size > 3000
        assert (ws / "truth.csv").stat().st_size > 0

    def test_calibrate_recovers_the_scale_model(self, workspace):
        ws, codes = workspace
        assert codes["calibrate"] == 0
        accel_cal, gyro_cal = read_calibration(ws / "cal.json")
        true_gain = np.eye(3) / LSB_A
        rel = (np.abs(canonical_gain(accel_cal.gain) - canonical_gain(true_gain))
               / np.abs(np.diag(true_gain)).max())
        assert rel.max() < 0.05
        np.testing.assert_allclose(gyro_cal.gain, np.eye(3) / LSB_W)

    def test_track_emits_one_row_per_sample(self, workspace):
        ws, codes = workspace
        assert codes["track"] == 0
        log = read_log(ws / "walk.csv")
        traj = read_trajectory(ws / "traj.csv")
        assert traj.t.size == log.t.size

    def test_track_can_take_calibration_from_config(self, workspace):
        ws, _ = workspace
        code = main(["track", "--log", str(ws / "walk.csv"),
                     "--config", str(ws / "config.json"),
                     "--out", str(ws / "traj_cfgcal.csv")])
        assert code == 0
        a = (ws / "traj.csv").read_bytes()
        b = (ws / "traj_cfgcal.csv").read_bytes()
        assert a == b

    def test_eval_reports_consistent_ratio(self, workspace):
        ws, _ = workspace
        code = main(["eval", "--traj", str(ws / "traj.csv"),
                     "--truth", str(ws / "truth.csv"),
                     "--ttd", "42",
                     "--out", str(ws / "report.json")])
        assert code == 0
        report = json.loads((ws / "report.json").read_text())
        assert set(report) == {"epsilon_ttd", "ttd", "closure_error",
                               "checkpoint_errors"}
        assert report["epsilon_ttd"] == pytest.approx(
            report["closure_error"] / 42.0)
        assert len(report["checkpoint_errors"]) > 30

    def test_allan_writes_curve_and_coefficients(self, workspace):
        ws, _ = workspace
        code = main(["allan", "--log", str(ws / "still_long.csv"),
                     "--axis", "3", "--out", str(ws / "allan.csv")])
        assert code == 0
        curve = np.loadtxt(ws / "allan.csv", delimiter=",", comments="#")
        assert curve.shape[1] == 2
        assert np.all(np.diff(curve[:, 0]) > 0)
        coeffs = json.loads((ws / "allan_coefficients.json").read_text())
        assert coeffs["axis"] == 3
        # white-noise density in (rad/s)/sqrt(Hz): sigma / sqrt(fs)
        n_true = GYRO_WHITE_SIGMA / np.sqrt(FS)
        assert abs(coeffs["random_walk"] - n_true) / n_true < 0.15


class TestDeterminism:
    def test_rerun_is_byte_identical(self, workspace):
        ws, _ = workspace
        assert main(["simulate", "--params", str(ws / "gait.json"),
                     "--out", str(ws / "walk2.csv"),
                     "--truth", str(ws / "truth2.csv")]) == 0
        assert (ws / "walk.csv").read_bytes() == (ws / "walk2.csv").read_bytes()
        assert (ws / "truth.csv").read_bytes() == (ws / "truth2.csv").read_bytes()
        assert main(["track", "--log", str(ws / "walk.csv"),
                     "--cal", str(ws / "cal.json"),
                     "--config", str(ws / "config.json"),
                     "--out", str(ws / "traj2.csv")]) == 0
        assert (ws / "traj.csv").read_bytes() == (ws / "traj2.csv").read_bytes()


class TestExitCodes:
    def test_missing_input_file_exits_two(self, workspace, tmp_path, capsys):
        ws, _ = workspace
        code = main(["track", "--log", str(tmp_path / "missing.csv"),
                     "--cal", str(ws / "cal.json"),
                     "--config", str(ws / "config.json"),
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert "missing.csv" in capsys.readouterr().err

    def test_malformed_config_exits_two(self, workspace, tmp_path, capsys):
        ws, _ = workspace
        bad = tmp_path / "bad_config.json"
        doc = json.loads((ws / "config.json").read_text())
        doc["surprise"] = 1
        bad.write_text(json.dumps(doc))
        code = main(["track", "--log", str(ws / "walk.csv"),
                     "--cal", str(ws / "cal.json"),
                     "--config", str(bad),
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert "surprise" in capsys.readouterr().err

    def test_moving_stills_exit_two(self, workspace, tmp_path, capsys):
        ws, _ = workspace
        bad_dir = tmp_path / "stills"
        bad_dir.mkdir()
        n = 300
        spin = np.full((n, 3), 2000)  # well above any stillness limit
        write_log(bad_dir / "spin.csv", ImuLog(
            t=np.arange(n) / FS,
            accel=np.tile([0, 0, int(round(constants.GRAVITY / LSB_A))],
                          (n, 1)),
            gyro=spin, fs=FS, lsb_accel=LSB_A, lsb_gyro=LSB_W,
        ))
        code = main(["calibrate", "--stills", str(bad_dir),
                     "--out", str(tmp_path / "cal.json")])
        assert code == 2
        assert "angular rate" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("stance", "pseudo_groups", "FFFFFFFFF"),
        ("stance", "pseudo_groups", 5),
        ("stance", "pseudo_groups", {"velocity": "false"}),
        ("stance", "pseudo_groups",
         {name: False for name, _ in PSEUDO_GROUPS}),
        ("stance", "detect_half_width", 6.9),
        ("stance", "std_half_width", "3"),
        ("filter", "estimate_biases", "false"),
        ("filter", "joseph", True),
    ], ids=["groups-string", "groups-number", "flag-string", "all-groups-off",
            "half-width-fraction", "half-width-string", "biases-string",
            "joseph-key"])
    def test_bad_config_value_exits_two(self, workspace, tmp_path, capsys,
                                        section, key, value):
        # A mapping for pseudo_groups patches flags of the shipped groups;
        # anything else replaces the entry.  Each case must be refused
        # with a message naming the key.
        ws, _ = workspace
        doc = json.loads((ws / "config.json").read_text())
        if isinstance(value, dict):
            doc[section][key].update(value)
        else:
            doc[section][key] = value
        bad = tmp_path / "bad_value.json"
        bad.write_text(json.dumps(doc))
        code = main(["track", "--log", str(ws / "walk.csv"),
                     "--cal", str(ws / "cal.json"),
                     "--config", str(bad),
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_divergence_exits_three_with_partial_output(self, workspace,
                                                        tmp_path, capsys):
        ws, _ = workspace
        doc = json.loads((ws / "config.json").read_text())
        doc["filter"]["q_diag"] = [1e300] * 25
        bad = tmp_path / "blowup.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "partial.csv"
        code = main(["track", "--log", str(ws / "walk.csv"),
                     "--cal", str(ws / "cal.json"),
                     "--config", str(bad), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "diverged at sample" in err
        assert "condition" in err
        traj = read_trajectory(out)  # partial trajectory still lands on disk
        assert traj.t.size == 0

    def test_eval_of_empty_trajectory_exits_two(self, workspace, tmp_path,
                                                capsys):
        ws, _ = workspace
        header = (ws / "walk.csv").read_text().splitlines()[0]
        empty_log = tmp_path / "empty.csv"
        empty_log.write_text(header + "\n")
        traj = tmp_path / "empty_traj.csv"
        assert main(["track", "--log", str(empty_log),
                     "--cal", str(ws / "cal.json"),
                     "--config", str(ws / "config.json"),
                     "--out", str(traj)]) == 0
        assert read_trajectory(traj).t.size == 0
        code = main(["eval", "--traj", str(traj),
                     "--truth", str(ws / "truth.csv"),
                     "--ttd", "42", "--out", str(tmp_path / "report.json")])
        assert code == 2
        assert "empty trajectory" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_bad_usage_exits_two(self, workspace):
        ws, _ = workspace
        with pytest.raises(SystemExit) as info:
            main(["eval", "--traj", str(ws / "traj.csv"),
                  "--truth", str(ws / "truth.csv"),
                  "--ttd", "-3", "--out", "r.json"])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["allan", "--log", str(ws / "still_long.csv"),
                  "--axis", "9", "--out", "a.csv"])
        assert info.value.code == 2


# Every scalar and array field of every JSON document the CLI reads, as
# (file, section, field, annotated type): the dataclass fields of each
# section, so a field added later is covered without editing this list,
# and the top-level numbers of gait.json.  Nested dataclass fields (the
# config's filter and stance) are covered through their own sections.
_FIELDS = [
    (file, section, name, tp)
    for file, section, cls in [
        ("config.json", "filter", FilterConfig),
        ("config.json", "stance", StanceConfig),
        ("config.json", None, PipelineConfig),
        ("cal.json", "accel", SensorCalibration),
        ("cal.json", "gyro", SensorCalibration),
        ("gait.json", "gait", GaitParams),
        ("gait.json", "noise", NoiseParams),
    ]
    for name, tp in typing.get_type_hints(cls).items()
    if not dataclasses.is_dataclass(tp)
] + [("gait.json", None, name, float) for name in ("fs", "lsb_accel", "lsb_gyro")]

# JSON values of the wrong type for a field of each scalar type.
_WRONG = {
    float: [None, "1", True, [1]],
    int: [None, "1", True, [1], 1.5],
    bool: [None, "true", 1, [True]],
    str: [None, 1, True, ["soft"]],
}


def _poison(value, bad):
    """``value`` with its first number, however deeply nested, ``bad``."""
    if isinstance(value, list):
        return [_poison(value[0], bad), *value[1:]]
    return bad


def _wrong_values(tp, good):
    """Wrong values for a field annotated ``tp`` whose value in a good
    file is ``good``: the wrong scalars, and for an array or a mapping,
    also the good value with one wrong entry (for an array, also one
    that makes it ragged)."""
    kind = typing.get_origin(tp) or tp
    if kind is np.ndarray:
        return [None, "1", True] + [_poison(good, v)
                                    for v in _WRONG[float][:3] + [[1, 2]]]
    if kind is dict:
        first = next(iter(good))
        entries = _WRONG[typing.get_args(tp)[1]][:3]
        return _WRONG[float] + [{**good, first: v} for v in entries]
    return _WRONG[kind]


class TestMalformedValues:
    """Each field of each JSON document set to a value of the wrong type
    is refused with exit 2 and a message naming the field, before any
    output is written."""

    @pytest.mark.parametrize(
        "file, section, name, tp", _FIELDS,
        ids=[f"{f}-{s or 'top'}-{n}" for f, s, n, _ in _FIELDS])
    def test_wrong_type_exits_two(self, workspace, tmp_path, capsys,
                                  file, section, name, tp):
        ws, _ = workspace
        header = (ws / "walk.csv").read_text().splitlines()[0]
        (tmp_path / "empty.csv").write_text(header + "\n")
        paths = {"config.json": ws / "config.json", "cal.json": ws / "cal.json"}
        bad = paths[file] = tmp_path / file
        out = tmp_path / "out.csv"
        if file == "gait.json":
            argv = ["simulate", "--params", str(bad), "--out", str(out),
                    "--truth", str(tmp_path / "truth.csv")]
        else:
            argv = ["track", "--log", str(tmp_path / "empty.csv"),
                    "--cal", str(paths["cal.json"]),
                    "--config", str(paths["config.json"]), "--out", str(out)]
        doc = json.loads((ws / file).read_text())
        target = doc if section is None else doc[section]
        for value in _wrong_values(tp, target[name]):
            good, target[name] = target[name], value
            bad.write_text(json.dumps(doc))
            target[name] = good
            code = main(argv)
            err = capsys.readouterr().err
            assert code == 2, (value, err)
            assert f"'{name}'" in err, (value, err)
            assert not out.exists(), value


class TestBadCaptures:
    """Input problems the readers and the calibrator catch before any
    arithmetic: exit 2 with the file named, and no numpy warnings."""

    HEADER = f"# fs=100 lsb_a={LSB_A:.17g} lsb_w={LSB_W:.17g}\n"

    def run_quietly(self, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return main(argv)

    @pytest.mark.parametrize("body", ["", "0,0,0,8192,1,-2,3\n"],
                             ids=["header_only", "one_row"])
    def test_short_still_capture_exits_two(self, tmp_path, capsys, body):
        stills = tmp_path / "stills"
        stills.mkdir()
        _write_still_logs(stills, np.random.default_rng(4))
        (stills / "still_short.csv").write_text(self.HEADER + body)
        code = self.run_quietly(["calibrate", "--stills", str(stills),
                                 "--out", str(tmp_path / "cal.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "still_short.csv" in err
        assert "samples" in err
        assert not (tmp_path / "cal.json").exists()

    def test_ragged_log_exits_two(self, tmp_path, capsys):
        log = tmp_path / "ragged.csv"
        log.write_text(self.HEADER + "0,0,0,8192,1,-2,3\n0.01,0,0,8192\n")
        code = self.run_quietly(["allan", "--log", str(log), "--axis", "0",
                                 "--out", str(tmp_path / "allan.csv")])
        assert code == 2
        assert "pdrnav allan" in capsys.readouterr().err
