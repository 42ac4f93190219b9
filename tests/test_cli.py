"""Command line plumbing: each subcommand end to end, exit codes, and
byte-identical reruns.

Everything runs in-process through ``pdrnav.cli.main`` so coverage and
monkeypatching work; the console entry point is the same function.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
import textwrap
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

import pdrnav
from pdrnav import cli, constants
from pdrnav.allan import allan_deviation
from pdrnav.calibration import (
    CalibrationError,
    SensorCalibration,
    batch_means,
    canonical_gain,
)
from pdrnav.cli import main
from pdrnav.ekf import FilterConfig, default_filter_config
from pdrnav.gait import (
    GaitParams,
    NoiseParams,
    generate_gait,
    razor_noise,
    scale_calibration,
)
from pdrnav.io import (
    PipelineConfig,
    _from_doc,
    _to_doc,
    read_calibration,
    read_config,
    read_gait_params,
    read_log,
    read_trajectory,
    write_config,
    write_gait_params,
    write_log,
)
from pdrnav.tracker import ImuLog, run_tracker
from pdrnav.zupt import StanceConfig, default_stance_config

from oracles import per_value_trajectory_text, per_value_truth_text

FS = 100.0
LSB_A = constants.DEFAULT_LSB_ACCEL
LSB_W = constants.DEFAULT_LSB_GYRO
GYRO_WHITE_SIGMA = 9e-5  # rad/s at each sample, the allan target

# The stance groups that older configs could switch off one by one,
# under ``stance.pseudo_groups``; such configs are now refused.
_GROUP_NAMES = ("position_xy", "position_z", "velocity", "acceleration",
                "gravity_direction", "gravity_norm", "angular_rate",
                "accel_bias", "gyro_bias")


def _write_still_logs(stills_dir, rng, n_logs=12, n_samples=300,
                      gyro_bias=(0.0, 0.0, 0.0), about_x=False):
    # Unit directions spread over the sphere, or around the y-z circle
    # when the board is only turned about x; each still capture sees
    # gravity from one of them.  The gyro reads its rate through the
    # datasheet scale plus ``gyro_bias`` counts.
    golden = np.pi * (3.0 - np.sqrt(5.0))
    for p in range(n_logs):
        if about_x:
            angle = 2.0 * np.pi * p / n_logs
            u = np.array([0.0, np.cos(angle), np.sin(angle)])
        else:
            z = 1.0 - 2.0 * (p + 0.5) / n_logs
            r = np.sqrt(1.0 - z * z)
            u = np.array([r * np.cos(golden * p), r * np.sin(golden * p), z])
        f_b = u * constants.GRAVITY + rng.normal(0.0, 0.02, (n_samples, 3))
        w_b = rng.normal(0.0, 0.002, (n_samples, 3))
        log = ImuLog(
            t=np.arange(n_samples) / FS,
            accel=np.rint(f_b / LSB_A).astype(np.int32),
            gyro=np.rint(w_b / LSB_W + gyro_bias).astype(np.int32),
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

    def test_calibrate_fits_the_gyro_bias(self, tmp_path):
        stills = tmp_path / "stills"
        stills.mkdir()
        bias = np.array([7.0, -20.0, 3.0])
        _write_still_logs(stills, np.random.default_rng(22), gyro_bias=bias)
        assert main(["calibrate", "--stills", str(stills),
                     "--out", str(tmp_path / "cal.json")]) == 0
        _, gyro_cal = read_calibration(tmp_path / "cal.json")
        # 3,600 samples of 7.5-count noise: the mean is good to 0.13 count.
        assert np.abs(gyro_cal.bias - bias).max() < 0.5, gyro_cal.bias
        np.testing.assert_array_equal(gyro_cal.gain, np.eye(3) / LSB_W)

    def test_calibrate_checks_each_capture_once(self, workspace, tmp_path,
                                                monkeypatch):
        # The reader's `ImuLog` checks each capture's counts, accel then
        # gyro; the calibration takes the logs as checked.  The spy goes
        # into every pdrnav module that binds the check.
        real = pdrnav.tracker._check_counts
        checked = []

        def spy(sensor, counts):
            checked.append(sensor)
            return real(sensor, counts)

        for name, module in list(sys.modules.items()):
            if (name.startswith("pdrnav")
                    and getattr(module, "_check_counts", None) is real):
                monkeypatch.setattr(module, "_check_counts", spy)
        ws, _ = workspace
        assert main(["calibrate", "--stills", str(ws / "stills"),
                     "--out", str(tmp_path / "cal.json")]) == 0
        assert checked == ["accel", "gyro"] * 12

    def test_track_emits_one_row_per_sample(self, workspace):
        ws, codes = workspace
        assert codes["track"] == 0
        log = read_log(ws / "walk.csv")
        traj = read_trajectory(ws / "traj.csv")
        assert traj.t.size == log.t.size

    def test_written_files_are_the_per_value_text(self, workspace):
        # Each float of the truth and the trajectory as one
        # ``format(x, ".17g")`` of the array that was rendered or tracked.
        ws, codes = workspace
        assert codes["simulate"] == codes["track"] == 0
        params, fs, *_ = read_gait_params(ws / "gait.json")
        truth = generate_gait(params, fs)
        assert (ws / "truth.csv").read_text() == per_value_truth_text(truth)
        config = read_config(ws / "config.json")
        traj = run_tracker(read_log(ws / "walk.csv"),
                           *read_calibration(ws / "cal.json"),
                           filter_cfg=config.filter, stance_cfg=config.stance)
        assert (ws / "traj.csv").read_text() == per_value_trajectory_text(traj)

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

    def test_allan_grid_defaults_to_the_library_default(self, workspace,
                                                         tmp_path):
        ws, _ = workspace
        out = tmp_path / "allan.csv"
        assert main(["allan", "--log", str(ws / "still_long.csv"),
                     "--axis", "3", "--out", str(out)]) == 0
        log = read_log(ws / "still_long.csv")
        curve = allan_deviation(log.gyro[:, 0] * log.lsb_gyro, log.fs)
        written = np.loadtxt(out, delimiter=",", comments="#")
        np.testing.assert_array_equal(written[:, 0], curve.taus)

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

    @pytest.mark.parametrize("n", [8999, 9000])
    def test_allan_takes_the_samples_it_names(self, tmp_path, capsys, n):
        # The shortest still log whose coefficients `allan` extracts is
        # the one its refusal names.
        rng = np.random.default_rng(3)
        write_log(tmp_path / "still.csv", ImuLog(
            t=np.arange(n) / FS, accel=np.zeros((n, 3), dtype=np.int32),
            gyro=np.rint(rng.normal(0.0, 3.0, (n, 3))).astype(np.int32),
            fs=FS, lsb_accel=LSB_A, lsb_gyro=LSB_W,
        ))
        code = main(["allan", "--log", str(tmp_path / "still.csv"),
                     "--axis", "3", "--out", str(tmp_path / "allan.csv")])
        err = capsys.readouterr().err
        if n < 9000:
            assert code == 2
            assert "spans 2.99 decades of tau, need 3: a record of at least " \
                   "9000 samples" in err, err
        else:
            assert code == 0, err


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
        # A still capture, then one spinning well above any stillness
        # limit: the refusal names the second.
        for name, rate in [("a_still.csv", 0), ("b_spin.csv", 2000)]:
            write_log(bad_dir / name, ImuLog(
                t=np.arange(n) / FS,
                accel=np.tile([0, 0, int(round(constants.GRAVITY / LSB_A))],
                              (n, 1)),
                gyro=np.full((n, 3), rate), fs=FS, lsb_accel=LSB_A,
                lsb_gyro=LSB_W,
            ))
        code = main(["calibrate", "--stills", str(bad_dir),
                     "--out", str(tmp_path / "cal.json")])
        assert code == 2
        assert "b_spin.csv: median angular rate" in capsys.readouterr().err

    def test_stills_turned_about_one_axis_exit_two(self, tmp_path, capsys):
        # Twelve captures with gravity around the y-z circle pin only part
        # of the model; the fit must refuse them, not write a wrong gain.
        stills = tmp_path / "stills"
        stills.mkdir()
        _write_still_logs(stills, np.random.default_rng(5), about_x=True)
        code = main(["calibrate", "--stills", str(stills),
                     "--out", str(tmp_path / "cal.json")])
        assert code == 2
        assert "do not spread enough" in capsys.readouterr().err
        assert not (tmp_path / "cal.json").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("stance", "pseudo_groups", "FFFFFFFFF"),
        ("stance", "pseudo_groups", 5),
        ("stance", "pseudo_groups", {"velocity": "false"}),
        ("stance", "pseudo_groups", dict.fromkeys(_GROUP_NAMES, False)),
        ("stance", "pseudo_groups", dict.fromkeys(_GROUP_NAMES, True)),
        ("stance", "detect_half_width", 6.9),
        ("stance", "std_half_width", "3"),
        ("filter", "estimate_biases", "false"),
        ("filter", "joseph", True),
        ("filter", "ts", 0.005),
        ("filter", "q_diag", [1e-3] * 3),
        ("filter", "q_diag", [[1e-3] * 5] * 5),
        ("filter", "r_diag", [1e-3] * 5),
        ("stance", "pseudo_variances", [1e-4] * 21),
        ("stance", "pseudo_variances", [1e-4] * 22),
        ("stance", "pseudo_variances", [1e-4] * 18),
        ("filter", "g", 0.0),
        ("filter", "g", -9.80665),
        ("stance", "accel_std_max", -1.0),
        ("stance", "gyro_norm_max", 0.0),
        ("stance", "gyro_std_max", 0.0),
        ("stance", "sfs_threshold", 0.0),
    ], ids=["groups-string", "groups-number", "flag-string", "all-groups-off",
            "stale-groups", "half-width-fraction", "half-width-string",
            "biases-string", "joseph-key", "ts-not-log-period",
            "q-diag-short", "q-diag-square", "r-diag-short",
            "pseudo-variances-short", "pseudo-variances-22-row-stack",
            "pseudo-variances-18-row-stack",
            "g-zero", "g-negative", "accel-std-max-negative",
            "gyro-norm-max-zero", "gyro-std-max-zero", "sfs-threshold-zero"])
    def test_bad_config_value_exits_two(self, workspace, tmp_path, capsys,
                                        section, key, value):
        # Each case must be refused with a message naming the key.  The
        # stance section has no pseudo_groups key since the stack was
        # fixed, so a config that still carries one, whatever its value,
        # is refused, and so is one written for the 22- or 18-row stack.
        # The log is 100 Hz, so ts 0.005 s does not match.
        ws, _ = workspace
        doc = json.loads((ws / "config.json").read_text())
        doc[section][key] = value
        bad = tmp_path / "bad_value.json"
        bad.write_text(json.dumps(doc))
        code = main(["track", "--log", str(ws / "walk.csv"),
                     "--cal", str(ws / "cal.json"),
                     "--config", str(bad),
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert re.search(rf"\b{key}\b", err), err
        assert "cannot reshape" not in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("key, value", [("detect_half_width", 3000),
                                            ("std_half_width", 1e308)])
    def test_stance_window_longer_than_the_log_exits_two(
            self, workspace, tmp_path, capsys, key, value):
        # A score window wider than the log left no sample in stance
        # and exited 0; a whole-number 1e308 overflowed the window
        # bounds.  Both are refused with the field and the log's count.
        ws, _ = workspace
        n = read_log(ws / "walk.csv").t.size
        assert 2 * 3000 + 1 > n
        doc = json.loads((ws / "config.json").read_text())
        doc["stance"][key] = value
        (tmp_path / "wide.json").write_text(json.dumps(doc))
        code = main(["track", "--log", str(ws / "walk.csv"),
                     "--cal", str(ws / "cal.json"),
                     "--config", str(tmp_path / "wide.json"),
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert re.search(rf"\b{key}\b", err), err
        assert f"longer than the log's {n}" in err, err
        assert not (tmp_path / "out.csv").exists()

    def test_gap_in_the_log_exits_two(self, workspace, tmp_path, capsys):
        ws, _ = workspace
        log = read_log(ws / "walk.csv")
        keep = np.r_[:500, 520:log.t.size]
        write_log(tmp_path / "gapped.csv", ImuLog(
            t=log.t[keep], accel=log.accel[keep], gyro=log.gyro[keep],
            fs=log.fs, lsb_accel=log.lsb_accel, lsb_gyro=log.lsb_gyro))
        code = main(["track", "--log", str(tmp_path / "gapped.csv"),
                     "--cal", str(ws / "cal.json"),
                     "--config", str(ws / "config.json"),
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert "sample 500 is 0.21 s" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_gap_in_an_allan_log_exits_two(self, workspace, tmp_path, capsys):
        # The sweep takes every sample to be 1/fs after the last, so a
        # gap is refused like the tracker refuses it.
        ws, _ = workspace
        log = read_log(ws / "still_long.csv")
        keep = np.r_[:700, 705:log.t.size]
        write_log(tmp_path / "gapped.csv", ImuLog(
            t=log.t[keep], accel=log.accel[keep], gyro=log.gyro[keep],
            fs=log.fs, lsb_accel=log.lsb_accel, lsb_gyro=log.lsb_gyro))
        code = main(["allan", "--log", str(tmp_path / "gapped.csv"),
                     "--axis", "3", "--out", str(tmp_path / "allan.csv")])
        assert code == 2
        assert "sample 700 is 0.06 s" in capsys.readouterr().err
        assert not (tmp_path / "allan.csv").exists()

    def test_divergence_exits_three_with_partial_output(self, workspace,
                                                        tmp_path, capsys):
        # Nothing observes position between stances, so a process noise
        # of 1e307 on it overflows the covariance by magnitude, not by
        # rounding: the variance grows 1e307 a sample from the first
        # swing on, and its symmetrised sum passes the largest double
        # at the ninth.  A scale on every state instead fails, or not,
        # by cancellation in the updates, which moves with the stack.
        # The suite turns numpy's RuntimeWarnings into errors, so this
        # also holds that the tracker lets none of the overflow's
        # warnings out in place of the divergence.
        ws, _ = workspace
        doc = json.loads((ws / "config.json").read_text())
        doc["filter"]["q_diag"][0:3] = [1e307] * 3
        bad = tmp_path / "blowup.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "partial.csv"
        code = main(["track", "--log", str(ws / "walk.csv"),
                     "--cal", str(ws / "cal.json"),
                     "--config", str(bad), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        failed = re.search(r"diverged at sample (\d+)", err)
        assert failed is not None
        assert "condition" in err
        assert "covariance is no longer finite" in err
        # The partial trajectory lands on disk, every sample before the
        # failed one.
        traj = read_trajectory(out)
        assert traj.t.size == int(failed.group(1))

    def test_track_of_empty_log_exits_two(self, workspace, tmp_path, capsys):
        ws, _ = workspace
        header = (ws / "walk.csv").read_text().splitlines()[0]
        empty_log = tmp_path / "empty.csv"
        empty_log.write_text(header + "\n")
        traj = tmp_path / "empty_traj.csv"
        assert main(["track", "--log", str(empty_log),
                     "--cal", str(ws / "cal.json"),
                     "--config", str(ws / "config.json"),
                     "--out", str(traj)]) == 2
        assert "still period spans 0.00 s" in capsys.readouterr().err
        assert not traj.exists()

    def test_eval_of_empty_trajectory_exits_two(self, workspace, tmp_path,
                                                capsys):
        ws, _ = workspace
        header = (ws / "traj.csv").read_text().splitlines()[0]
        traj = tmp_path / "empty_traj.csv"
        traj.write_text(header + "\n")
        assert read_trajectory(traj).t.size == 0
        code = main(["eval", "--traj", str(traj),
                     "--truth", str(ws / "truth.csv"),
                     "--ttd", "42", "--out", str(tmp_path / "report.json")])
        assert code == 2
        assert "empty trajectory" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("name, row, value", [
        ("traj.csv", 100, "nan"), ("traj.csv", -1, "inf"),
        ("truth.csv", 100, "nan"),
    ])
    def test_eval_of_non_finite_rows_exits_two(self, workspace, tmp_path,
                                               capsys, name, row, value):
        # ``nan`` and ``inf`` parse as floats; row 100 is no checkpoint,
        # so a NaN there would go unseen, and an infinite last row would
        # write ``Infinity`` into the report.
        ws, _ = workspace
        lines = (ws / name).read_text().splitlines(keepends=True)
        number = row + 2 if row >= 0 else len(lines)
        fields = lines[number - 1].split(",")
        fields[1] = value
        lines[number - 1] = ",".join(fields)
        bad = tmp_path / name
        bad.write_text("".join(lines))
        inputs = {"traj.csv": ws / "traj.csv", "truth.csv": ws / "truth.csv"}
        inputs[name] = bad
        out = tmp_path / "report.json"
        code = main(["eval", "--traj", str(inputs["traj.csv"]),
                     "--truth", str(inputs["truth.csv"]),
                     "--ttd", "42", "--out", str(out)])
        assert code == 2
        assert (f"{bad}, line {number}: value {value} is not finite"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("name, rows, row, source", [
        ("truth.csv", 2, 1, 0), ("truth.csv", None, 500, 100),
        ("traj.csv", 2, 1, 0), ("traj.csv", None, 500, 100),
    ], ids=["two_rows_one_time", "steps_back",
            "trajectory_two_rows_one_time", "trajectory_steps_back"])
    def test_eval_of_truth_times_that_do_not_increase_exits_two(
            self, workspace, tmp_path, capsys, name, rows, row, source):
        # The first ``rows`` rows of the truth or the trajectory, row
        # ``row`` taking the time of row ``source``: two rows with one
        # time, whose rate would be 1 / 0, and a time stepping back
        # mid-file, which evaluation would score.
        ws, _ = workspace
        lines = (ws / name).read_text().splitlines(keepends=True)
        lines = lines[:1 + rows] if rows else lines
        number = row + 2
        time = lines[source + 1].split(",", 1)[0]
        lines[number - 1] = time + "," + lines[number - 1].split(",", 1)[1]
        bad = tmp_path / name
        bad.write_text("".join(lines))
        inputs = {"traj.csv": ws / "traj.csv", "truth.csv": ws / "truth.csv"}
        inputs[name] = bad
        out = tmp_path / "report.json"
        code = main(["eval", "--traj", str(inputs["traj.csv"]),
                     "--truth", str(inputs["truth.csv"]),
                     "--ttd", "42", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        label = "truth" if name == "truth.csv" else "trajectory"
        assert f"{label} {bad}, line {number}: time {float(time)!r} " in err
        assert "times must be strictly increasing" in err
        assert not out.exists()

    def test_track_of_a_repeated_log_time_exits_two(self, workspace,
                                                    tmp_path, capsys):
        # Row 300 takes row 299's time; the refusal names its file line,
        # the header being line 1.
        ws, _ = workspace
        lines = (ws / "walk.csv").read_text().splitlines(keepends=True)
        time = lines[300].split(",", 1)[0]
        lines[301] = time + "," + lines[301].split(",", 1)[1]
        bad = tmp_path / "walk.csv"
        bad.write_text("".join(lines))
        out = tmp_path / "traj.csv"
        code = main(["track", "--log", str(bad), "--cal", str(ws / "cal.json"),
                     "--config", str(ws / "config.json"), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert (f"log {bad}, line 302: time {float(time)!r} does not follow "
                f"{float(time)!r}; times must be strictly increasing") in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "calibrate"])
    @pytest.mark.parametrize("value", ["inf", "1e999", "nan"])
    def test_non_finite_flag_exits_two(self, workspace, tmp_path, capsys,
                                       command, value):
        # Refused by the argument parser, before ``eval --ttd inf`` can
        # write epsilon_ttd 0 or ``calibrate --g inf`` reach the fit.
        ws, _ = workspace
        out = tmp_path / "out.json"
        if command == "eval":
            argv = ["eval", "--traj", str(ws / "traj.csv"),
                    "--truth", str(ws / "truth.csv"), "--ttd", value]
        else:
            argv = ["calibrate", "--stills", str(ws / "stills"), "--g", value]
        with pytest.raises(SystemExit) as info:
            main(argv + ["--out", str(out)])
        assert info.value.code == 2
        assert f"{value!r} is not positive and finite" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("command, flag", [
        ("calibrate", "--still-gyro-limit"),
        ("allan", "--points-per-decade"),
    ])
    def test_retired_flags_exit_two(self, workspace, tmp_path, capsys,
                                    command, flag):
        # The still limit is `constants.STILL_RATE_LIMIT` and the tau
        # grid density the library default; neither is a flag.
        ws, _ = workspace
        out = tmp_path / "out.csv"
        if command == "calibrate":
            argv = ["calibrate", "--stills", str(ws / "stills")]
        else:
            argv = ["allan", "--log", str(ws / "still_long.csv"), "--axis", "3"]
        with pytest.raises(SystemExit) as info:
            main(argv + ["--out", str(out), flag, "10"])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} 10" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert flag not in capsys.readouterr().out


# Every scalar and array field of every JSON document the CLI reads, as
# (file, section, field, annotated type): the dataclass fields of each
# section, so a field added later is covered without editing this list,
# and the top-level numbers of gait.json.  Nested dataclass fields (the
# config's filter and stance) are covered through their own sections.
_SECTIONS = [
    ("config.json", "filter", FilterConfig),
    ("config.json", "stance", StanceConfig),
    ("config.json", None, PipelineConfig),
    ("cal.json", "accel", SensorCalibration),
    ("cal.json", "gyro", SensorCalibration),
    ("gait.json", "gait", GaitParams),
    ("gait.json", "noise", NoiseParams),
]
_FIELDS = [
    (file, section, name, tp)
    for file, section, cls in _SECTIONS
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


# A valid instance of each config class, in the order of `_SECTIONS`.
_CONFIG_CLASSES = list(dict.fromkeys(cls for _, _, cls in _SECTIONS))
_VALID = {
    FilterConfig: lambda: default_filter_config(FS),
    StanceConfig: lambda: default_stance_config(FS),
    PipelineConfig: lambda: PipelineConfig(
        filter=default_filter_config(FS), stance=default_stance_config(FS),
        calibration_paths={"accel": "cal.json", "gyro": "cal.json"}),
    SensorCalibration: lambda: scale_calibration(LSB_A),
    GaitParams: lambda: GaitParams(step_length=1.0, cadence=1.5,
                                   path=[[0.0, 0.0], [5.0, 0.0]], seed=3),
    NoiseParams: lambda: razor_noise(FS),
}
_CLASS_FIELDS = [(cls, name, tp) for cls in _CONFIG_CLASSES
                 for name, tp in typing.get_type_hints(cls).items()
                 if not dataclasses.is_dataclass(tp)]


class TestMalformedFieldsInPython:
    """The Python twin of `TestMalformedValues`: each config class,
    constructed with each wrong value, raises a `ValueError` naming the
    field, and the JSON reader refuses the same value with the same
    message under its section label."""

    @pytest.mark.parametrize(
        "cls, name, tp", _CLASS_FIELDS,
        ids=[f"{cls.__name__}-{name}" for cls, name, _ in _CLASS_FIELDS])
    def test_wrong_type_raises(self, cls, name, tp):
        valid = _VALID[cls]()
        for value in _wrong_values(tp, _to_doc(getattr(valid, name))):
            with pytest.raises(ValueError, match=f"'{name}'") as python:
                dataclasses.replace(valid, **{name: value})
            doc = _to_doc(valid)
            doc[name] = value
            with pytest.raises(ValueError) as json_doc:
                _from_doc(cls, doc, "section")
            assert str(json_doc.value) == f"section: {python.value}", value

    def test_field_rule_is_stated_once(self):
        # Each class checks its annotated fields through `check_fields`
        # before anything else, and tests no type or finiteness itself.
        for cls in _CONFIG_CLASSES:
            source = textwrap.dedent(inspect.getsource(cls.__post_init__))
            tree = ast.parse(source)
            assert ast.unparse(tree.body[0].body[0]) == "check_fields(self)", cls
            names = {node.id for node in ast.walk(tree)
                     if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)}
            assert not names & {"isfinite", "numbers", "Real", "bool",
                                "bool_", "isinstance", "is_integer",
                                "asarray"}, cls

    def test_negative_seed_is_refused(self, workspace, tmp_path, capsys):
        with pytest.raises(ValueError, match=r"\bseed\b"):
            dataclasses.replace(_VALID[GaitParams](), seed=-1)
        ws, _ = workspace
        doc = json.loads((ws / "gait.json").read_text())
        doc["gait"]["seed"] = -1
        (tmp_path / "gait.json").write_text(json.dumps(doc))
        out = tmp_path / "walk.csv"
        code = main(["simulate", "--params", str(tmp_path / "gait.json"),
                     "--out", str(out), "--truth", str(tmp_path / "truth.csv")])
        assert code == 2
        assert "gait section: seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, name, value, message", [
        ("gait", "lead_in", 1e308, "lead_in (1e+308) and tail (1.0) make"),
        ("gait", "tail", 1e308, "lead_in (1.0) and tail (1e+308) make"),
        # Countable, but hundreds of TiB: numpy refuses the allocation
        # before it takes any memory.
        ("gait", "lead_in", 1e12, "Unable to allocate"),
        ("noise", "accel_sigma", [0.1, 0.2],
         "noise section: accel_sigma must broadcast to shape (3,)"),
        # Too many steps to count: a step too short for the path, and a
        # path whose length overflows float64.
        ("gait", "step_length", 1e-308,
         "gait section: step_length (1e-308) cuts the path length (42.0 m)"),
        ("gait", "path", [[0.0, 0.0], [1e308, 0.0]],
         "gait section: step_length (1.0) cuts the path length (inf m)")])
    def test_scenario_out_of_range_exits_two(self, workspace, tmp_path,
                                             capsys, section, name, value,
                                             message):
        # A walk too long to count its samples or steps or to hold in
        # memory, and a noise level for two axes: refused with a message,
        # not by a traceback, an overflow warning or numpy's own
        # broadcast message.
        ws, _ = workspace
        doc = json.loads((ws / "gait.json").read_text())
        doc[section][name] = value
        (tmp_path / "gait.json").write_text(json.dumps(doc))
        out = tmp_path / "walk.csv"
        code = main(["simulate", "--params", str(tmp_path / "gait.json"),
                     "--out", str(out), "--truth", str(tmp_path / "truth.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"pdrnav simulate: {message}"), err
        assert not out.exists()


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

    @pytest.mark.parametrize("bad", [("b_spin.csv", "c_short.csv"),
                                     ("b_short.csv", "c_spin.csv")],
                             ids=["spin_first", "short_first"])
    def test_first_bad_capture_by_name_exits_two(self, tmp_path, capsys,
                                                  bad):
        # Two bad captures before twelve good ones in file-name order:
        # the command refuses with `batch_means`' own message for the
        # captures in that order, which names the first bad one.
        stills = tmp_path / "stills"
        stills.mkdir()
        _write_still_logs(stills, np.random.default_rng(6))
        for name in bad:
            n = 20 if "short" in name else 300
            write_log(stills / name, ImuLog(
                t=np.arange(n) / FS,
                accel=np.tile([0, 0, int(round(constants.GRAVITY / LSB_A))],
                              (n, 1)),
                gyro=np.full((n, 3), 2000 if "spin" in name else 0),
                fs=FS, lsb_accel=LSB_A, lsb_gyro=LSB_W,
            ))
        logs = {name: read_log(stills / name)
                for name in sorted(os.listdir(stills))}
        with pytest.raises(CalibrationError) as refusal:
            batch_means(logs)
        assert str(refusal.value).startswith(f"{bad[0]}: ")
        code = self.run_quietly(["calibrate", "--stills", str(stills),
                                 "--out", str(tmp_path / "cal.json")])
        assert code == 2
        assert capsys.readouterr().err == \
            f"pdrnav calibrate: {refusal.value}\n"
        assert not (tmp_path / "cal.json").exists()

    @pytest.mark.parametrize("sensor", ["accel", "gyro"])
    def test_capture_on_another_scale_exits_two(self, tmp_path, capsys,
                                                 sensor):
        # One capture logged at twice the full-scale range: each of its
        # counts means twice as much, and the fit runs in counts.
        stills = tmp_path / "stills"
        stills.mkdir()
        _write_still_logs(stills, np.random.default_rng(4))
        path = stills / "still_05.csv"
        log = read_log(path)
        lsb = f"lsb_{sensor}"
        write_log(path, dataclasses.replace(
            log, **{sensor: getattr(log, sensor) // 2,
                    lsb: 2.0 * getattr(log, lsb)}))
        code = self.run_quietly(["calibrate", "--stills", str(stills),
                                 "--out", str(tmp_path / "cal.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"still_05.csv: {sensor} scale" in err, err
        assert not (tmp_path / "cal.json").exists()

    @pytest.mark.parametrize("sensor", ["accel", "gyro"])
    def test_captures_whose_counts_never_change_exit_two(self, tmp_path,
                                                         capsys, sensor):
        # Every capture holds one sensor at count 5 throughout: there is
        # no noise to fit, and the refusal names the sensor and the
        # first capture, not a field of the batch.
        stills = tmp_path / "stills"
        stills.mkdir()
        _write_still_logs(stills, np.random.default_rng(4))
        for path in sorted(stills.iterdir()):
            log = read_log(path)
            held = np.full_like(getattr(log, sensor), 5)
            write_log(path, dataclasses.replace(log, **{sensor: held}))
        code = self.run_quietly(["calibrate", "--stills", str(stills),
                                 "--out", str(tmp_path / "cal.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert re.search(rf"\b{sensor} counts never change\b", err), err
        assert re.search(r"\bstill_00\.csv\b", err), err
        assert not (tmp_path / "cal.json").exists()

    def test_short_capture_before_another_scale_is_named(self, tmp_path,
                                                          capsys):
        # Each capture is checked in full, scales then length, before the
        # next: the short still_02 is named, not the later still_05 on
        # another gyro scale.
        stills = tmp_path / "stills"
        stills.mkdir()
        _write_still_logs(stills, np.random.default_rng(4))
        short = read_log(stills / "still_02.csv")
        write_log(stills / "still_02.csv", dataclasses.replace(
            short, t=short.t[:20], accel=short.accel[:20],
            gyro=short.gyro[:20]))
        rescaled = read_log(stills / "still_05.csv")
        write_log(stills / "still_05.csv", dataclasses.replace(
            rescaled, gyro=rescaled.gyro // 2, lsb_gyro=2.0 * LSB_W))
        code = self.run_quietly(["calibrate", "--stills", str(stills),
                                 "--out", str(tmp_path / "cal.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            "pdrnav calibrate: still_02.csv: 20 samples, need at least 50\n")
        assert not (tmp_path / "cal.json").exists()

    @pytest.mark.parametrize("text", ["1.5", "1.0", "1e3", "nan",
                                      "99999999999"])
    def test_non_integer_count_exits_two(self, tmp_path, capsys, text):
        log = tmp_path / "float_counts.csv"
        log.write_text(self.HEADER + "0,0,0,8192,1,-2,3\n"
                       + f"0.01,0,{text},8192,1,-2,3\n")
        code = self.run_quietly(["allan", "--log", str(log), "--axis", "0",
                                 "--out", str(tmp_path / "allan.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "float_counts.csv" in err and repr(text) in err, err
        assert not (tmp_path / "allan.csv").exists()

    @pytest.mark.parametrize("command, header, field", [
        ("track", "# fs=nan lsb_a=0.001 lsb_w=0.0001\n", "fs"),
        ("allan", "# fs=100 lsb_a=nan lsb_w=nan\n", "lsb_accel"),
    ], ids=["fs", "lsb"])
    def test_non_finite_header_exits_two(self, workspace, tmp_path, capsys,
                                         command, header, field):
        # Refused when the log is read, naming the field, rather than
        # later by whatever arithmetic the NaN reaches first.
        ws, _ = workspace
        log = tmp_path / "nan_header.csv"
        log.write_text(header + "".join(
            f"{k / 100!r},0,0,8192,1,-2,3\n" for k in range(1200)))
        out = tmp_path / "out.csv"
        if command == "track":
            argv = ["track", "--log", str(log), "--cal", str(ws / "cal.json"),
                    "--config", str(ws / "config.json"), "--out", str(out)]
        else:
            argv = ["allan", "--log", str(log), "--axis", "0",
                    "--out", str(out)]
        code = self.run_quietly(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert f"log {log}: " in err, err
        assert re.search(rf"\b{field}\b", err), err
        assert "finite" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("header, field", [
        ("# fs=abc lsb_a=0.001 lsb_w=0.0001\n", "fs='abc'"),
        ("# fs=100 lsb_a=0.001 lsb_w=1e-4x\n", "lsb_w='1e-4x'"),
        ("# fs=100 lsb_a=0.001\n", "['lsb_w']"),
        ("# fs=100 fs=50 lsb_a=0.001 lsb_w=0.0001\n",
         "header declares fs more than once"),
    ], ids=["fs_text", "lsb_text", "missing", "duplicate"])
    def test_bad_header_names_field_and_file(self, tmp_path, capsys, header,
                                             field):
        log = tmp_path / "bad_header.csv"
        log.write_text(header + "0,0,0,8192,1,-2,3\n")
        code = self.run_quietly(["allan", "--log", str(log), "--axis", "0",
                                 "--out", str(tmp_path / "allan.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"log {log}: " in err and field in err, err
        assert not (tmp_path / "allan.csv").exists()

    @pytest.mark.parametrize("row, message", [
        ("0.02,0,0,x,1,-2,3", "'x'"),
        ("0.02,0,0", "7 columns"),
    ], ids=["count", "ragged"])
    def test_parse_error_names_file_line(self, tmp_path, capsys, row, message):
        # A comment line and a blank line between the data rows, which
        # the parser's own row count leaves out; the bad row is line 5.
        log = tmp_path / "bad_row.csv"
        log.write_text(self.HEADER + "0,0,0,8192,1,-2,3\n# pause\n\n"
                       + row + "\n0.03,0,0,8192,1,-2,3\n")
        code = self.run_quietly(["allan", "--log", str(log), "--axis", "0",
                                 "--out", str(tmp_path / "allan.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"log {log}, line 5: " in err and message in err, err
        assert " row " not in err, err

    def test_ragged_log_exits_two(self, tmp_path, capsys):
        log = tmp_path / "ragged.csv"
        log.write_text(self.HEADER + "0,0,0,8192,1,-2,3\n0.01,0,0,8192\n")
        code = self.run_quietly(["allan", "--log", str(log), "--axis", "0",
                                 "--out", str(tmp_path / "allan.csv")])
        assert code == 2
        assert "pdrnav allan" in capsys.readouterr().err


class TestLongLogParseErrors:
    """A bad row far into a long log, past the first chunk the parser
    reads, is named by its file line, with comment and blank lines
    scattered before it that the parser's own row count leaves out."""

    HEADER = TestBadCaptures.HEADER
    ROWS = 200_000
    BAD_ROW = 160_000   # data row index of the refused row

    @pytest.fixture(scope="class")
    def lines(self):
        lines = [self.HEADER]
        for k in range(self.ROWS):
            if k % 9_973 == 500:
                lines.append("# pause\n")
            if k % 7_919 == 300:
                lines.append("\n")
            lines.append(f"{k / 100!r},0,0,8192,1,-2,3\n")
        return lines

    def write_with_bad_row(self, lines, path, row):
        # The bad row's place among the file lines, counted from 1.
        data = [i for i, text in enumerate(lines)
                if text.strip() and not text.startswith("#")]
        index = data[self.BAD_ROW]
        path.write_text("".join(lines[:index]) + row + "\n"
                        + "".join(lines[index + 1:]))
        return index + 1

    CASES = pytest.mark.parametrize("row, message", [
        ("1600.0,0,0,x,1,-2,3", "'x'"),
        ("1600.0,0,0", "7 columns"),
    ], ids=["count", "short_row"])

    @CASES
    def test_read_log_names_the_file_line(self, lines, tmp_path, row, message):
        path = tmp_path / "long.csv"
        number = self.write_with_bad_row(lines, path, row)
        assert number > 150_000 and number != self.BAD_ROW + 2
        with pytest.raises(ValueError) as refused:
            read_log(path)
        text = str(refused.value)
        assert f"log {path}, line {number}: " in text and message in text, text

    @CASES
    def test_allan_names_the_file_line(self, lines, tmp_path, capsys, row,
                                       message):
        path = tmp_path / "long.csv"
        number = self.write_with_bad_row(lines, path, row)
        code = main(["allan", "--log", str(path), "--axis", "0",
                     "--out", str(tmp_path / "allan.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"log {path}, line {number}: " in err and message in err, err
        assert not (tmp_path / "allan.csv").exists()


class TestModuleEntryPoint:
    """``python -m pdrnav`` runs the command line from a source tree."""

    @staticmethod
    def run(*argv):
        src = str(Path(pdrnav.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "pdrnav", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)

    def test_help_exits_zero(self):
        done = self.run("--help")
        assert done.returncode == 0, done.stderr
        assert "allan" in done.stdout

    def test_allan_without_arguments_exits_two(self):
        done = self.run("allan")
        assert done.returncode == 2
        assert "--log" in done.stderr


class TestParserCache:
    """`main` builds its parser once per process and looks up the
    subcommand's function on every call."""

    def eval_argv(self, ws, out):
        return ["eval", "--traj", str(ws / "traj.csv"),
                "--truth", str(ws / "truth.csv"), "--ttd", "42",
                "--out", str(out)]

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_a_patched_command_is_the_one_run(self, workspace, tmp_path,
                                              monkeypatch):
        ws, _ = workspace
        assert main(self.eval_argv(ws, tmp_path / "first.json")) == 0
        seen = []
        monkeypatch.setattr(cli, "_cmd_eval", lambda args: seen.append(args) or 7)
        assert main(self.eval_argv(ws, tmp_path / "second.json")) == 7
        assert [args.out for args in seen] == [str(tmp_path / "second.json")]
        assert not (tmp_path / "second.json").exists()

    @pytest.mark.parametrize("refused", [
        ["eval", "--ttd", "-3"],
        ["allan", "--axis", "9", "--out", "a.csv"],
        ["no-such-command"],
    ], ids=["bad_value", "other_command", "unknown_command"])
    def test_a_refused_call_changes_no_later_output(self, workspace, tmp_path,
                                                    capsys, refused):
        ws, _ = workspace
        assert main(self.eval_argv(ws, tmp_path / "before.json")) == 0
        with pytest.raises(SystemExit) as info:
            main(refused)
        assert info.value.code == 2
        capsys.readouterr()
        assert main(self.eval_argv(ws, tmp_path / "after.json")) == 0
        assert capsys.readouterr() == ("", "")
        assert ((tmp_path / "after.json").read_bytes()
                == (tmp_path / "before.json").read_bytes())


def test_in_process_calls_write_the_subprocess_bytes(tmp_path):
    # Every subcommand on a small workspace, once through `main` in this
    # process, whose parser earlier calls have built, and once through
    # ``python -m pdrnav`` in a fresh one: every file written must have
    # the same bytes both ways.
    rng = np.random.default_rng(5)
    inputs = tmp_path / "inputs"
    (inputs / "stills").mkdir(parents=True)
    _write_still_logs(inputs / "stills", rng, n_samples=100)
    n = 9_000
    write_log(inputs / "still.csv", ImuLog(
        t=np.arange(n) / FS,
        accel=np.rint(rng.normal(0.0, 2.0, (n, 3))).astype(np.int32),
        gyro=np.rint(rng.normal(0.0, GYRO_WHITE_SIGMA, (n, 3)) / LSB_W)
        .astype(np.int32),
        fs=FS, lsb_accel=LSB_A, lsb_gyro=LSB_W))
    write_gait_params(inputs / "gait.json", GaitParams(
        step_length=1.0, cadence=1.5,
        path=[[0.0, 0.0], [3.0, 0.0], [3.0, 3.0], [0.0, 3.0], [0.0, 0.0]],
        seed=3), FS, razor_noise(FS), LSB_A, LSB_W)
    write_config(inputs / "config.json", PipelineConfig(
        filter=default_filter_config(FS), stance=default_stance_config(FS),
        calibration_paths={"accel": "unused.json", "gyro": "unused.json"}))

    def commands(out):
        return [
            ["simulate", "--params", str(inputs / "gait.json"),
             "--out", str(out / "walk.csv"), "--truth", str(out / "truth.csv")],
            ["calibrate", "--stills", str(inputs / "stills"),
             "--out", str(out / "cal.json")],
            ["track", "--log", str(out / "walk.csv"), "--cal", str(out / "cal.json"),
             "--config", str(inputs / "config.json"), "--out", str(out / "traj.csv")],
            ["eval", "--traj", str(out / "traj.csv"), "--truth", str(out / "truth.csv"),
             "--ttd", "12", "--out", str(out / "report.json")],
            ["allan", "--log", str(inputs / "still.csv"), "--axis", "4",
             "--out", str(out / "allan.csv")],
        ]

    here, fresh = tmp_path / "in_process", tmp_path / "subprocess"
    here.mkdir()
    fresh.mkdir()
    for argv in commands(here):
        assert main(argv) == 0, argv
    for argv in commands(fresh):
        done = TestModuleEntryPoint.run(*argv)
        assert done.returncode == 0, (argv, done.stderr)
    written = sorted(p.name for p in here.iterdir())
    assert written == ["allan.csv", "allan_coefficients.json", "cal.json",
                       "report.json", "traj.csv", "truth.csv", "walk.csv"]
    assert sorted(p.name for p in fresh.iterdir()) == written
    for name in written:
        assert (here / name).read_bytes() == (fresh / name).read_bytes(), name
