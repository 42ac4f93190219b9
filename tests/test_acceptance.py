"""Acceptance suite: one test per shipping criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get exactly one
pass/fail line per criterion.  Each test prints its measured numbers,
visible with ``-rA`` or ``-s``.

The criteria ride on the synthetic oracle: the gait generator plus the
inverse IMU model produce logs whose ground truth is known exactly, so
every threshold below is an absolute claim about the shipped defaults,
not a regression snapshot.
"""

from __future__ import annotations

import dataclasses
import json
import time

import numpy as np
import pytest

from oracles import (finite_difference_jacobian, measurement_jacobian,
                     richardson_jacobian, random_nav_state)
from pdrnav import constants
from pdrnav.calibration import (
    OrientationBatch,
    canonical_gain,
    fit_accel_calibration,
    spread_directions,
)
from pdrnav.allan import allan_deviation, extract_coefficients
from pdrnav.cli import main as cli_main
from pdrnav.ekf import (
    ACC_B,
    DIM,
    MEAS_DIM,
    POS,
    QUAT,
    VEL,
    default_filter_config,
    init_state,
    measurement_model,
    predict,
    propagate,
    update,
)
from pdrnav.gait import (
    GaitParams,
    generate_gait,
    inverse_imu,
    razor_noise,
    scale_calibration,
)
from pdrnav.io import PipelineConfig, write_config, write_gait_params
from pdrnav.quat import quat_normalize
from pdrnav.tracker import ImuLog, epsilon_ttd, run_tracker
from pdrnav.zupt import (
    StanceStack,
    default_stance_config,
    match_intervals,
    sfs_series,
    stance_intervals,
)

FS = 100.0
LSB_A = constants.DEFAULT_LSB_ACCEL
LSB_W = constants.DEFAULT_LSB_GYRO
CAL_A = scale_calibration(LSB_A)
CAL_W = scale_calibration(LSB_W)


# ---------------------------------------------------------------------------
# shared fixtures: the standard synthetic suite


@pytest.fixture(scope="module")
def walk_suite():
    """Five seeded closed 300 m walks with RazorIMU-magnitude noise.

    75 m square sides at 1 m steps and 1.5 Hz cadence keep the peak
    swing specific force near 2 g, inside the simulated +-4 g range.
    """
    path = [[0.0, 0.0], [75.0, 0.0], [75.0, 75.0], [0.0, 75.0], [0.0, 0.0]]
    suite = []
    for seed in range(5):
        params = GaitParams(step_length=1.0, cadence=1.5, path=path,
                            seed=seed)
        truth = generate_gait(params, FS)
        counts_a, counts_w = inverse_imu(truth, CAL_A, CAL_W,
                                         razor_noise(FS), seed=seed)
        log = ImuLog(t=truth.t, accel=counts_a, gyro=counts_w, fs=FS,
                     lsb_accel=LSB_A, lsb_gyro=LSB_W)
        suite.append((truth, log))
    return suite


@pytest.fixture(scope="module")
def suite_results(walk_suite):
    """epsilon_ttd and wall time per walk for each stance mode."""
    results = {}
    for mode in ("soft", "hard", "none"):
        cfg = dataclasses.replace(default_stance_config(FS), mode=mode)
        errs, times = [], []
        for truth, log in walk_suite:
            t0 = time.perf_counter()
            traj = run_tracker(log, CAL_A, CAL_W, stance_cfg=cfg)
            times.append(time.perf_counter() - t0)
            errs.append(epsilon_ttd(traj, truth.path_length))
        results[mode] = (np.array(errs), np.array(times))
    return results


# ---------------------------------------------------------------------------
# criterion 1: calibration recovery


def test_criterion_1_calibration_recovery():
    rng = np.random.default_rng(101)
    g = constants.GRAVITY
    scale = 1.0 / LSB_A
    base_dirs = spread_directions(16)
    rel_errors = []
    slowest = 0.0
    for _ in range(20):
        # full 3x3 gain with cross-couplings, plus a counts-domain bias
        coupling = rng.uniform(-0.05, 0.05, (3, 3))
        gain_true = scale * (np.eye(3) + coupling)
        bias_true = rng.uniform(-500.0, 500.0, 3)

        # random rigid rotation of the orientation set per trial
        q = quat_normalize(rng.standard_normal(4))
        w, xv, yv, zv = q
        rot = np.array([
            [1 - 2 * (yv * yv + zv * zv), 2 * (xv * yv - w * zv),
             2 * (xv * zv + w * yv)],
            [2 * (xv * yv + w * zv), 1 - 2 * (xv * xv + zv * zv),
             2 * (yv * zv - w * xv)],
            [2 * (xv * zv - w * yv), 2 * (yv * zv + w * xv),
             1 - 2 * (xv * xv + yv * yv)],
        ])
        dirs = base_dirs @ rot.T

        # P=16 orientations, N=500 samples each, noise sigma = 0.5% g
        means = []
        for u in dirs:
            samples = g * u + rng.normal(0.0, 0.005 * g, (500, 3))
            counts = samples @ gain_true.T + bias_true
            means.append(counts.mean(axis=0))
        batch = OrientationBatch(means=np.array(means),
                                 samples_per_orientation=500)

        t0 = time.perf_counter()
        cal = fit_accel_calibration(batch, g)
        slowest = max(slowest, time.perf_counter() - t0)

        ref = canonical_gain(gain_true)
        rel_gain = (np.linalg.norm(canonical_gain(cal.gain) - ref)
                    / np.linalg.norm(ref))
        rel_bias = (np.linalg.norm(cal.bias - bias_true)
                    / np.linalg.norm(bias_true))
        rel_errors.append(max(rel_gain, rel_bias))

    median_rel = float(np.median(rel_errors))
    assert median_rel <= 0.01
    assert slowest < 5.0
    print(f"criterion 1 (calibration recovery): PASS - median relative "
          f"error {median_rel:.2e} over 20 trials, slowest fit {slowest:.2f} s")


# ---------------------------------------------------------------------------
# criterion 2: jacobian consistency


def test_criterion_2_jacobian_consistency():
    rng = np.random.default_rng(202)
    fcfg = default_filter_config(FS)
    scfg = default_stance_config(FS)
    worst_fd = 0.0
    for _ in range(20):
        x = random_nav_state(rng)

        fd = finite_difference_jacobian(lambda xs: propagate(xs, fcfg), x, DIM)
        ref = richardson_jacobian(lambda x1: propagate(x1, fcfg), x, DIM)
        worst_fd = max(worst_fd, float(np.abs(fd - ref).max()))

        fd = finite_difference_jacobian(measurement_model, x, MEAS_DIM)
        ref = richardson_jacobian(measurement_model, x, MEAS_DIM)
        worst_fd = max(worst_fd, float(np.abs(fd - ref).max()))

        stack = StanceStack(scfg, constants.GRAVITY)
        stack.latch(x)
        accel = x[ACC_B] + rng.normal(0.0, 0.01, 3)
        gyro = rng.normal(0.0, 0.01, 3)
        residual = lambda s: stack.linearize(s, np.concatenate([accel, gyro]))[0]
        n_rows = residual(x).size
        fd = finite_difference_jacobian(residual, x, n_rows)
        ref = richardson_jacobian(residual, x, n_rows)
        worst_fd = max(worst_fd, float(np.abs(fd - ref).max()))

    assert worst_fd <= 1e-5

    # exactly linear pieces must match their closed forms much tighter
    worst_lin = 0.0
    x = random_nav_state(rng)
    fd_meas = finite_difference_jacobian(measurement_model, x, MEAS_DIM)
    worst_lin = max(worst_lin, float(np.abs(fd_meas - measurement_jacobian()).max()))
    fd_dyn = finite_difference_jacobian(lambda xs: propagate(xs, fcfg), x, DIM)
    ts = fcfg.ts
    eye = np.eye(3)
    assert fd_dyn.shape == (DIM, DIM)
    pos_block = np.zeros((3, DIM))
    pos_block[:, POS] = eye
    pos_block[:, VEL] = ts * eye
    pos_block[:, slice(6, 9)] = 0.5 * ts * ts * eye
    worst_lin = max(worst_lin, float(np.abs(fd_dyn[POS] - pos_block).max()))
    vel_block = np.zeros((3, DIM))
    vel_block[:, VEL] = eye
    vel_block[:, slice(6, 9)] = ts * eye
    worst_lin = max(worst_lin, float(np.abs(fd_dyn[VEL] - vel_block).max()))
    assert worst_lin <= 1e-8

    print(f"criterion 2 (jacobian consistency): PASS - FD vs Richardson "
          f"max {worst_fd:.2e} (<=1e-5), linear blocks {worst_lin:.2e} (<=1e-8)")


# ---------------------------------------------------------------------------
# criterion 3: filter sanity


def test_criterion_3_filter_sanity():
    fcfg = default_filter_config(FS)

    # zero-innovation update: mean fixed, trace strictly contracts
    rng = np.random.default_rng(303)
    x = random_nav_state(rng)
    from oracles import random_covariance

    est_x, est_P = x.copy(), random_covariance(rng, scale=0.1)
    z = measurement_model(est_x)
    post_x, post_P = update(est_x, est_P, z, fcfg.r_diag)
    mean_shift = float(np.abs(post_x - est_x).max())
    assert mean_shift < 1e-12
    assert np.trace(post_P) < np.trace(est_P)

    # 1e5 predict/update cycles on synthetic walking data
    params = GaitParams(step_length=1.0, cadence=1.5,
                        path=[[0.0, 0.0], [12.0, 0.0], [12.0, 12.0],
                              [0.0, 12.0], [0.0, 0.0]], seed=13)
    truth = generate_gait(params, FS)
    counts_a, counts_w = inverse_imu(truth, CAL_A, CAL_W, razor_noise(FS),
                                     seed=13)
    f_b = counts_a * LSB_A
    w_b = counts_w * LSB_W
    n_src = f_b.shape[0]

    est_x, est_P = init_state(np.zeros(3), 0.0, f_b[:100], w_b[:100], fcfg, FS)
    q_diag = fcfg.effective_q_diag()
    cycles = 100_000
    worst_asym = 0.0
    min_eig = np.inf
    for k in range(cycles):
        est_x, est_P = predict(est_x, est_P, fcfg, q_diag)
        j = k % n_src
        est_x, est_P = update(est_x, est_P, np.concatenate([f_b[j], w_b[j]]),
                              fcfg.r_diag)
        if k % 2000 == 0 or k == cycles - 1:
            p_mat = est_P
            worst_asym = max(worst_asym,
                             float(np.abs(p_mat - p_mat.T).max()))
            min_eig = min(min_eig,
                          float(np.linalg.eigvalsh(0.5 * (p_mat + p_mat.T)).min()))
    scale = float(np.abs(est_P).max())
    assert worst_asym <= 1e-9 * max(1.0, scale)
    assert min_eig >= -1e-10 * max(1.0, scale)
    assert np.all(np.isfinite(est_x))

    print(f"criterion 3 (filter sanity): PASS - zero-innovation mean shift "
          f"{mean_shift:.1e}, {cycles} cycles, max asymmetry {worst_asym:.1e}, "
          f"min eigenvalue {min_eig:.1e}")


# ---------------------------------------------------------------------------
# criteria 4 and 5: tracking efficacy on the standard suite


def test_criterion_4_zupt_efficacy(suite_results):
    soft, t_soft = suite_results["soft"]
    none, t_none = suite_results["none"]
    median_soft = float(np.median(soft))
    slowest = float(max(t_soft.max(), t_none.max()))
    assert median_soft <= 0.02
    assert np.all(soft < none)
    assert slowest < 60.0
    print(f"criterion 4 (zupt efficacy): PASS - median eps_ttd "
          f"{median_soft:.4f} (<=0.02), soft < none on all 5 seeds, "
          f"slowest walk {slowest:.1f} s (<60)")


def test_criterion_5_soft_not_worse_than_hard(suite_results):
    soft, _ = suite_results["soft"]
    hard, _ = suite_results["hard"]
    median_soft = float(np.median(soft))
    median_hard = float(np.median(hard))
    assert median_soft <= median_hard
    print(f"criterion 5 (soft vs hard): PASS - medians "
          f"{median_soft:.4f} <= {median_hard:.4f}")


# ---------------------------------------------------------------------------
# criterion 6: stance detection quality


def test_criterion_6_stance_detection_f1(walk_suite):
    cfg = default_stance_config(FS)
    f1_scores = []
    for truth, log in walk_suite:
        f_b = log.accel * LSB_A
        w_b = log.gyro * LSB_W
        detected = sfs_series(f_b, w_b, cfg) >= cfg.sfs_threshold
        tp = int(np.sum(detected & truth.stance))
        fp = int(np.sum(detected & ~truth.stance))
        fn = int(np.sum(~detected & truth.stance))
        f1_scores.append(2 * tp / (2 * tp + fp + fn))

        events = stance_intervals(detected)
        true_iv = stance_intervals(truth.stance)
        assert match_intervals(events, true_iv, tolerance=5) == len(events)
    worst = float(min(f1_scores))
    assert worst >= 0.95
    print(f"criterion 6 (stance detection): PASS - worst sample-level F1 "
          f"{worst:.4f} across 5 seeds; every event within 5 samples of a "
          f"true interval")


# ---------------------------------------------------------------------------
# criterion 7: allan coefficient recovery


def test_criterion_7_allan_recovery():
    n_true = 5.2e-3  # unit/sqrt(Hz), the target white-noise density
    fs = 100.0
    rng = np.random.default_rng(707)
    series = rng.normal(0.0, n_true * np.sqrt(fs), 1_000_000)

    t0 = time.perf_counter()
    curve = allan_deviation(series, fs, points_per_decade=10)
    coeffs = extract_coefficients(curve)  # raises if no -1/2 region exists
    elapsed = time.perf_counter() - t0

    rel = abs(coeffs.random_walk - n_true) / n_true
    assert rel <= 0.10
    assert elapsed < 10.0
    print(f"criterion 7 (allan recovery): PASS - N {coeffs.random_walk:.3e} "
          f"vs true {n_true:.1e} ({100 * rel:.1f}% off), "
          f"1e6 samples in {elapsed:.2f} s (<10)")


# ---------------------------------------------------------------------------
# criterion 8: byte-identical reruns


def test_criterion_8_deterministic_outputs(tmp_path):
    params = GaitParams(step_length=1.0, cadence=1.5,
                        path=[[0.0, 0.0], [10.0, 0.0], [10.0, 8.0]],
                        seed=42)
    write_gait_params(tmp_path / "gait.json", params, FS, razor_noise(FS),
                      LSB_A, LSB_W)
    config = PipelineConfig(
        filter=default_filter_config(FS),
        stance=default_stance_config(FS),
        calibration_paths={"accel": str(tmp_path / "cal.json"),
                           "gyro": str(tmp_path / "cal.json")},
    )
    write_config(tmp_path / "config.json", config)
    from pdrnav.io import write_calibration
    write_calibration(tmp_path / "cal.json", CAL_A, CAL_W)

    outputs = {}
    for run in ("a", "b"):
        walk = tmp_path / f"walk_{run}.csv"
        truth = tmp_path / f"truth_{run}.csv"
        traj = tmp_path / f"traj_{run}.csv"
        assert cli_main(["simulate", "--params", str(tmp_path / "gait.json"),
                         "--out", str(walk), "--truth", str(truth)]) == 0
        assert cli_main(["track", "--log", str(walk),
                         "--cal", str(tmp_path / "cal.json"),
                         "--config", str(tmp_path / "config.json"),
                         "--out", str(traj)]) == 0
        outputs[run] = (walk.read_bytes(), truth.read_bytes(),
                        traj.read_bytes())

    assert outputs["a"] == outputs["b"]
    size = sum(len(b) for b in outputs["a"])
    print(f"criterion 8 (determinism): PASS - simulate+track rerun "
          f"byte-identical across {size} bytes of output")
