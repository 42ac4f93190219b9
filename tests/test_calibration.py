"""Calibration fit against hand-derived and per-mean oracles."""

from __future__ import annotations

import dataclasses
import itertools
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdrnav import calibration
from pdrnav.calibration import (
    CalibrationError,
    _residuals_and_jacobian,
    _theta_to_gain_bias,
    OrientationBatch,
    apply_accel_calibration,
    apply_gyro_calibration,
    batch_means,
    canonical_gain,
    fit_accel_calibration,
    spread_directions,
)
from pdrnav.constants import DEFAULT_LSB_ACCEL, DEFAULT_LSB_GYRO, GRAVITY
from pdrnav.gait import scale_calibration
from pdrnav.tracker import ImuLog

from oracles import (
    per_capture_still_statistics,
    radial_residuals,
    richardson_jacobian,
)

FS = 100.0


def random_lower_triangular(rng, scale=1.0):
    gain = np.tril(rng.uniform(-0.15, 0.15, (3, 3)))
    np.fill_diagonal(gain, rng.uniform(0.8, 1.2, 3))
    return gain * scale


def points_off_surface(rng, gain, bias, n_in, n_out, g=GRAVITY):
    """Means along random directions at 0.3-0.8 (inside) and 1.25-2.5
    (outside) times the model radius: clear of the centre, where the
    radial direction is undefined."""
    u = rng.standard_normal((n_in + n_out, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    radius = np.r_[rng.uniform(0.3, 0.8, n_in), rng.uniform(1.25, 2.5, n_out)]
    return (g * radius[:, None] * u) @ gain.T + bias


def synth_means(gain, bias, n_orient, g=GRAVITY, sigma_phys=0.0, n_samples=1,
                seed=0, dirs=None):
    """Forward sensor model at spread orientations, or at the unit
    ``dirs`` (n_orient, 3) when given; optional sample noise."""
    rng = np.random.default_rng(seed)
    if dirs is None:
        dirs = spread_directions(n_orient)
    means = np.empty((n_orient, 3))
    for p in range(n_orient):
        truth = g * dirs[p]
        if sigma_phys > 0:
            samples = truth + rng.normal(0.0, sigma_phys, (n_samples, 3))
            means[p] = (samples @ gain.T + bias).mean(axis=0)
        else:
            means[p] = gain @ truth + bias
    return means


def cap_directions(n, half_angle_deg):
    """n unit vectors spread over the cap within ``half_angle_deg`` of +z."""
    i = np.arange(n) + 0.5
    z = 1.0 - (1.0 - np.cos(np.deg2rad(half_angle_deg))) * i / n
    r = np.sqrt(1.0 - z * z)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def circle_directions(n, polar_deg):
    """n unit vectors evenly around the circle at ``polar_deg`` from +z;
    90 degrees is a great circle, what turning about one axis gives."""
    phi = 2.0 * np.pi * np.arange(n) / n
    t = np.deg2rad(polar_deg)
    return np.column_stack([np.sin(t) * np.cos(phi), np.sin(t) * np.sin(phi),
                            np.full(n, np.cos(t))])


class TestClosedFormJacobian:
    def test_unit_gain_by_hand(self):
        # Twice g out from the centre of a radius-g sphere, and half g in.
        g = GRAVITY
        res, _ = _residuals_and_jacobian(
            np.eye(3), np.zeros(3), np.array([[2 * g, 0.0, 0.0],
                                              [0.0, g / 2, 0.0]]), g)
        assert_allclose(res, [g, -g / 2], rtol=1e-15)

    def test_zero_distance_takes_the_outward_normal(self):
        # A mean on the unit sphere's surface: zero residual, and the
        # bias row is minus the outward normal u.
        g = GRAVITY
        res, jac = _residuals_and_jacobian(np.eye(3), np.zeros(3),
                                           np.array([[0.0, g, 0.0]]), g)
        assert res[0] == 0.0
        assert_allclose(jac[0, 6:], [0.0, -1.0, 0.0], atol=1e-15)

    def test_against_richardson(self):
        # Residuals against the per-mean oracle, and their derivative by
        # the 6 lower-triangular gain entries and the bias, for means
        # inside and outside.
        rng = np.random.default_rng(29)
        for _ in range(20):
            gain = random_lower_triangular(rng, scale=rng.choice([1.0, 835.0]))
            bias = rng.uniform(-3, 3, 3) * gain[0, 0]
            means = points_off_surface(rng, gain, bias, 6, 6)
            theta = np.r_[gain[np.tril_indices(3)], bias]

            def residuals(t):
                return _residuals_and_jacobian(*_theta_to_gain_bias(t),
                                               means, GRAVITY)[0]

            ref = richardson_jacobian(residuals, theta, means.shape[0])
            res, jac = _residuals_and_jacobian(gain, bias, means, GRAVITY)
            assert_allclose(res, radial_residuals(gain, bias, means, GRAVITY),
                            rtol=1e-12, atol=1e-12 * GRAVITY)
            assert_allclose(jac, ref, rtol=1e-6, atol=1e-6 * np.abs(ref).max())


class TestFit:
    def test_noise_free_recovery(self):
        rng = np.random.default_rng(3)
        gain_true = random_lower_triangular(rng, scale=800.0)
        bias_true = rng.uniform(-300, 300, 3)
        means = synth_means(gain_true, bias_true, 12)
        cal = fit_accel_calibration(OrientationBatch(means, 1))
        assert_allclose(cal.gain, gain_true, rtol=1e-7, atol=1e-7 * 800)
        assert_allclose(cal.bias, bias_true, rtol=0, atol=1e-4)

    def test_full_cross_coupling_recovers_canonical_factor(self):
        # A gain with all nine entries populated: the magnitude-only fit
        # can only see gain @ gain', i.e. the Cholesky representative.
        rng = np.random.default_rng(11)
        gain_true = np.eye(3) * 820 + rng.uniform(-40, 40, (3, 3))
        bias_true = rng.uniform(-200, 200, 3)
        means = synth_means(gain_true, bias_true, 14)
        cal = fit_accel_calibration(OrientationBatch(means, 1))
        want = canonical_gain(gain_true)
        assert_allclose(cal.gain, want, rtol=1e-6, atol=1e-6 * 820)
        assert_allclose(cal.bias, bias_true, rtol=0, atol=1e-3)

    def test_noisy_recovery_is_close(self):
        rng = np.random.default_rng(5)
        gain_true = random_lower_triangular(rng, scale=835.0)
        bias_true = rng.uniform(-300, 300, 3)
        means = synth_means(
            gain_true, bias_true, 16,
            sigma_phys=0.005 * GRAVITY, n_samples=500, seed=17,
        )
        cal = fit_accel_calibration(OrientationBatch(means, 500))
        assert np.max(np.abs(cal.gain - gain_true)) / 835.0 < 0.05
        assert np.max(np.abs(cal.bias - bias_true)) < 0.05 * 835

    def test_scale_consistency(self):
        rng = np.random.default_rng(9)
        gain_true = random_lower_triangular(rng, scale=100.0)
        bias_true = rng.uniform(-30, 30, 3)
        means = synth_means(
            gain_true, bias_true, 12, sigma_phys=0.002 * GRAVITY,
            n_samples=200, seed=2,
        )
        cal1 = fit_accel_calibration(OrientationBatch(means, 200))
        cal2 = fit_accel_calibration(OrientationBatch(2.0 * means, 200))
        assert_allclose(cal2.gain, 2.0 * cal1.gain, rtol=1e-6)
        assert_allclose(cal2.bias, 2.0 * cal1.bias, rtol=1e-6, atol=1e-6)

    @staticmethod
    def budget_means():
        rng = np.random.default_rng(13)
        gain_true = random_lower_triangular(rng, scale=835.0)
        bias_true = rng.uniform(-100, 100, 3)
        return synth_means(
            gain_true, bias_true, 16, sigma_phys=0.01 * GRAVITY,
            n_samples=100, seed=3,
        )

    @staticmethod
    def fit_cost(cal, means):
        res, _ = _residuals_and_jacobian(cal.gain, cal.bias, means, GRAVITY)
        return float(res @ res)

    def test_cost_history_non_increasing(self, monkeypatch):
        # A fit given k iterations gives up with the cost of its k-th
        # iterate, until k is enough to converge; that run's cost is
        # recomputed from its parameters.
        means = self.budget_means()
        costs = []
        for k in range(20):
            monkeypatch.setattr(calibration, "_MAX_ITER", k)
            try:
                cal = fit_accel_calibration(OrientationBatch(means, 100))
            except CalibrationError as err:
                costs.append(err.cost)
                continue
            costs.append(self.fit_cost(cal, means))
            break
        else:
            pytest.fail("no convergence within 19 iterations")
        assert len(costs) > 2
        assert np.all(np.diff(costs) <= 0)

    def test_minimum_of_the_oracle_cost(self):
        # The fitted parameters sit at a stationary point of the radial
        # cost evaluated with the per-mean oracle.  The fit reads 4.9e-7
        # here, the floor of the Richardson gradient; stopping at the
        # first tied trial, without the step that lowers the cost, reads
        # 8.3e-7, so the bound between the two pins the stop rule.
        means = self.budget_means()
        cal = fit_accel_calibration(OrientationBatch(means, 100))
        cost = self.fit_cost(cal, means)
        theta = np.r_[cal.gain[np.tril_indices(3)], cal.bias]

        def oracle_cost(t):
            gain, bias = _theta_to_gain_bias(t)
            res = radial_residuals(gain, bias, means, GRAVITY)
            return np.array([res @ res])

        assert oracle_cost(theta)[0] == pytest.approx(cost, rel=1e-10)
        grad = richardson_jacobian(oracle_cost, theta, 1, h0=1e-3)[0]
        assert np.max(np.abs(grad) * np.maximum(np.abs(theta), 1.0)) < (
            6.5e-7 * cost)

    def test_tied_trial_ends_the_fit(self, monkeypatch):
        # A draw in the benchmark's capture geometry where a step whose
        # cost ties the current one used to set off 40 halvings before
        # the fit stopped: 44 residual evaluations where a handful do.
        rng = np.random.default_rng(0)
        gain = (np.eye(3) + rng.uniform(-0.05, 0.05, (3, 3))) / DEFAULT_LSB_ACCEL
        bias = rng.choice([-1.0, 1.0], 3) * rng.uniform(400.0, 800.0, 3)
        means = np.array([
            np.rint((GRAVITY * u + rng.normal(0.0, 0.01, (500, 3))) @ gain.T
                    + bias).mean(axis=0)
            for u in spread_directions(16)
        ])
        calls = []

        def counted(*args):
            calls.append(1)
            return _residuals_and_jacobian(*args)

        monkeypatch.setattr(calibration, "_residuals_and_jacobian", counted)
        cal = fit_accel_calibration(OrientationBatch(means, 500))
        assert len(calls) <= 8
        assert_allclose(cal.gain, canonical_gain(gain), rtol=0,
                        atol=0.01 / DEFAULT_LSB_ACCEL)

    def test_iteration_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(calibration, "_MAX_ITER", 1)
        with pytest.raises(CalibrationError,
                           match="did not converge in 1 iter") as err:
            fit_accel_calibration(OrientationBatch(self.budget_means(), 100))
        assert err.value.gain.shape == (3, 3)
        assert np.all(np.isfinite(err.value.gain))
        assert err.value.bias.shape == (3,)
        assert np.all(np.isfinite(err.value.bias))
        assert np.isfinite(err.value.cost) and err.value.cost > 0

    @pytest.mark.parametrize("g", [0.0, -9.8, np.nan, np.inf])
    def test_gravity_must_be_positive_and_finite(self, g):
        means = synth_means(np.eye(3) * 833.0, np.zeros(3), 16)
        with pytest.raises(CalibrationError, match="g must be positive"):
            fit_accel_calibration(OrientationBatch(means, 1), g)

    def test_too_few_orientations(self):
        means = synth_means(np.eye(3), np.zeros(3), 8)
        with pytest.raises(CalibrationError, match="9"):
            fit_accel_calibration(OrientationBatch(means, 1))

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_means_refused(self, value):
        # A hand-built batch; the fit's SVD does not converge on it.
        means = synth_means(np.eye(3) * 833.0, np.zeros(3), 12)
        means[5, 1] = value
        with pytest.raises(CalibrationError, match="^means must be finite$"):
            OrientationBatch(means, 1)

    @pytest.mark.parametrize("count", [0, -5, 2.5, True, 500.0],
                             ids=["zero", "negative", "fraction", "bool",
                                  "float"])
    def test_sample_count_must_be_a_whole_number(self, count):
        # No capture has such a count; a negative one made the coarse
        # noise the square root of a negative number.
        means = synth_means(np.eye(3) * 833.0, np.zeros(3), 12)
        with pytest.raises(CalibrationError, match=(
                f"^samples_per_orientation must be a whole number of at "
                f"least 1, got {re.escape(repr(count))}$")):
            OrientationBatch(means, count)
        assert OrientationBatch(means, np.int64(1)).samples_per_orientation == 1

    @pytest.mark.parametrize("value", [0.0, -1.5, np.nan, np.inf],
                             ids=["zero", "negative", "nan", "inf"])
    @pytest.mark.parametrize("field", ["noise_counts", "gyro_noise_counts"])
    def test_noise_must_be_positive_and_finite(self, field, value):
        # A zero noise became the fit's 1e-12 floor, a negative one an
        # error about the fitted noise_sigma.
        means = synth_means(np.eye(3) * 833.0, np.zeros(3), 12)
        with pytest.raises(CalibrationError,
                           match=f"^{field} must be positive and finite"):
            OrientationBatch(means, 500, **{field: value})

    @pytest.mark.parametrize("bias", [[np.nan, 1.0], [1.0, 2.0],
                                      [1.0, np.inf, 2.0], [[1.0, 2.0, 3.0]]],
                             ids=["nan-short", "short", "inf", "nested"])
    def test_gyro_bias_must_be_three_finite_numbers(self, bias):
        # `pdrnav calibrate` writes the batch's gyro bias on as the gyro
        # calibration's bias, so a malformed one is refused here.
        means = synth_means(np.eye(3) * 833.0, np.zeros(3), 12)
        with pytest.raises(CalibrationError,
                           match="^gyro_bias must be 3 finite numbers"):
            OrientationBatch(means, 500, gyro_bias=np.array(bias))
        batch = OrientationBatch(means, 500, gyro_bias=[1, 2, 3])
        assert_allclose(batch.gyro_bias, [1.0, 2.0, 3.0], rtol=0)

    @pytest.mark.parametrize("dirs, accepted", [
        (spread_directions(9), True),
        (spread_directions(12), True),
        (spread_directions(16), True),
        (cap_directions(12, 120.0), True),
        (cap_directions(12, 60.0), False),
        (circle_directions(12, 90.0), False),
        (circle_directions(12, 45.0), False),
        (np.tile([0.0, 0.0, 1.0], (16, 1)), False),
    ], ids=["spread_9", "spread_12", "spread_16", "cap_120", "cap_60",
            "planar", "ring", "one_orientation"])
    def test_orientations_must_spread(self, dirs, accepted):
        # Spread orientations, or a cap reaching 30 degrees past the
        # equator, recover the model within 1%; a 60-degree cap, the
        # great circle of turning about one axis, a ring and a single
        # orientation leave it unidentified and are refused.
        rng = np.random.default_rng(31)
        gain_true = (np.eye(3) + rng.uniform(-0.05, 0.05, (3, 3))) * 835.0
        bias_true = rng.choice([-1.0, 1.0], 3) * rng.uniform(400.0, 800.0, 3)
        means = synth_means(gain_true, bias_true, len(dirs),
                            sigma_phys=0.005 * GRAVITY, n_samples=500,
                            seed=32, dirs=dirs)
        batch = OrientationBatch(means, 500)
        if not accepted:
            with pytest.raises(CalibrationError,
                               match="do not spread enough.*six faces"):
                fit_accel_calibration(batch)
            return
        cal = fit_accel_calibration(batch)
        ref = canonical_gain(gain_true)
        assert np.linalg.norm(cal.gain - ref) / np.linalg.norm(ref) < 0.01
        assert (np.linalg.norm(cal.bias - bias_true)
                / np.linalg.norm(bias_true)) < 0.01


def still_log(accel, gyro, lsb_gyro=DEFAULT_LSB_GYRO):
    """A still capture's `ImuLog` at 100 Hz from its raw counts."""
    return ImuLog(t=np.arange(len(accel)) / FS, accel=accel, gyro=gyro, fs=FS,
                  lsb_accel=DEFAULT_LSB_ACCEL, lsb_gyro=lsb_gyro)


class TestBatchMeans:
    def test_means_and_counts(self):
        rng = np.random.default_rng(1)
        logs = {}
        expect = []
        for k in range(3):
            acc = np.rint(rng.normal(100.0, 2.0, (200, 3)))
            gyr = np.rint(rng.normal(0.0, 1.0, (200, 3)))
            logs[f"still_{k}.csv"] = still_log(acc, gyr, lsb_gyro=1e-3)
            expect.append(acc.mean(axis=0))
        batch = batch_means(logs)
        assert_allclose(batch.means, np.array(expect), rtol=0)
        assert batch.samples_per_orientation == 200
        assert batch.noise_counts == pytest.approx(2.0, rel=0.2)

    def test_moving_segment_rejected_with_index(self):
        # The refusal names the capture by its key.
        rng = np.random.default_rng(2)

        def counts():
            return np.rint(rng.normal(0, 1, (100, 3)))

        quiet = still_log(counts(), counts(), lsb_gyro=1e-3)
        spinning = still_log(counts(), counts() + 500.0, lsb_gyro=1e-3)
        with pytest.raises(CalibrationError,
                           match=r"^b_spin\.csv: median angular rate"):
            batch_means({"a_quiet.csv": quiet, "b_spin.csv": spinning})

    def test_fifty_samples_is_the_shortest_capture(self):
        def still(n):
            counts = np.rint(np.random.default_rng(n).normal(0.0, 1.0, (n, 3)))
            return still_log(counts, counts, lsb_gyro=1e-3)

        batch = batch_means({"still.csv": still(50)})
        assert batch.samples_per_orientation == 50
        with pytest.raises(CalibrationError,
                           match="still.csv: 49 samples, need at least 50"):
            batch_means({"still.csv": still(49)})

    def test_short_segment_rejected(self):
        seg = still_log(np.zeros((10, 3)), np.zeros((10, 3)), lsb_gyro=1e-3)
        with pytest.raises(CalibrationError, match=r"^short\.csv: 10 samples"):
            batch_means({"short.csv": seg})

    @pytest.mark.parametrize("sensor", ["accel", "gyro"])
    def test_sensor_that_never_changes_refused(self, sensor):
        # A sensor with no noise in any capture has no noise floor to
        # fit; the refusal names it and the first capture.  One noisy
        # capture is enough to fit it.
        stills = still_captures(np.random.default_rng(9), [100] * 3)
        for log in stills.values():
            counts = getattr(log, sensor)
            counts[:] = counts[0]
        with pytest.raises(CalibrationError, match=(
                rf"^still_00\.csv: {sensor} counts never change in this or "
                rf"any other capture")):
            batch_means(stills)
        getattr(stills["still_02.csv"], sensor)[7] += 1
        batch_means(stills)

    def test_no_capture_refused(self):
        with pytest.raises(CalibrationError, match="no still segments"):
            batch_means({})


def still_captures(rng, lengths, dtype=float):
    """Still capture logs named ``still_00.csv`` on: whole accel counts
    about a spread gravity direction, whole gyro counts about a small
    bias, both with sensor-like noise, in ``dtype``."""
    stills = {}
    for k, (n, u) in enumerate(zip(lengths, spread_directions(len(lengths)))):
        up = u * GRAVITY / DEFAULT_LSB_ACCEL
        accel = np.rint(rng.normal(up, 3.0, (n, 3)))
        gyro = np.rint(rng.normal(rng.normal(0.0, 10.0, 3), 7.0, (n, 3)))
        stills[f"still_{k:02d}.csv"] = still_log(accel.astype(dtype),
                                                 gyro.astype(dtype))
    return stills


def oracle_statistics(stills):
    """`oracles.per_capture_still_statistics` of the logs' counts."""
    return per_capture_still_statistics(
        {name: (log.accel, log.gyro) for name, log in stills.items()},
        DEFAULT_LSB_GYRO)


def assert_same_bits(batch, expect):
    for field, value in expect.items():
        got = np.asarray(getattr(batch, field), dtype=float)
        want = np.asarray(value, dtype=float)
        assert got.shape == want.shape, field
        assert got.tobytes() == want.tobytes(), field


def _shortened(log):
    return dataclasses.replace(log, t=log.t[:10], accel=log.accel[:10],
                               gyro=log.gyro[:10])


# One way to spoil a capture per check, in the order `batch_means`
# makes the checks, and the start of each refusal after the name.
SPOIL = {
    "scale": (lambda log: dataclasses.replace(
        log, lsb_accel=2.0 * log.lsb_accel), "accel scale"),
    "length": (_shortened, "10 samples, need at least 50"),
    "stillness": (lambda log: dataclasses.replace(log, gyro=log.gyro + 5000),
                  "median angular rate"),
}


class TestOnePass:
    """`batch_means` against the per-capture forms it replaced."""

    @pytest.mark.parametrize("dtype", [np.float64, np.int32, np.int64])
    @pytest.mark.parametrize("lengths", [
        [50, 51, 500, 1001, 20_000],
        [20_000, 60, 3000],
        [500] * 16,
        [100_000] + [500] * 15,
    ], ids=["short_to_20000", "unequal", "bench", "one_long"])
    def test_statistics_have_the_per_capture_bits(self, lengths, dtype):
        stills = still_captures(np.random.default_rng(len(lengths)),
                                lengths, dtype)
        if dtype is np.float64:
            # numpy's sums start from +0.0, so all -0.0 reads +0.0.
            stills["still_00.csv"].accel[:, 0] = -0.0
        batch = batch_means(stills)
        expect = oracle_statistics(stills)
        del expect["median_rates"]
        assert_same_bits(batch, expect)
        assert batch.samples_per_orientation == min(lengths)

    @pytest.mark.parametrize("dtype", [np.float64, np.int32])
    @pytest.mark.parametrize("lengths", [
        [50, 51, 500, 1001, 20_000],
        [100_000] + [500] * 15,
    ], ids=["short_to_20000", "one_long"])
    def test_median_rates_have_the_per_capture_bits(self, lengths, dtype,
                                                    monkeypatch):
        # The stillness check refuses a median rate above the limit, so a
        # capture checked first passes at its oracle median as the limit
        # and is refused one float below it only if its rate has the
        # oracle's bits.
        stills = still_captures(np.random.default_rng(len(lengths)),
                                lengths, dtype)
        rates = oracle_statistics(stills)["median_rates"]
        for name, rate in zip(list(stills), rates):
            ordered = {name: stills[name]} | stills
            monkeypatch.setattr(calibration, "STILL_RATE_LIMIT",
                                np.nextafter(rate, -np.inf))
            with pytest.raises(CalibrationError, match=(
                    rf"^{re.escape(name)}: median angular rate")):
                batch_means(ordered)
            monkeypatch.setattr(calibration, "STILL_RATE_LIMIT", rate)
            try:
                batch_means(ordered)
            except CalibrationError as refusal:
                assert not str(refusal).startswith(name), refusal

    @pytest.mark.parametrize("order", list(itertools.permutations(SPOIL)),
                             ids="-".join)
    def test_first_bad_capture_is_named(self, order):
        stills = still_captures(np.random.default_rng(4), [200] * 4)
        names = list(stills)
        for name, problem in zip(names[1:], order):
            spoil, _ = SPOIL[problem]
            stills[name] = spoil(stills[name])
        with pytest.raises(CalibrationError, match=(
                rf"^{re.escape(names[1])}: {re.escape(SPOIL[order[0]][1])}")):
            batch_means(stills)

    @pytest.mark.parametrize("first, second",
                             list(itertools.combinations(SPOIL, 2)),
                             ids=[f"{a}-{b}" for a, b
                                  in itertools.combinations(SPOIL, 2)])
    def test_first_problem_of_a_capture_is_named(self, first, second):
        stills = still_captures(np.random.default_rng(5), [200] * 3)
        capture = stills["still_02.csv"]
        for problem in (first, second):
            capture = SPOIL[problem][0](capture)
        stills["still_02.csv"] = capture
        with pytest.raises(CalibrationError, match=(
                rf"^still_02\.csv: {re.escape(SPOIL[first][1])}")):
            batch_means(stills)

    @pytest.mark.parametrize("problem", list(SPOIL))
    def test_refusal_builds_no_block(self, problem, monkeypatch):
        # Every capture is checked before any statistic is taken, so a
        # bad second capture is refused without a block built for the
        # good first.
        def no_blocks(*args):
            raise AssertionError("a block was built")

        monkeypatch.setattr(calibration, "_squared_deviations", no_blocks)
        stills = still_captures(np.random.default_rng(6), [200] * 3)
        spoil, message = SPOIL[problem]
        stills["still_01.csv"] = spoil(stills["still_01.csv"])
        with pytest.raises(CalibrationError, match=(
                rf"^still_01\.csv: {re.escape(message)}")):
            batch_means(stills)


class TestApply:
    def test_accel_round_trip(self):
        rng = np.random.default_rng(21)
        gain = random_lower_triangular(rng, scale=835.0)
        bias = rng.uniform(-100, 100, 3)
        cal_obj = {"gain": gain, "bias": bias, "noise_sigma": 1.0}
        from pdrnav.calibration import SensorCalibration

        cal = SensorCalibration(**cal_obj)
        truth = rng.uniform(-2 * GRAVITY, 2 * GRAVITY, (50, 3))
        raw = truth @ gain.T + bias
        assert_allclose(apply_accel_calibration(cal, raw), truth, atol=1e-9)
        assert_allclose(apply_accel_calibration(cal, raw[0]), truth[0], atol=1e-9)

    def test_gyro_datasheet_round_trip(self):
        lsb = np.deg2rad(500.0) / 32768.0
        cal = scale_calibration(lsb)
        rng = np.random.default_rng(22)
        truth = rng.uniform(-5, 5, (40, 3))
        raw = truth / lsb
        assert np.max(np.abs(apply_gyro_calibration(cal, raw) - truth)) < 1e-9


class TestSpreadDirections:
    def test_unit_norm_and_coverage(self):
        d = spread_directions(64)
        assert_allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)
        # Both hemispheres populated on every axis.
        assert np.all(d.max(axis=0) > 0.5)
        assert np.all(d.min(axis=0) < -0.5)
