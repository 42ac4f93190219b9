"""Quaternion kinematics: hand-computed oracles and convention checks.

The Hamilton product, the exponential, the rotation matrix and the
batch normalisation are the test suite's own (`oracles`); the library's
rotation and attitude constructor are held against them."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.transform import Rotation

from pdrnav.quat import quat_from_rpy, quat_normalize, quat_rotate

from oracles import (
    cross_quat_rotate,
    quat_exp,
    quat_exp_jacobian,
    quat_mul,
    quat_mul_jacobian,
    quat_conj,
    quat_normalize_batch,
    quat_normalize_jacobian,
    quat_rotate_jacobian,
    richardson_jacobian,
    rot_matrix,
    rpy_from_quat,
)


def random_unit_quats(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((4, n))
    return q / np.linalg.norm(q, axis=0)


class TestQuatMul:
    def test_hand_expanded_product(self):
        # (1,2,3,4) * (5,6,7,8) expanded on paper:
        #   w = 5 - 12 - 21 - 32 = -60
        #   x = 6 + 10 + 24 - 28 =  12
        #   y = 7 - 16 + 15 + 24 =  30
        #   z = 8 + 14 - 18 + 20 =  24
        p = np.array([1.0, 2.0, 3.0, 4.0])
        q = np.array([5.0, 6.0, 7.0, 8.0])
        assert_allclose(quat_mul(p, q), [-60.0, 12.0, 30.0, 24.0], rtol=0)

    def test_basis_products(self):
        one = np.array([1.0, 0.0, 0.0, 0.0])
        i = np.array([0.0, 1.0, 0.0, 0.0])
        j = np.array([0.0, 0.0, 1.0, 0.0])
        k = np.array([0.0, 0.0, 0.0, 1.0])
        assert_allclose(quat_mul(i, j), k, atol=0)
        assert_allclose(quat_mul(j, k), i, atol=0)
        assert_allclose(quat_mul(k, i), j, atol=0)
        assert_allclose(quat_mul(i, i), -one, atol=0)
        assert_allclose(quat_mul(one, k), k, atol=0)

    def test_associative(self):
        a, b, c = (random_unit_quats(50, s) for s in (1, 2, 3))
        left = quat_mul(quat_mul(a, b), c)
        right = quat_mul(a, quat_mul(b, c))
        assert np.max(np.abs(left - right)) < 1e-12

    def test_unit_norm_preserved(self):
        a = random_unit_quats(100, 4)
        b = random_unit_quats(100, 5)
        n = np.linalg.norm(quat_mul(a, b), axis=0)
        assert np.max(np.abs(n - 1.0)) < 1e-12

    def test_conjugate_is_inverse(self):
        q = random_unit_quats(20, 6)
        ident = np.zeros((4, 20))
        ident[0] = 1.0
        assert_allclose(quat_mul(q, quat_conj(q)), ident, atol=1e-14)


class TestQuatExp:
    def test_quarter_turn_about_x(self):
        # cos(pi/2) = 0, sin(pi/2) = 1
        assert_allclose(
            quat_exp(np.array([np.pi / 2, 0.0, 0.0])),
            [0.0, 1.0, 0.0, 0.0],
            atol=1e-12,
        )

    def test_zero_vector_gives_identity(self):
        assert_allclose(quat_exp(np.zeros(3)), [1.0, 0.0, 0.0, 0.0], rtol=0)

    @pytest.mark.parametrize("scale", [1e-13, 1e-10, 1e-9])
    def test_small_angle_series_unit_norm(self, scale):
        rng = np.random.default_rng(7)
        v = rng.standard_normal((3, 30)) * scale
        q = quat_exp(v)
        assert np.max(np.abs(np.linalg.norm(q, axis=0) - 1.0)) < 1e-12

    def test_series_branch_is_continuous(self):
        # Just above the switch the trig path runs; it must agree with the
        # series expansion evaluated at the same point to full precision.
        v = np.array([0.6, -0.8, 0.0]) * 1.5e-8
        n = np.linalg.norm(v)
        series = np.concatenate([[1.0 - n * n / 2.0], (1.0 - n * n / 6.0) * v])
        assert np.max(np.abs(quat_exp(v) - series)) < 1e-16

    def test_matches_closed_form_for_generic_angle(self):
        v = np.array([0.3, -0.4, 1.2])
        n = np.linalg.norm(v)
        expected = np.concatenate([[np.cos(n)], np.sin(n) * v / n])
        assert_allclose(quat_exp(v), expected, rtol=1e-15)


class TestQuatNormalize:
    def test_rescales(self):
        q = np.array([2.0, 0.0, 0.0, 0.0])
        assert_allclose(quat_normalize(q), [1.0, 0.0, 0.0, 0.0], rtol=0)

    def test_degenerate_norm_raises(self):
        with pytest.raises(ValueError):
            quat_normalize(np.array([1e-300, 0.0, 0.0, 0.0]))

    def test_nan_raises(self):
        with pytest.raises(ValueError):
            quat_normalize(np.array([np.nan, 0.0, 0.0, 1.0]))

    def test_single_bit_identical_to_batch_column(self):
        # The library's float path against the array arithmetic of a batch.
        q = np.random.default_rng(11).standard_normal((4, 50)) * 3.0
        batch = quat_normalize_batch(q)
        for j in range(q.shape[1]):
            assert_allclose(quat_normalize(q[:, j]), batch[:, j], rtol=0, atol=0)

    def test_degenerate_batch_member_raises(self):
        q = np.ones((4, 3))
        q[:, 1] = [0.0, 1e-300, 0.0, 0.0]
        with pytest.raises(ValueError):
            quat_normalize_batch(q)


class TestRotMatrix:
    def test_matches_sandwich_product(self):
        # The defining property: rot_matrix(q) u == vec(q * (0,u) * conj(q)).
        q = random_unit_quats(25, 8)
        rng = np.random.default_rng(9)
        u = rng.standard_normal((3, 25))
        via_mul = quat_mul(quat_mul(q, np.vstack([np.zeros(25), u])), quat_conj(q))[1:]
        for i in range(25):
            assert_allclose(rot_matrix(q[:, i]) @ u[:, i], via_mul[:, i], atol=1e-10)
        assert_allclose(quat_rotate(q, u), via_mul, atol=1e-12)

    def test_matches_scipy(self):
        q = random_unit_quats(25, 10)
        for i in range(25):
            expected = Rotation.from_quat(q[:, i], scalar_first=True).as_matrix()
            assert_allclose(rot_matrix(q[:, i]), expected, atol=1e-12)

    def test_homomorphism(self):
        q1 = random_unit_quats(25, 11)
        q2 = random_unit_quats(25, 12)
        q12 = quat_mul(q1, q2)
        for i in range(25):
            assert_allclose(
                rot_matrix(q12[:, i]),
                rot_matrix(q1[:, i]) @ rot_matrix(q2[:, i]),
                atol=1e-10,
            )

    def test_orthonormal_det_one(self):
        for i, q in enumerate(random_unit_quats(25, 13).T):
            r = rot_matrix(q)
            assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_nav_to_body_for_yawed_body(self):
        # A body yawed +90 deg sees the nav x axis along its -y axis.
        q = quat_from_rpy(0.0, 0.0, np.pi / 2)
        assert_allclose(rot_matrix(q) @ [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], atol=1e-12)


class TestQuatRotate:
    # The component form must reproduce the cross-product form bit for
    # bit: simulated logs are rendered through it.
    def test_single_bit_identical_to_cross_form(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            q, u = rng.standard_normal(4), rng.standard_normal(3) * 10.0
            assert_allclose(quat_rotate(q, u), cross_quat_rotate(q, u),
                            rtol=0, atol=0)

    def test_batch_bit_identical_to_cross_form(self):
        rng = np.random.default_rng(15)
        q, u = rng.standard_normal((4, 200)), rng.standard_normal((3, 200))
        assert_allclose(quat_rotate(q, u), cross_quat_rotate(q, u),
                        rtol=0, atol=0)
        # A non-contiguous transposed view, as the gait renderer passes.
        q_rows = rng.standard_normal((200, 4))
        u_rows = rng.standard_normal((200, 3))
        assert_allclose(quat_rotate(q_rows.T, u_rows.T),
                        cross_quat_rotate(q_rows.T, u_rows.T), rtol=0, atol=0)

    def test_mixed_shapes_bit_identical_to_cross_form(self):
        rng = np.random.default_rng(16)
        q, u = rng.standard_normal((4, 30)), rng.standard_normal((3, 30))
        for qs, us in [(q[:, 0], u), (q, u[:, 0]), (q, u[:, :1]),
                       (q[:, :1], u)]:
            got = quat_rotate(qs, us)
            want = cross_quat_rotate(qs, us)
            assert got.shape == want.shape == (3, 30)
            assert_allclose(got, want, rtol=0, atol=0)


class TestJacobians:
    """Closed-form derivatives against Richardson-extrapolated
    differences of the functions as written (additive perturbation,
    non-unit arguments allowed)."""

    def test_rotate(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            q, u = rng.standard_normal(4), rng.standard_normal(3) * 5.0
            d_q, d_u = quat_rotate_jacobian(q, u)
            ref = richardson_jacobian(
                lambda s: quat_rotate(s[:4], s[4:]), np.concatenate([q, u]), 3)
            assert np.max(np.abs(np.hstack([d_q, d_u]) - ref)) < 1e-8

    def test_rotate_by_unit_quaternion_is_the_rotation_matrix(self):
        q = random_unit_quats(1, 18)[:, 0]
        _, d_u = quat_rotate_jacobian(q, np.array([1.0, -2.0, 0.5]))
        assert_allclose(d_u, rot_matrix(q), atol=1e-15)

    def test_mul(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            p, q = rng.standard_normal(4), rng.standard_normal(4)
            d_p, d_q = quat_mul_jacobian(p, q)
            ref = richardson_jacobian(
                lambda s: quat_mul(s[:4], s[4:]), np.concatenate([p, q]), 4)
            assert np.max(np.abs(np.hstack([d_p, d_q]) - ref)) < 1e-9
            assert_allclose(d_p @ p, quat_mul(p, q), atol=1e-14)
            assert_allclose(d_q @ q, quat_mul(p, q), atol=1e-14)

    def test_normalize(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            q = rng.standard_normal(4)
            ref = richardson_jacobian(quat_normalize, q, 4)
            assert np.max(np.abs(quat_normalize_jacobian(q) - ref)) < 1e-9

    @pytest.mark.parametrize("scale", [1.0, 1e-2, 1e-6])
    def test_exp(self, scale):
        rng = np.random.default_rng(21)
        for _ in range(20):
            v = rng.standard_normal(3) * scale
            ref = richardson_jacobian(quat_exp, v, 4)
            assert np.max(np.abs(quat_exp_jacobian(v) - ref)) < 1e-8

    def test_exp_series_branch(self):
        # Under the 1e-8 cutoff the derivative of the series is used; it
        # must match the derivative of the smooth map, which the
        # reference's 1e-4 steps sample on the trigonometric branch.
        v = np.array([3e-9, -2e-9, 1e-9])
        jac = quat_exp_jacobian(v)
        assert np.max(np.abs(jac - richardson_jacobian(quat_exp, v, 4))) < 1e-10
        assert_allclose(jac[0], -v, rtol=0, atol=0)
        assert_allclose(jac[1:], np.eye(3), atol=1e-16)


class TestEuler:
    @pytest.mark.parametrize(
        "rpy",
        [
            (0.1, -0.2, 0.3),
            (0.0, 0.0, 2.5),
            (-1.2, 0.7, -3.0),
            (0.3, 1.4, 0.0),
        ],
    )
    def test_round_trip(self, rpy):
        assert_allclose(rpy_from_quat(quat_from_rpy(*rpy)), rpy, atol=1e-12)

    def test_matches_scipy_euler(self):
        roll, pitch, yaw = 0.2, -0.5, 1.1
        q = quat_from_rpy(roll, pitch, yaw)
        # Body-to-nav matrix equals scipy's intrinsic z-y-x composition.
        expected = Rotation.from_euler("ZYX", [yaw, pitch, roll]).as_matrix()
        assert_allclose(rot_matrix(q).T, expected, atol=1e-12)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestQuatFromRpy:
    """The one attitude constructor: the closed-form product of the
    three half-angle quaternions."""

    @staticmethod
    def random_attitudes(n, seed):
        rng = np.random.default_rng(seed)
        return (rng.uniform(-np.pi, np.pi, n),
                rng.uniform(-np.pi / 2.0, np.pi / 2.0, n),
                rng.uniform(-np.pi, np.pi, n))

    def test_broadcast_equals_scalar_calls(self):
        roll, pitch, yaw = self.random_attitudes(500, 30)
        batch = quat_from_rpy(roll, pitch, yaw)
        assert batch.shape == (4, 500)
        for j in range(500):
            single = quat_from_rpy(float(roll[j]), float(pitch[j]),
                                   float(yaw[j]))
            assert single.shape == (4,)
            np.testing.assert_array_equal(_bits(single), _bits(batch[:, j]))
        # One array argument broadcasts against two scalars.
        mixed = quat_from_rpy(0.25, -0.5, yaw)
        for j in range(0, 500, 50):
            np.testing.assert_array_equal(
                _bits(mixed[:, j]), _bits(quat_from_rpy(0.25, -0.5, yaw[j])))

    def test_pure_yaw_is_the_half_angle_pair_to_the_bit(self):
        # The pure-yaw rows the gait generator writes: zeros in x and y
        # are +0.0 and z at yaw = 0 is -sin(0) = -0.0, as the truth
        # files have always held them.
        rng = np.random.default_rng(31)
        yaw = np.concatenate([[0.0, -0.0, np.pi, -np.pi, 3.5, -3.5],
                              rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 20000)])
        want = np.zeros((4, yaw.size))
        want[0] = np.cos(yaw / 2.0)
        want[3] = -np.sin(yaw / 2.0)
        np.testing.assert_array_equal(_bits(quat_from_rpy(0.0, 0.0, yaw)),
                                      _bits(want))
        np.testing.assert_array_equal(_bits(quat_from_rpy(0.0, 0.0, 0.0)),
                                      _bits([1.0, 0.0, 0.0, -0.0]))

    def test_matches_scipy_euler(self):
        roll, pitch, yaw = self.random_attitudes(2000, 32)
        # Pitch at and next to the gimbal-lock angles.
        pitch[:8] = [np.pi / 2, -np.pi / 2, np.nextafter(np.pi / 2, 0.0),
                     np.nextafter(-np.pi / 2, 0.0), np.pi / 2 - 1e-9,
                     -np.pi / 2 + 1e-9, np.pi / 2 - 1e-4, -np.pi / 2 + 1e-4]
        # scipy's quaternion of the body-to-nav rotation Rz Ry Rx, scalar
        # first; the state quaternion is its conjugate, up to the sign
        # of the whole quaternion.
        body = Rotation.from_euler("ZYX", np.column_stack([yaw, pitch, roll]))
        want = quat_conj(body.as_quat(scalar_first=True).T)
        got = quat_from_rpy(roll, pitch, yaw)
        sign = np.where(np.sum(got * want, axis=0) < 0.0, -1.0, 1.0)
        assert np.max(np.abs(got - sign * want)) <= 1e-15

    def test_matches_the_product_of_exponentials(self):
        roll, pitch, yaw = self.random_attitudes(2000, 33)
        # Body attitude Rz(yaw) Ry(pitch) Rx(roll); nav-to-body is its
        # inverse, exp(-roll/2 x) exp(-pitch/2 y) exp(-yaw/2 z).
        zeros = np.zeros_like(roll)
        chain = quat_mul(quat_exp(np.stack([-roll / 2.0, zeros, zeros])),
                         quat_mul(quat_exp(np.stack([zeros, -pitch / 2.0, zeros])),
                                  quat_exp(np.stack([zeros, zeros, -yaw / 2.0]))))
        assert np.max(np.abs(quat_from_rpy(roll, pitch, yaw) - chain)) <= 1e-15
