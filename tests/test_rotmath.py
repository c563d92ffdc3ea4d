import numpy as np
import pytest

from bioright import rotmath
from bioright.errors import GimbalLockWarning
from bioright.rotmath import (EulerYPR, dcm_to_euler321, dcms_from_axes,
                              euler321_to_dcm, relative_rotation)

from conftest import random_rotation


class TestDcmFromAxes:
    """`dcms_from_axes` on single (3,) inputs, and its mask."""

    def test_canonical_axes_give_identity(self):
        R, ok = dcms_from_axes((1, 0, 0), (0, 1, 0))
        assert ok
        assert np.allclose(R, np.eye(3), atol=1e-15)

    def test_quarter_yaw(self):
        # hand-computed: x=(0,1,0), z=x cross y_temp=(0,0,1), y=z cross x
        R, ok = dcms_from_axes((0, 1, 0), (-1, 0, 0))
        assert ok
        expected = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 1]], dtype=float)
        assert np.allclose(R, expected, atol=1e-15)

    def test_parallel_vectors_degenerate(self):
        assert not dcms_from_axes((1, 0, 0), (2, 0, 0))[1]

    def test_zero_vector_degenerate(self):
        assert not dcms_from_axes((0, 0, 0), (0, 1, 0))[1]

    def test_random_inputs_orthonormal(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            x = rng.normal(size=3)
            y = rng.normal(size=3)
            if np.linalg.norm(np.cross(x, y)) <= rotmath.EPS_LEN:
                continue
            R, ok = dcms_from_axes(x, y)
            assert ok
            assert np.abs(R @ R.T - np.eye(3)).max() <= 1e-10
            assert abs(np.linalg.det(R) - 1.0) <= 1e-10


class TestEulerConversions:
    def test_identity(self):
        e = dcm_to_euler321(np.eye(3))
        assert e.yaw == e.pitch == e.roll == 0.0
        assert np.allclose(euler321_to_dcm(EulerYPR(0, 0, 0)), np.eye(3))

    def test_round_trip_fixed_angles(self):
        R = euler321_to_dcm(EulerYPR(0.3, 0.2, 0.1))
        e = dcm_to_euler321(R)
        assert np.allclose([e.yaw, e.pitch, e.roll], [0.3, 0.2, 0.1],
                           atol=1e-10)

    def test_pure_roll_quarter_turn(self):
        # rotation about x by 90 deg, DCM written by hand
        R = np.array([[1, 0, 0], [0, 0, 1], [0, -1, 0]], dtype=float)
        e = dcm_to_euler321(R)
        assert np.allclose([e.yaw, e.pitch, e.roll], [0, 0, np.pi / 2],
                           atol=1e-12)

    def test_yaw_pi_round_trip(self):
        R = euler321_to_dcm(EulerYPR(np.pi, 0, 0))
        e = dcm_to_euler321(R)
        assert abs(abs(e.yaw) - np.pi) < 1e-10
        assert abs(e.pitch) < 1e-10 and abs(e.roll) < 1e-10

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            yaw = rng.uniform(-np.pi, np.pi)
            pitch = rng.uniform(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3)
            roll = rng.uniform(-np.pi, np.pi)
            e = dcm_to_euler321(euler321_to_dcm(EulerYPR(yaw, pitch, roll)))
            worst = max(worst, abs(e.yaw - yaw), abs(e.pitch - pitch),
                        abs(e.roll - roll))
        assert worst < 1e-10

    def test_gimbal_lock_warns_and_zeroes_roll(self):
        R = euler321_to_dcm(EulerYPR(0.4, np.pi / 2, 0.25))
        with pytest.warns(GimbalLockWarning):
            e = dcm_to_euler321(R)
        assert e.roll == 0.0
        # the folded yaw still reproduces the rotation
        assert np.allclose(euler321_to_dcm(e), R, atol=1e-9)


class TestRelativeRotation:
    def test_same_frame_is_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            C = random_rotation(rng)
            assert np.allclose(relative_rotation(C, C), np.eye(3), atol=1e-12)

    def test_constant_roll_offset(self):
        rng = np.random.default_rng(5)
        roll40 = euler321_to_dcm(EulerYPR(0, 0, np.radians(40)))
        C_BN = random_rotation(rng)
        C_AN = roll40 @ C_BN
        assert np.allclose(relative_rotation(C_AN, C_BN), roll40, atol=1e-12)

    def test_recovers_composed_rotation(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            C_AB = random_rotation(rng)
            C_BN = random_rotation(rng)
            assert np.allclose(relative_rotation(C_AB @ C_BN, C_BN), C_AB,
                               atol=1e-12)
