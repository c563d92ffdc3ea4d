from dataclasses import replace

import numpy as np
import pytest

from bioright import frames, keypoints, rotmath
from bioright.errors import (BadWindow, DegenerateAxes, EmptyWindow,
                             MissingKeypoint, NoValidFrames, SchemaError,
                             TimeGridMismatch)
from bioright.frames import Segment

from conftest import (REST_POSE, dataset_from_poses, random_rotation,
                      roll_matrix, rotate_pose)

LEGS = (Segment.LEFT_FRONT_LEG, Segment.LEFT_HIND_LEG,
        Segment.RIGHT_FRONT_LEG, Segment.RIGHT_HIND_LEG)


def rest_positions():
    return {kid: np.array(p) for kid, p in REST_POSE.items()}


class TestBodyFrame:
    def test_aligned_pose_identity(self):
        assert np.allclose(frames.body_frame(rest_positions()), np.eye(3),
                           atol=1e-12)

    def test_rolled_pose(self):
        pose = rotate_pose(rest_positions(), roll_matrix(np.pi / 2))
        R = frames.body_frame(pose)
        e = rotmath.dcm_to_euler321(R)
        assert e.roll == pytest.approx(np.pi / 2, abs=1e-12)
        assert abs(e.yaw) < 1e-12 and abs(e.pitch) < 1e-12

    def test_missing_keypoint(self):
        pose = rest_positions()
        del pose[12]
        with pytest.raises(MissingKeypoint):
            frames.body_frame(pose)


class TestTailFrame:
    def test_straight_tail_flipped_frame(self):
        # tail x points vent->tip (-x inertial): a yaw-pi frame
        R = frames.segment_frame(Segment.TAIL, rest_positions())
        expected = np.diag([-1.0, -1.0, 1.0])
        assert np.allclose(R, expected, atol=1e-12)

    def test_relative_roll_recovered(self):
        body = frames.body_frame(rest_positions())
        pose = rest_positions()
        roll30 = roll_matrix(np.radians(30))
        for kid in (19, 20, 21, 23):
            pose[kid] = roll30 @ pose[kid]
        tail = frames.segment_frame(Segment.TAIL, pose)
        rest = frames.segment_frame(Segment.TAIL, rest_positions())
        rel = rotmath.relative_rotation(tail, rest)
        e = rotmath.dcm_to_euler321(rel)
        assert e.roll == pytest.approx(np.radians(-30), abs=1e-12) or \
            e.roll == pytest.approx(np.radians(30), abs=1e-12)

    def test_collinear_hips_degenerate(self):
        pose = rest_positions()
        pose[19] = np.array([-0.1, 0.0, 0.0])
        pose[20] = np.array([-0.2, 0.0, 0.0])
        with pytest.raises(DegenerateAxes):
            frames.segment_frame(Segment.TAIL, pose)


class TestLegFrame:
    def test_leg_along_inertial_y(self):
        R = frames.leg_frame(Segment.RIGHT_FRONT_LEG, rest_positions())
        assert np.allclose(R, np.eye(3), atol=1e-12)

    def test_all_legs_identity_at_rest(self):
        for leg in LEGS:
            R = frames.leg_frame(leg, rest_positions())
            assert np.allclose(R, np.eye(3), atol=1e-12), leg

    def test_leg_parallel_to_inertial_x_degenerate(self):
        pose = rest_positions()
        pose[8] = pose[12] - np.array([0.1, 0.0, 0.0])
        with pytest.raises(DegenerateAxes):
            frames.leg_frame(Segment.RIGHT_FRONT_LEG, pose)

    def test_rigid_corotation_zero_relative(self):
        pose = rotate_pose(rest_positions(), roll_matrix(0.7))
        body = frames.body_frame(pose)
        for leg in LEGS:
            R = frames.leg_frame(leg, pose)
            rel = rotmath.relative_rotation(R, body)
            assert np.allclose(rel, np.eye(3), atol=1e-9), leg


class TestSegmentSeries:
    def test_roll_ramp_unwraps(self, rolling_dataset):
        series = frames.segment_series(rolling_dataset, Segment.BODY)
        roll = series.euler[:, 2]
        assert roll[0] == pytest.approx(0.0, abs=1e-9)
        assert roll[-1] == pytest.approx(2 * np.pi, abs=1e-9)
        assert np.all(np.diff(roll) > 0)

    def test_all_occluded_raises(self):
        visible = {kid: np.zeros(5, dtype=bool) for kid in REST_POSE}
        ds = dataset_from_poses([REST_POSE] * 5, visible=visible)
        with pytest.raises(NoValidFrames):
            frames.segment_series(ds, Segment.BODY)

    def test_missing_frames_marked_invalid(self):
        visible = {1: np.ones(10, dtype=bool)}
        visible[1][3] = False
        visible[1][7] = False
        ds = dataset_from_poses([REST_POSE] * 10, visible=visible)
        series = frames.segment_series(ds, Segment.BODY)
        assert list(~series.valid) == [False, False, False, True, False,
                                       False, False, True, False, False]

    def test_time_reversal(self, rolling_dataset):
        fwd = frames.segment_series(rolling_dataset, Segment.BODY)
        n = rolling_dataset.frame_count
        reversed_poses = [rotate_pose(REST_POSE,
                                      roll_matrix(2 * np.pi * (n - 1 - f) / (n - 1)))
                          for f in range(n)]
        bwd = frames.segment_series(dataset_from_poses(reversed_poses),
                                    Segment.BODY)
        for i in range(n):
            assert np.allclose(fwd.rotations[i], bwd.rotations[n - 1 - i],
                               atol=1e-12)

    def test_scale_invariance(self):
        pose_big = {kid: 7.5 * np.array(p) for kid, p in REST_POSE.items()}
        a = frames.segment_series(dataset_from_poses([REST_POSE] * 3),
                                  Segment.BODY)
        b = frames.segment_series(dataset_from_poses([pose_big] * 3),
                                  Segment.BODY)
        assert np.allclose(a.rotations[0], b.rotations[0], atol=1e-12)


class TestRelativeLegSeries:
    def _series(self, rotations, times=None):
        times = np.arange(len(rotations)) / 1000.0 if times is None else times
        valid = np.array([r is not None for r in rotations])
        euler = np.full((len(rotations), 3), np.nan)
        for i, R in enumerate(rotations):
            if R is not None:
                e = rotmath.dcm_to_euler321(R)
                euler[i] = (e.yaw, e.pitch, e.roll)
        stack = np.array([np.full((3, 3), np.nan) if R is None else R
                          for R in rotations])
        return frames.SegmentFrameSeries(Segment.LEFT_FRONT_LEG,
                                         np.asarray(times), stack,
                                         euler, valid, {})

    def test_equal_series_identity(self):
        rng = np.random.default_rng(61)
        rots = [random_rotation(rng) for _ in range(5)]
        rel = frames.relative_leg_series(self._series(rots), self._series(rots))
        for i in range(5):
            assert np.allclose(rel.rotations[i], np.eye(3), atol=1e-12)

    def test_constant_roll_offset(self):
        rng = np.random.default_rng(67)
        body = [random_rotation(rng) for _ in range(8)]
        roll10 = rotmath.euler321_to_dcm(rotmath.EulerYPR(0, 0, np.radians(10)))
        leg = [roll10 @ R for R in body]
        rel = frames.relative_leg_series(self._series(leg), self._series(body))
        for i in range(8):
            assert np.allclose(rel.rotations[i], roll10, atol=1e-12)
        assert np.allclose(rel.euler[:, 2], np.radians(10), atol=1e-9)

    def test_jitter_within_band(self):
        rng = np.random.default_rng(71)
        n = 50
        body = [roll_matrix(2 * np.pi * f / n).T for f in range(n)]
        jitter = rng.uniform(-np.radians(15), np.radians(15), size=n)
        leg = [rotmath.euler321_to_dcm(rotmath.EulerYPR(0, 0, j)) @ B
               for j, B in zip(jitter, body)]
        rel = frames.relative_leg_series(self._series(leg), self._series(body))
        assert np.max(np.abs(rel.euler[:, 2])) <= np.radians(15) + 1e-9

    def test_grid_mismatch(self):
        rots = [np.eye(3)] * 4
        a = self._series(rots)
        b = self._series(rots, times=np.arange(4) / 500.0)
        with pytest.raises(TimeGridMismatch):
            frames.relative_leg_series(a, b)


class TestRightingWindow:
    def _series_1khz(self, duration=2.0):
        n = int(duration * 1000) + 1
        poses = [REST_POSE] * n
        return frames.segment_series(dataset_from_poses(poses), Segment.BODY)

    def test_sample_count(self):
        series = self._series_1khz()
        win = frames.righting_window(series, 1.490, 1.640)
        assert len(win.times) == 151
        assert win.times[0] == pytest.approx(0.0)
        assert win.times[-1] == pytest.approx(0.150)

    def test_full_span_identity(self):
        series = self._series_1khz(0.05)
        win = frames.righting_window(series, 0.0, 0.05)
        assert len(win.times) == len(series.times)
        assert np.allclose(win.euler, series.euler, equal_nan=True)

    def test_outside_span(self):
        series = self._series_1khz(0.05)
        with pytest.raises(EmptyWindow):
            frames.righting_window(series, 10.0, 11.0)


class TestRigidMotionProperties:
    def test_roll_rotation_transforms_all_segments(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            R = roll_matrix(rng.uniform(-np.pi, np.pi))
            pose = rotate_pose(rest_positions(), R)
            for segment in Segment:
                C0 = frames.segment_frame(segment, rest_positions())
                C1 = frames.segment_frame(segment, pose)
                assert np.max(np.abs(C1 - C0 @ R.T)) < 1e-9, segment

    def test_general_rotation_transforms_body_and_tail(self):
        rng = np.random.default_rng(79)
        for _ in range(50):
            R = random_rotation(rng)
            pose = rotate_pose(rest_positions(), R)
            for segment in (Segment.BODY, Segment.TAIL):
                C0 = frames.segment_frame(segment, rest_positions())
                C1 = frames.segment_frame(segment, pose)
                assert np.max(np.abs(C1 - C0 @ R.T)) < 1e-9

    def test_relative_leg_rotation_invariant_under_roll(self):
        rng = np.random.default_rng(83)
        base_pose = rotate_pose(rest_positions(), roll_matrix(0.3))
        for _ in range(20):
            R = roll_matrix(rng.uniform(-np.pi, np.pi))
            pose = rotate_pose(base_pose, R)
            body0 = frames.body_frame(base_pose)
            body1 = frames.body_frame(pose)
            for leg in LEGS:
                rel0 = rotmath.relative_rotation(
                    frames.leg_frame(leg, base_pose), body0)
                rel1 = rotmath.relative_rotation(
                    frames.leg_frame(leg, pose), body1)
                assert np.max(np.abs(rel1 - rel0)) < 1e-9


class TestTypedBoundaryErrors:
    def test_reversed_window_is_bad_window(self):
        series = frames.segment_series(dataset_from_poses([REST_POSE] * 5),
                                       Segment.BODY)
        for a, b in ((0.003, 0.001), (0.002, 0.002)):
            with pytest.raises(BadWindow):
                frames.righting_window(series, a, b)

    @pytest.mark.parametrize("segment", [Segment.BODY, Segment.LEFT_FRONT_LEG])
    def test_position_not_a_3_vector_is_schema_error(self, segment):
        # a 2D position had warned, then raised numpy's AxisError or ValueError
        first, *_, last = frames.REQUIRED_KEYPOINTS[segment]
        flat = {kid: p[:2] for kid, p in REST_POSE.items()}
        for pose, kid in ((flat, first), ({**rest_positions(), last: flat[last]}, last)):
            with pytest.raises(SchemaError,
                               match=f"^keypoint {kid}: position must be a 3-vector$"):
                frames.segment_frame(segment, pose)

    def test_2d_meter_dataset_is_schema_error(self):
        ds = dataset_from_poses([REST_POSE] * 3)
        tracks = {kid: replace(t, positions=t.positions[:, :2])
                  for kid, t in ds.tracks.items()}
        with pytest.raises(SchemaError, match="2D positions in a meter dataset"):
            keypoints.KeypointDataset(tracks, ds.frame_rate, ds.frame_count, "meter")
