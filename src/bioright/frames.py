"""Body-segment frame construction from keypoints and orientation
time-series (inertial and leg-relative-to-body)."""

import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import keypoints, rotmath, traj
from .errors import (BadWindow, DegenerateAxes, EmptyWindow, GimbalLockWarning,
                     MissingKeypoint, NoValidFrames, SchemaError, TimeGridMismatch)

# Keypoint ids used by the recipes.
NECK, VENT, TAIL_TIP = 1, 21, 23
SHOULDER_RIGHT, SHOULDER_LEFT = 12, 13
HIP_RIGHT, HIP_LEFT = 19, 20
WRIST_RIGHT, WRIST_LEFT = 8, 9
ANKLE_RIGHT, ANKLE_LEFT = 15, 16

X_INERTIAL = np.array([1.0, 0.0, 0.0])


class Segment(Enum):
    BODY = "Body"
    TAIL = "Tail"
    LEFT_FRONT_LEG = "LeftFrontLeg"
    LEFT_HIND_LEG = "LeftHindLeg"
    RIGHT_FRONT_LEG = "RightFrontLeg"
    RIGHT_HIND_LEG = "RightHindLeg"


#: Leg y-axis recipes: (from keypoint, to keypoint). Right legs point
#: limb-to-body, left legs body-to-limb.
LEG_AXES = {
    Segment.RIGHT_FRONT_LEG: (WRIST_RIGHT, SHOULDER_RIGHT),
    Segment.RIGHT_HIND_LEG: (ANKLE_RIGHT, HIP_RIGHT),
    Segment.LEFT_FRONT_LEG: (SHOULDER_LEFT, WRIST_LEFT),
    Segment.LEFT_HIND_LEG: (HIP_LEFT, ANKLE_LEFT),
}

#: Trunk recipes: x runs from the 2nd keypoint to the 1st, y_temp from the 3rd to the 4th.
TRUNK_AXES = {
    Segment.BODY: (NECK, VENT, SHOULDER_RIGHT, SHOULDER_LEFT),
    Segment.TAIL: (TAIL_TIP, VENT, HIP_LEFT, HIP_RIGHT),
}

REQUIRED_KEYPOINTS = {**TRUNK_AXES, **LEG_AXES}


@dataclass
class SegmentFrameSeries:
    """Time-indexed orientation of one segment: rotations C_SN plus the
    unwrapped 3-2-1 Euler series, with per-sample validity."""

    segment: Segment
    times: np.ndarray
    rotations: np.ndarray  # (N, 3, 3) C_SN; NaN where invalid
    euler: np.ndarray  # (N, 3) yaw, pitch, roll; NaN where invalid
    valid: np.ndarray
    metadata: dict = field(default_factory=dict)


def _segment_dcms(segment, p):
    """Rotations C_SN and their validity mask from the positions p[kid]
    of the segment's keypoints, each (3,) or (F, 3)."""
    if segment in TRUNK_AXES:
        head, tail, a, b = TRUNK_AXES[segment]
        return rotmath.dcms_from_axes(p[head] - p[tail], p[b] - p[a])
    a, b = LEG_AXES[segment]
    # the limb as x and -x_N as y_temp give the leg's y (row 0) and z (row 2);
    # x is y cross z, as leg_frame defines it (minus row 1 flips signed zeros)
    R, ok = rotmath.dcms_from_axes(p[b] - p[a], -X_INERTIAL)
    y, z = R[..., 0, :], R[..., 2, :]
    return np.stack([np.cross(y, z), y, z], axis=-2), ok


def segment_frame(segment, positions):
    """C_SN of one segment from a {keypoint id: 3-vector position} mapping."""
    needed = REQUIRED_KEYPOINTS[segment]
    for kid in needed:
        if kid not in positions:
            raise MissingKeypoint(f"keypoint {kid} required but absent")
        if np.shape(positions[kid]) != (3,):
            raise SchemaError(f"keypoint {kid}: position must be a 3-vector")
    R, ok = _segment_dcms(segment, {kid: np.asarray(positions[kid], dtype=float)
                                    for kid in needed})
    if not ok:
        raise DegenerateAxes(f"{segment.value}: axis vectors near zero or parallel")
    return R


def body_frame(positions):
    """C_BN: x along vent->neck, x-y plane through the shoulder line."""
    return segment_frame(Segment.BODY, positions)


def leg_frame(segment, positions):
    """C_LiN for one leg.

    y runs along the limb (recipe in LEG_AXES); z is normal to the plane
    of y and the inertial x axis (z = x_N cross y, a fixed cross-product
    order so the sign is deterministic and roll-equivariant); x completes
    the triad as y cross z.
    """
    if segment not in LEG_AXES:
        raise ValueError(f"{segment} is not a leg")
    return segment_frame(segment, positions)


def _series(segment, times, rotations, valid, metadata):
    """Series from the (N, 3, 3) rotations with the invalid rows set to NaN
    (whose angles come out NaN); gimbal lock warns once and its frame count
    goes in metadata."""
    stack = np.where(valid[:, None, None], rotations, np.nan)
    euler, lock = rotmath.dcms_to_euler321(stack)
    locked = int(lock.sum())
    if locked:
        warnings.warn(f"{segment.value}: pitch at +/-90 deg on {locked} frames: "
                      "roll set to 0, free angle in yaw", GimbalLockWarning,
                      stacklevel=3)
    edges = np.flatnonzero(np.diff(np.concatenate(([0], valid, [0]))))
    for i, j in zip(edges[::2], edges[1::2]):
        euler[i:j] = np.unwrap(euler[i:j], axis=0)
    return SegmentFrameSeries(segment, np.asarray(times, dtype=float), stack,
                              euler, valid, {**metadata, "gimbal_lock_frames": locked})


def segment_series(dataset, segment):
    """Frame construction for one segment over every frame of a 3D dataset.

    Frames with missing, invisible, or degenerate keypoints are marked
    invalid; Euler angles are unwrapped over contiguous valid runs.
    """
    if dataset.unit != "meter":
        raise ValueError("segment_series needs a dataset in meters")
    needed = REQUIRED_KEYPOINTS[segment]
    positions, visible = keypoints.dense_stack(dataset, needed)
    R, ok = _segment_dcms(segment, {kid: positions[:, j]
                                    for j, kid in enumerate(needed)})
    valid = visible.all(axis=1) & ok
    if not valid.any():
        raise NoValidFrames(f"no valid frames for {segment.value}")
    times = np.arange(dataset.frame_count) / dataset.frame_rate
    return _series(segment, times, R, valid, {})


def relative_leg_series(leg, body):
    """Per-sample rotation of a leg relative to the body: C_LiB = C_LiN C_BN^T."""
    if len(leg.times) != len(body.times) or not np.allclose(
            leg.times, body.times, rtol=0, atol=1e-12):
        raise TimeGridMismatch("leg and body series on different time grids")
    valid = leg.valid & body.valid
    return _series(leg.segment, leg.times,
                   rotmath.relative_rotation(leg.rotations, body.rotations),
                   valid, {**leg.metadata, "relative_to": "Body"})


def righting_window(series, t_start, t_end):
    """Sub-series restricted to [t_start, t_end], times re-zeroed."""
    if t_start >= t_end:
        raise BadWindow(f"window start {t_start} s must precede its end {t_end} s")
    mask = (series.times >= t_start) & (series.times <= t_end)
    if not mask.any():
        raise EmptyWindow(f"no samples in [{t_start}, {t_end}] s")
    return SegmentFrameSeries(series.segment, series.times[mask] - t_start,
                              series.rotations[mask], series.euler[mask],
                              series.valid[mask], dict(series.metadata))


def write_series_csv(series, stream):
    """Emit `t,yaw_deg,pitch_deg,roll_deg,valid` at `%.9g`, the angles blank if invalid."""
    stream.write("t,yaw_deg,pitch_deg,roll_deg,valid\n")
    ypr = np.where(series.valid[:, None], np.degrees(series.euler), np.nan)
    # only an invalid row ends in ",0\n", and its angles are all NaN
    stream.writelines(block.replace(",nan,nan,nan,0\n", ",,,,0\n") for block in
                      traj.format_rows("%.9g,%.9g,%.9g,%.9g,%d\n",
                                       (series.times, *ypr.T, series.valid)))
