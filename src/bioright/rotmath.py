"""Direction cosine matrices and 3-2-1 Euler angles.

A rotation is a 3x3 numpy array whose rows are the rotated frame's unit
axes expressed in the reference frame. All angles are in radians; degrees
appear only at I/O boundaries.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GimbalLockWarning

#: Degeneracy threshold for axis construction, in input units.
EPS_LEN = 1e-9

#: Pitch margin below +/-pi/2 at which gimbal lock is declared.
GIMBAL_MARGIN = 1e-6


@dataclass(frozen=True)
class EulerYPR:
    """Yaw-pitch-roll angles for the 3-2-1 rotation sequence, radians."""

    yaw: float
    pitch: float
    roll: float


def dcms_from_axes(x_raw, y_temp):
    """(..., 3, 3) rotations with x along x_raw, z normal to the plane of x
    and y_temp, y completing the triad; the mask is False where the (..., 3)
    inputs are near zero or near parallel (those rows hold NaN or inf)."""
    x_raw = np.asarray(x_raw, dtype=float)
    y_temp = np.asarray(y_temp, dtype=float)
    nx = np.linalg.norm(x_raw, axis=-1)
    # "not degenerate" rather than "long enough": NaN input is not rejected
    ok = ~((nx <= EPS_LEN)
           | (np.linalg.norm(np.cross(x_raw, y_temp), axis=-1) <= EPS_LEN))
    with np.errstate(divide="ignore", invalid="ignore"):
        x = x_raw / nx[..., None]
        z = np.cross(x, y_temp)
        z /= np.linalg.norm(z, axis=-1)[..., None]
    return np.stack([x, np.cross(z, x), z], axis=-2), ok


def euler321_to_dcm(e):
    """Rotation for the 3-2-1 sequence: R1(roll) @ R2(pitch) @ R3(yaw)."""
    cy, sy = np.cos(e.yaw), np.sin(e.yaw)
    cp, sp = np.cos(e.pitch), np.sin(e.pitch)
    cr, sr = np.cos(e.roll), np.sin(e.roll)
    return np.array([
        [cp * cy, cp * sy, -sp],
        [sr * sp * cy - cr * sy, sr * sp * sy + cr * cy, sr * cp],
        [cr * sp * cy + sr * sy, cr * sp * sy - sr * cy, cr * cp],
    ])


def dcms_to_euler321(R):
    """dcm_to_euler321 over (..., 3, 3) rotations: (..., 3) yaw, pitch,
    roll and the gimbal-lock mask, without warning."""
    R = np.asarray(R, dtype=float)
    pitch = np.arcsin(np.clip(-R[..., 0, 2], -1.0, 1.0))
    lock = np.abs(pitch) > np.pi / 2 - GIMBAL_MARGIN
    locked_yaw = np.where(pitch > 0, -np.arctan2(R[..., 1, 0], R[..., 1, 1]),
                          np.arctan2(-R[..., 1, 0], R[..., 1, 1]))
    yaw = np.where(lock, locked_yaw, np.arctan2(R[..., 0, 1], R[..., 0, 0]))
    roll = np.where(lock, 0.0, np.arctan2(R[..., 1, 2], R[..., 2, 2]))
    return np.stack([yaw, pitch, roll], axis=-1), lock


def dcm_to_euler321(R):
    """Extract 3-2-1 Euler angles from a rotation.

    At |pitch| = pi/2 the roll/yaw split is undefined; roll is set to 0,
    the free angle folds into yaw, and GimbalLockWarning is emitted.
    """
    e, lock = dcms_to_euler321(R)
    if lock:
        warnings.warn("pitch at +/-90 deg: roll set to 0, free angle in yaw",
                      GimbalLockWarning, stacklevel=2)
    return EulerYPR(*e.tolist())


def relative_rotation(C_AN, C_BN):
    """Rotation of frame A relative to frame B: C_AB = C_AN @ C_BN^T,
    for single (3, 3) rotations or stacks of them."""
    return np.einsum("...ij,...kj->...ik", np.asarray(C_AN, dtype=float),
                     np.asarray(C_BN, dtype=float))
