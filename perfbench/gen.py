"""Seeded input generators for the three benchmark workloads.

Each generator writes the files the program reads into a directory, plus
a ``truth.json`` that only the harness reads: the workload's parameters
and what the generator knows to be true about its inputs. The program
never sees the seed.

Uses numpy only (no bioright import), so the generated inputs do not
depend on the code under test.
"""

import json
import math
from pathlib import Path

import numpy as np

KEYPOINT_NAMES = {
    1: "Neck", 2: "Eye_Left", 3: "Eye_Right", 4: "Mouth_Front_Top",
    5: "Mouth_Front_Bottom", 6: "Mouth_Back_Right", 7: "Mouth_Back_Left",
    8: "Wrist_Right", 9: "Wrist_Left", 10: "Elbow_Right", 11: "Elbow_Left",
    12: "Shoulder_Right", 13: "Shoulder_Left", 14: "Torso_Mid_Back",
    15: "Ankle_Right", 16: "Ankle_Left", 17: "Knee_Right", 18: "Knee_Left",
    19: "Hip_Right", 20: "Hip_Left", 21: "Tail_Top_Back",
    22: "Tail_Mid_Back", 23: "Tail_End_Back",
}

# Body-frame rest positions in meters (x forward, y to the animal's left).
TRUNK = {
    1: (0.30, 0.0), 2: (0.33, 0.01), 3: (0.33, -0.01), 4: (0.36, 0.004),
    5: (0.36, -0.004), 6: (0.34, -0.02), 7: (0.34, 0.02),
    12: (0.25, -0.05), 13: (0.25, 0.05), 14: (0.12, 0.0),
    19: (-0.02, -0.04), 20: (-0.02, 0.04), 21: (0.0, 0.0),
}
# Limbs swing about a pivot: (pivot id, side, ((id, distance), ...)).
LIMBS = (
    (12, -1.0, ((10, 0.05), (8, 0.10))),   # right front: elbow, wrist
    (13, 1.0, ((11, 0.05), (9, 0.10))),    # left front
    (19, -1.0, ((17, 0.05), (15, 0.10))),  # right hind: knee, ankle
    (20, 1.0, ((18, 0.05), (16, 0.10))),   # left hind
)
TAIL = ((22, 0.15), (23, 0.30))  # behind the vent (21)

# Segment recipes: the keypoints each segment frame needs.
SEGMENT_KEYPOINTS = {
    "Body": (1, 21, 12, 13),
    "Tail": (23, 21, 19, 20),
    "LeftFrontLeg": (13, 9),
    "LeftHindLeg": (20, 16),
    "RightFrontLeg": (8, 12),
    "RightHindLeg": (15, 19),
}
LEGS = ("LeftFrontLeg", "LeftHindLeg", "RightFrontLeg", "RightHindLeg")

# Keypoints kept noise-free so the body yaw is exact (vent -> neck axis).
EXACT_IDS = (1, 21)
SPARSE_ID = 5  # seen on two frames only: reported as too sparse
WRISTS = (8, 9)


FRAME_RATE = 1000.0
MAX_GAP = 5           # frames; gaps up to this long are interpolated
MAX_JUMP = 40.0       # pixels per frame before re-association steps in
SCALE = 0.001         # meters per pixel
ORIGIN = (640.0, 512.0)
PIXEL_NOISE = 0.2     # pixels, standard deviation
LONG_GAP = 16         # frames; longest occlusion, kept short enough that
                      # no keypoint moves MAX_JUMP pixels across one


def _sinus(rng, t, amp_lo, amp_hi, f_lo, f_hi):
    amp = rng.uniform(amp_lo, amp_hi)
    freq = rng.uniform(f_lo, f_hi)
    return amp * np.sin(2 * math.pi * freq * t + rng.uniform(0, 2 * math.pi))


def _world_positions(rng, t):
    """Per-keypoint (F, 2) world positions and the true body yaw."""
    yaw = _sinus(rng, t, 0.3, 0.6, 0.2, 0.4)
    centre = np.stack([0.02 * np.sin(2 * math.pi * 0.2 * t),
                       0.015 * t], axis=1)
    body = {kid: np.broadcast_to(np.array(p), (len(t), 2)).copy()
            for kid, p in TRUNK.items()}
    for pivot, side, chain in LIMBS:
        swing = _sinus(rng, t, 0.1, 0.3, 0.5, 1.5)
        direction = np.stack([-np.sin(swing) * side, np.cos(swing) * side], 1)
        for kid, dist in chain:
            body[kid] = body[pivot] + dist * direction
    sweep = _sinus(rng, t, 0.2, 0.4, 0.3, 0.8)
    direction = np.stack([-np.cos(sweep), -np.sin(sweep)], axis=1)
    for kid, dist in TAIL:
        body[kid] = body[21] + dist * direction
    c, s = np.cos(yaw)[:, None], np.sin(yaw)[:, None]
    world = {kid: centre + np.hstack([c * p[:, :1] - s * p[:, 1:],
                                      s * p[:, :1] + c * p[:, 1:]])
             for kid, p in body.items()}
    return world, yaw


def _place_gaps(rng, n_frames, blocked, count, lo, hi):
    """Non-overlapping [start, end] runs, each with a visible frame on
    both sides, avoiding the frames in `blocked`."""
    gaps = []
    for _ in range(200):
        if len(gaps) == count:
            break
        length = int(rng.integers(lo, hi + 1))
        start = int(rng.integers(10, n_frames - 10 - length))
        end = start + length - 1
        if blocked[start - 2:end + 3].any():
            continue
        blocked[start - 2:end + 3] = True
        gaps.append((start, end))
    return gaps


def generate_recording(out_dir, seed, frames=2000, window=(1.49, 1.64)):
    """2D pixel tracker export with occlusion gaps and wrist swaps, and
    the righting window (seconds) the workload cuts."""
    rng = np.random.default_rng(seed)
    out_dir = Path(out_dir)
    n = frames
    t = np.arange(n) / FRAME_RATE
    world, yaw = _world_positions(rng, t)
    pixels = {}
    for kid, p in world.items():
        px = np.empty_like(p)
        px[:, 0] = ORIGIN[0] + p[:, 0] / SCALE
        px[:, 1] = ORIGIN[1] - p[:, 1] / SCALE
        if kid not in EXACT_IDS:
            px += rng.normal(0.0, PIXEL_NOISE, px.shape)
        pixels[kid] = px

    # Two wrist identity-swap episodes, away from each other and the ends.
    half = n // 2
    swaps = []
    for lo, hi in ((n // 10, half - n // 10), (half + n // 10, n - n // 10)):
        length = int(rng.integers(15, 41))
        start = int(rng.integers(lo, hi - length))
        swaps.append((start, start + length - 1))

    visible = {kid: np.ones(n, dtype=bool) for kid in KEYPOINT_NAMES}
    omitted = {kid: np.zeros(n, dtype=bool) for kid in KEYPOINT_NAMES}
    short_gaps = {}
    for kid in KEYPOINT_NAMES:
        if kid == SPARSE_ID:
            continue
        blocked = np.zeros(n, dtype=bool)
        if kid in WRISTS:
            for s, e in swaps:
                blocked[s - 3:e + 4] = True
        short = _place_gaps(rng, n, blocked, 3, 1, MAX_GAP)
        long = _place_gaps(rng, n, blocked, 2, MAX_GAP + 3, LONG_GAP)
        for s, e in short:
            visible[kid][s:e + 1] = False
        for s, e in long:
            visible[kid][s:e + 1] = False
            omitted[kid][s:e + 1] = True  # missed frames: no rows at all
        short_gaps[kid] = short
    # The sparse keypoint is seen twice, more than MAX_GAP frames apart,
    # so it has no consecutive visible pair and nothing to interpolate.
    first = int(rng.integers(n // 4, n // 2))
    sparse_frames = (first, first + MAX_GAP + 7)
    visible[SPARSE_ID][:] = False
    omitted[SPARSE_ID][:] = True
    for f in sparse_frames:
        visible[SPARSE_ID][f] = True
        omitted[SPARSE_ID][f] = False
    short_gaps[SPARSE_ID] = []

    detected = {kid: p.copy() for kid, p in pixels.items()}
    for s, e in swaps:
        a, b = WRISTS
        detected[a][s:e + 1], detected[b][s:e + 1] = \
            pixels[b][s:e + 1].copy(), pixels[a][s:e + 1].copy()

    lines = ["frame,keypoint_id,keypoint_name,x,y,visible"]
    for f in range(n):
        for kid, name in KEYPOINT_NAMES.items():
            if omitted[kid][f]:
                continue
            if visible[kid][f]:
                x, y = detected[kid][f]
                lines.append(f"{f},{kid},{name},{float(x)!r},{float(y)!r},1")
            else:
                lines.append(f"{f},{kid},{name},nan,nan,0")
    (out_dir / "tracks.csv").write_text("\n".join(lines) + "\n")

    # Visibility after interpolation: short gaps filled, long ones not.
    filled = {kid: v.copy() for kid, v in visible.items()}
    for kid, gaps in short_gaps.items():
        for s, e in gaps:
            filled[kid][s:e + 1] = True
    observed = np.logical_and.reduce([visible[k] for k in
                                      SEGMENT_KEYPOINTS["Body"]])
    segment_valid = {seg: np.logical_and.reduce([filled[k] for k in ids])
                     for seg, ids in SEGMENT_KEYPOINTS.items()}
    lo, hi = np.searchsorted(t, window[0]), \
        np.searchsorted(t, window[1], side="right")
    truth = {
        "frame_rate": FRAME_RATE,
        "frame_count": n,
        "max_gap": MAX_GAP,
        "max_jump": MAX_JUMP,
        "scale": SCALE,
        "origin_pixel": list(ORIGIN),
        "window": list(window),
        "window_samples": int(hi - lo),
        "swaps": swaps,
        "wrist_pixels": {str(kid): [pixels[kid][s:e + 1].tolist()
                                    for s, e in swaps] for kid in WRISTS},
        "interpolated": {str(kid): sum(e - s + 1 for s, e in gaps)
                         for kid, gaps in short_gaps.items()},
        "too_sparse_ids": [SPARSE_ID],
        "yaw": yaw.tolist(),
        "body_observed": np.flatnonzero(observed).tolist(),
        "valid": {seg: int(v.sum()) for seg, v in segment_valid.items()},
        "relative_valid": {leg: int((segment_valid[leg]
                                     & segment_valid["Body"]).sum())
                           for leg in LEGS},
        "window_valid": {seg: int(v[lo:hi].sum())
                         for seg, v in segment_valid.items()},
        "relative_window_valid": {
            leg: int((segment_valid[leg] & segment_valid["Body"])[lo:hi].sum())
            for leg in LEGS},
    }
    (out_dir / "truth.json").write_text(json.dumps(truth))
    return truth


def _unit_step(t, zeta, wn):
    wd = wn * math.sqrt(1 - zeta ** 2)
    return 1.0 - np.exp(-zeta * wn * t) / math.sqrt(1 - zeta ** 2) * \
        np.sin(wd * t + math.acos(zeta))


def generate_replay(out_dir, seed):
    """A 150 ms lizard tail flip and a PlanarOffset spacecraft config."""
    rng = np.random.default_rng(seed)
    out_dir = Path(out_dir)
    t = np.arange(151) / FRAME_RATE
    overshoot = rng.uniform(0.08, 0.16)
    zeta = -math.log(overshoot) / math.sqrt(math.pi ** 2
                                            + math.log(overshoot) ** 2)
    wn = rng.uniform(35.0, 55.0)
    angle = 180.0 * _unit_step(t, zeta, wn) + rng.normal(0.0, 0.3, len(t))
    lines = ["t,angle_deg,rate_deg_s"]
    lines += [f"{float(a)!r},{float(b)!r},nan" for a, b in zip(t, angle)]
    (out_dir / "lizard.csv").write_text("\n".join(lines) + "\n")
    # ETS-VII masses with the arm's centre of mass off the rotation axis.
    (out_dir / "planar.cfg").write_text(
        "# ETS-VII-class SMS, arm hinge and centre of mass off-axis\n"
        "mode = PlanarOffset\n"
        "hinge_offset = 1.0\n"
        "arm_cm_offset = 1.5\n"
        "arm_inertia_cm = 40.0\n"
        "dt = 0.01\n")
    truth = {"target_duration": 225.0, "sweep_resolution": 4,
             "samples": len(t), "raw_duration": float(t[-1])}
    (out_dir / "truth.json").write_text(json.dumps(truth))
    return truth


def generate_maneuver(out_dir, seed, resolution=50):
    """The demo maneuver reads no input file; only its size is recorded."""
    truth = {"resolution": resolution,
             "sweep_rows": (resolution + 1) * (resolution + 2) // 2,
             # ETS-VII roll axis: base and arm inertia, kg m^2
             "base_inertia": 6200.0, "arm_inertia": 360.0}
    (Path(out_dir) / "truth.json").write_text(json.dumps(truth))
    return truth


GENERATORS = {"recording": generate_recording, "maneuver": generate_maneuver,
              "replay": generate_replay}
