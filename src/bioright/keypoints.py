"""Keypoint time-series: data model, CSV/JSON ingestion, identity
re-association, gap interpolation, and the planar pixel-to-world map."""

import csv
import io
import json
import math
import operator
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import (AlreadyWorldUnits, EmptyDataset, ParseError, SchemaError,
                     TooSparse)

#: Canonical keypoint names, id 1..23.
KEYPOINT_NAMES = {
    1: "Neck",
    2: "Eye_Left",
    3: "Eye_Right",
    4: "Mouth_Front_Top",
    5: "Mouth_Front_Bottom",
    6: "Mouth_Back_Right",
    7: "Mouth_Back_Left",
    8: "Wrist_Right",
    9: "Wrist_Left",
    10: "Elbow_Right",
    11: "Elbow_Left",
    12: "Shoulder_Right",
    13: "Shoulder_Left",
    14: "Torso_Mid_Back",
    15: "Ankle_Right",
    16: "Ankle_Left",
    17: "Knee_Right",
    18: "Knee_Left",
    19: "Hip_Right",
    20: "Hip_Left",
    21: "Tail_Top_Back",
    22: "Tail_Mid_Back",
    23: "Tail_End_Back",
}


@dataclass
class KeypointTrack:
    """Position time-series for one keypoint.

    frames is strictly increasing; positions is (N, 2) or (N, 3) in a
    single unit; invisible samples hold NaN positions.
    """

    id: int
    name: str
    frames: np.ndarray
    positions: np.ndarray
    visible: np.ndarray
    interpolated: np.ndarray = None

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=int)
        self.positions = np.asarray(self.positions, dtype=float)
        self.visible = np.asarray(self.visible, dtype=bool)
        if self.interpolated is None:
            self.interpolated = np.zeros(len(self.frames), dtype=bool)
        else:
            self.interpolated = np.asarray(self.interpolated, dtype=bool)
        if np.any(np.diff(self.frames) <= 0):
            raise SchemaError(f"track {self.id}: frame indices not strictly increasing")
        if self.positions.ndim != 2 or self.positions.shape[1] not in (2, 3):
            raise SchemaError(f"track {self.id}: positions must be (N, 2) or (N, 3)")

    @property
    def dim(self):
        return self.positions.shape[1]

    def visible_positions(self):
        return self.positions[self.visible]


@dataclass
class KeypointDataset:
    """All tracks of one recording plus the timing metadata."""

    tracks: dict
    frame_rate: float
    frame_count: int
    unit: str

    def __post_init__(self):
        if self.unit not in ("pixel", "meter"):
            raise SchemaError(f"unknown unit {self.unit!r}")
        if self.frame_rate <= 0:
            raise SchemaError("frame_rate must be positive")
        for kid, track in self.tracks.items():
            if kid != track.id:
                raise SchemaError(f"track map key {kid} != track id {track.id}")
            if track.id not in KEYPOINT_NAMES:
                raise SchemaError(f"keypoint id {track.id} out of range 1-23")
            if track.name != KEYPOINT_NAMES[track.id]:
                raise SchemaError(
                    f"keypoint {track.id} named {track.name!r}, "
                    f"expected {KEYPOINT_NAMES[track.id]!r}")
            if len(track.frames) and track.frames[-1] + 1 > self.frame_count:
                raise SchemaError(f"track {track.id} exceeds frame_count")


@dataclass(frozen=True)
class PlanarCalibration:
    """Single-plane pixel-to-meter map; z of the world plane is 0."""

    scale: float
    origin_pixel: tuple
    image_y_down: bool = True

    def __post_init__(self):
        if self.scale <= 0:
            raise SchemaError("scale must be positive")


@dataclass(frozen=True)
class SwapEvent:
    """One re-association episode (consecutive frames merged) or a kept jump."""

    from_id: int
    to_id: int
    frame_start: int
    frame_end: int
    kind: str  # "swap" or "jump"


def _parse_float(token, what):
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"bad {what}: {token!r}") from None


def _parse_int(token, what):
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"bad {what}: {token!r}") from None


def load_dataset(source, format="csv", frame_rate=None, unit="pixel"):
    """Read a dataset from a byte/text stream or path.

    CSV carries no frame rate, so frame_rate is required there; JSON
    carries frame_rate, frame_count, and unit itself. Missing (frame,
    keypoint) rows become invisible samples.
    """
    close = False
    if isinstance(source, os.PathLike) or (
            isinstance(source, str) and "\n" not in source):
        source = open(source, "rb")
        close = True
    try:
        if format == "csv":
            return _load_csv(source, frame_rate, unit)
        if format == "json":
            return _load_json(source)
        raise ValueError(f"unknown format {format!r}")
    finally:
        if close:
            source.close()


def _as_text(source):
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8"))
    if isinstance(source, str):
        return io.StringIO(source)
    data = source.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return io.StringIO(data)


def _load_csv(source, frame_rate, unit):
    if frame_rate is None:
        raise SchemaError("frame_rate is required for CSV input (never inferred)")
    reader = csv.reader(_as_text(source))
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyDataset("no header row") from None
    if header[:4] != ["frame", "keypoint_id", "keypoint_name", "x"]:
        raise ParseError(f"unexpected header {header!r}")
    has_z = "z" in header
    ncol = 7 if has_z else 6
    rows = {}  # id -> {frame: (coords, visible)}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != ncol:
            raise ParseError(f"line {lineno}: expected {ncol} fields, got {len(row)}")
        frame = _parse_int(row[0], "frame")
        kid = _parse_int(row[1], "keypoint_id")
        name = row[2]
        if kid not in KEYPOINT_NAMES:
            raise SchemaError(f"line {lineno}: keypoint id {kid} out of range 1-23")
        if name != KEYPOINT_NAMES[kid]:
            raise SchemaError(f"line {lineno}: unknown keypoint name {name!r} for id {kid}")
        coords = [_parse_float(tok, "coordinate") for tok in row[3:ncol - 1]]
        vis = row[ncol - 1]
        if vis not in ("0", "1"):
            raise ParseError(f"line {lineno}: visible must be 0 or 1, got {vis!r}")
        if vis == "1" and not all(map(math.isfinite, coords)):
            raise ParseError(f"line {lineno}: non-finite coordinate on a visible row")
        per = rows.setdefault(kid, {})
        if frame in per:
            raise SchemaError(f"line {lineno}: duplicate (frame {frame}, keypoint {kid})")
        per[frame] = (coords, vis == "1")
    if not rows:
        raise EmptyDataset("no data rows")
    frame_count = 1 + max(max(per) for per in rows.values())
    tracks = {kid: _dense_track(kid, KEYPOINT_NAMES[kid], list(rows[kid]),
                                [c for c, _ in rows[kid].values()],
                                [v for _, v in rows[kid].values()],
                                frame_count, 3 if has_z else 2)
              for kid in sorted(rows)}
    return KeypointDataset(tracks, float(frame_rate), frame_count, unit)


def _dense_track(kid, name, frames, coords, visible, frame_count, dim):
    """A track on arange(frame_count) from samples at `frames`; frames
    without a sample become invisible NaN samples."""
    frames = np.asarray(frames, dtype=int)
    if len(frames) and (frames.min() < 0 or frames.max() >= frame_count):
        raise SchemaError(f"track {kid}: frame index outside 0..{frame_count - 1}")
    positions = np.full((frame_count, dim), np.nan)
    positions[frames] = np.asarray(coords, dtype=float).reshape(len(frames), dim)
    vis = np.zeros(frame_count, dtype=bool)
    vis[frames] = visible
    positions[~vis] = np.nan
    return KeypointTrack(kid, name, np.arange(frame_count), positions, vis)


def _load_json(source):
    try:
        obj = json.load(_as_text(source))
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from None
    for key in ("frame_rate", "frame_count", "unit", "tracks"):
        if not isinstance(obj, dict) or key not in obj:
            raise ParseError(f"missing top-level key {key!r}")
    if not obj["tracks"]:
        raise EmptyDataset("no tracks")
    tracks = {}
    try:
        frame_rate, frame_count = float(obj["frame_rate"]), int(obj["frame_count"])
        for t in obj["tracks"]:
            kid, name, samples = t["id"], t["name"], t["samples"]
            axes = ("x", "y", "z") if samples and "z" in samples[0] else ("x", "y")
            coords = operator.itemgetter(*axes)
            frames = np.array([s["frame"] for s in samples], dtype=int)
            positions = np.array([coords(s) for s in samples],
                                 dtype=float).reshape(len(samples), len(axes))
            visible = np.array([bool(s["visible"]) for s in samples], dtype=bool)
            if kid in tracks:
                raise SchemaError(f"duplicate keypoint id {kid}")
            if np.any(np.diff(frames) <= 0):
                raise SchemaError(f"track {kid}: frame indices not strictly increasing")
            if not np.isfinite(positions[visible]).all():
                raise ParseError(f"track {kid}: non-finite coordinate on a visible sample")
            tracks[kid] = _dense_track(kid, name, frames, positions, visible,
                                       frame_count, len(axes))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed track or sample, missing or bad {exc}") from None
    return KeypointDataset(tracks, frame_rate, frame_count, obj["unit"])


def save_dataset(dataset, stream, format="csv"):
    """Write a dataset back out; inverse of load_dataset on valid data."""
    if format == "csv":
        some = next(iter(dataset.tracks.values()))
        has_z = some.dim == 3
        cols = ["frame", "keypoint_id", "keypoint_name", "x", "y"] + \
            (["z"] if has_z else []) + ["visible"]
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(cols)
        for kid in sorted(dataset.tracks):
            track = dataset.tracks[kid]
            writer.writerows(
                [f, kid, track.name, *(map(repr, p) if v else ["nan"] * track.dim), int(v)]
                for f, p, v in zip(track.frames.tolist(), track.positions.tolist(),
                                   track.visible.tolist()))
    elif format == "json":
        # json.dumps runs the C encoder (json.dump on a stream does not);
        # one track per call keeps the whole file out of memory.
        head = json.dumps({"frame_rate": dataset.frame_rate,
                           "frame_count": dataset.frame_count,
                           "unit": dataset.unit, "tracks": []})
        stream.write(head[:-2])
        for n, kid in enumerate(sorted(dataset.tracks)):
            track = dataset.tracks[kid]
            rows = zip(track.frames.tolist(), track.positions.tolist(),
                       track.visible.tolist())
            if track.dim == 3:
                samples = [{"frame": f, "x": p[0], "y": p[1], "visible": v,
                            "z": p[2]} for f, p, v in rows]
            else:
                samples = [{"frame": f, "x": p[0], "y": p[1], "visible": v}
                           for f, p, v in rows]
            stream.write((", " if n else "") + json.dumps(
                {"id": kid, "name": track.name, "samples": samples}))
        stream.write("]}")
    else:
        raise ValueError(f"unknown format {format!r}")


def dense_stack(dataset, ids):
    """(F, k, D) positions and (F, k) visibility of the tracks `ids` on
    frames 0..frame_count-1; absent tracks and frames are invisible NaN."""
    dim = next((t.dim for t in dataset.tracks.values()), 3)
    positions = np.full((dataset.frame_count, len(ids), dim), np.nan)
    visible = np.zeros((dataset.frame_count, len(ids)), dtype=bool)
    for j, kid in enumerate(ids):
        track = dataset.tracks.get(kid)
        if track is not None:
            positions[track.frames, j] = track.positions
            visible[track.frames, j] = track.visible
    return positions, visible


def reassociate_identities(dataset, max_jump):
    """Re-match detections whose frame-to-frame displacement exceeds max_jump.

    Offending detections in a frame are greedily reassigned (in id order)
    to the offending track whose last-known position is nearest, ties to
    the lower id. The per-frame multiset of detections is preserved.
    Returns (new dataset, list of SwapEvent).
    """
    ids = sorted(dataset.tracks)
    positions, visible = dense_stack(dataset, ids)
    if positions.shape[2] != 2:
        raise SchemaError("re-association is defined for 2D datasets")
    last = np.full((len(ids), 2), np.nan)  # NaN: no visible sample yet
    raw_events = []  # (frame, from_id, to_id, kind)
    for f in range(dataset.frame_count):
        pos, vis = positions[f], visible[f]
        jump = np.linalg.norm(pos - last, axis=1)
        offenders = np.flatnonzero(vis & (jump > max_jump)).tolist()
        if len(offenders) >= 2:
            free = list(offenders)
            # pos[offenders] is a copy, so the writes below keep each det
            for j, det in zip(offenders, pos[offenders]):
                target = min(free, key=lambda t: (np.linalg.norm(det - last[t]), t))
                free.remove(target)
                if target != j:
                    pos[target] = det
                    raw_events.append((f, ids[j], ids[target], "swap"))
        elif len(offenders) == 1:
            raw_events.append((f, ids[offenders[0]], ids[offenders[0]], "jump"))
        last[vis] = pos[vis]
    events = _merge_events(raw_events)
    tracks = {kid: replace(dataset.tracks[kid],
                           positions=positions[dataset.tracks[kid].frames, j])
              for j, kid in enumerate(ids)}
    return KeypointDataset(tracks, dataset.frame_rate, dataset.frame_count,
                           dataset.unit), events


def _merge_events(raw):
    """Collapse per-frame events into per-episode SwapEvents."""
    events = []
    open_events = {}  # (from, to, kind) -> [start, end]
    for f, src, dst, kind in sorted(raw):
        key = (src, dst, kind)
        span = open_events.get(key)
        if span is not None and span[1] == f - 1:
            span[1] = f
        else:
            if span is not None:
                events.append(SwapEvent(src, dst, span[0], span[1], kind))
            open_events[key] = [f, f]
    for (src, dst, kind), span in open_events.items():
        events.append(SwapEvent(src, dst, span[0], span[1], kind))
    events.sort(key=lambda e: (e.frame_start, e.from_id))
    return events


def interpolate_gaps(track, max_gap):
    """Linearly fill invisible runs of length <= max_gap between visible
    samples; filled samples are marked interpolated. Longer runs and
    leading/trailing runs are untouched."""
    if int(track.visible.sum()) < 2:
        raise TooSparse(f"track {track.id}: need >= 2 visible samples")
    positions = track.positions.copy()
    visible = track.visible.copy()
    interpolated = track.interpolated.copy()
    vis_idx = np.flatnonzero(track.visible)
    for a, b in zip(vis_idx[:-1].tolist(), vis_idx[1:].tolist()):
        if 2 <= b - a <= max_gap + 1:
            w = (np.arange(a + 1, b) - a)[:, None] / (b - a)
            positions[a + 1:b] = (1 - w) * track.positions[a] + w * track.positions[b]
            visible[a + 1:b] = interpolated[a + 1:b] = True
    return replace(track, positions=positions, visible=visible,
                   interpolated=interpolated)


def pixel_to_world(dataset, calib):
    """Map a 2D pixel dataset into a planar world frame in meters.

    The world x-y plane is the image plane (y flipped when the image y
    axis points down); z = 0 for every point.
    """
    if dataset.unit != "pixel":
        raise AlreadyWorldUnits("dataset already in meters")
    ox, oy = calib.origin_pixel
    ysign = -1.0 if calib.image_y_down else 1.0
    tracks = {}
    for kid, track in dataset.tracks.items():
        world = np.full((len(track.frames), 3), np.nan)
        world[:, 0] = (track.positions[:, 0] - ox) * calib.scale
        world[:, 1] = ysign * (track.positions[:, 1] - oy) * calib.scale
        world[:, 2] = 0.0
        world[~track.visible] = np.nan
        tracks[kid] = replace(track, positions=world)
    return KeypointDataset(tracks, dataset.frame_rate, dataset.frame_count,
                           "meter")
