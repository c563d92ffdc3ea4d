"""Keypoint time-series: data model, CSV/JSON ingestion, identity
re-association, gap interpolation, and the planar pixel-to-world map."""

import csv
import json
import operator
import os
import warnings
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

#: Most frames a loaded recording may span: 1 000 s at 1 kHz.
MAX_FRAMES = 1_000_000


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
        self.interpolated = np.zeros(len(self.frames), dtype=bool) \
            if self.interpolated is None else np.asarray(self.interpolated, dtype=bool)
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


def load_dataset(source, format="csv", frame_rate=None):
    """Read a dataset from a text or binary stream or a path (a str is a path).

    CSV needs frame_rate and is in meters with a z column, else pixels;
    JSON carries frame_rate, frame_count and unit itself. Missing (frame,
    keypoint) rows become invisible samples.
    """
    if format == "csv":
        return _load_csv(source, frame_rate)
    if format == "json":
        return _load_json(source)
    raise ValueError(f"unknown format {format!r}")


def _as_text(source):
    """The whole file as one UTF-8 str, less a leading BOM; \\r\\n and \\r end lines."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as f:
            return _as_text(f)
    data = source.read()
    data = (data.decode() if isinstance(data, bytes) else data).removeprefix("\ufeff")
    if "\r" in data:  # a test is 25x faster than a replace that finds nothing
        data = data.replace("\r\n", "\n").replace("\r", "\n")
    if (nul := data.find("\0")) >= 0:  # numpy drops a trailing NUL from a text field
        raise ParseError("line %d: NUL character" % (data.count("\n", 0, nul) + 1))
    return data


def _load_csv(source, frame_rate):
    if frame_rate is None:
        raise SchemaError("frame_rate is required for CSV input (never inferred)")
    header, *lines = _as_text(source).split("\n")
    if not (header or lines):
        raise EmptyDataset("no header row")
    header = next(csv.reader([header]))
    if header[:4] != ["frame", "keypoint_id", "keypoint_name", "x"]:
        raise ParseError(f"unexpected header {header!r}")
    dim = 3 if "z" in header else 2
    dtype = np.dtype([("frame", "i8"), ("id", "i8"), ("name", "U19"),
                      ("coords", "f8", (dim,)), ("visible", "U2")])
    try:
        rows = _parse_rows(lines, dtype)
    except ValueError:
        lineno, line = _first_bad(_data_lines(lines), dtype)
        got = len(next(csv.reader([line])))
        why = f"expected {4 + dim} fields, got {got}" if got != 4 + dim \
            else f"bad number in {line!r}"
        raise ParseError(f"line {lineno}: {why}") from None
    if not len(rows):
        raise EmptyDataset("no data rows")
    frame, kid, name, coords, visible = (rows[f] for f in dtype.names)
    known = (kid >= 1) & (kid <= len(KEYPOINT_NAMES))
    order = np.lexsort((frame, kid))  # stable: a repeat sorts after its first row
    repeat = np.zeros(len(rows), dtype=bool)
    repeat[order[1:]] = (np.diff(kid[order]) == 0) & (np.diff(frame[order]) == 0)
    faults = (  # in the order the checks apply to one row
        (~known, SchemaError, "keypoint id {id} out of range 1-23"),
        (known & (name != np.array(["", *KEYPOINT_NAMES.values()])[known * kid]),
         SchemaError, "unknown keypoint name {name!r} for id {id}"),
        ((visible != "0") & (visible != "1"), ParseError,
         "visible must be 0 or 1, got {visible!r}"),
        ((visible == "1") & ~np.isfinite(coords).all(axis=1), ParseError,
         "non-finite coordinate on a visible row"),
        (repeat, SchemaError, "duplicate (frame {frame}, keypoint {id})"),
        (frame < 0, SchemaError, "negative frame index {frame}"),
    )
    bad = np.logical_or.reduce([mask for mask, _, _ in faults])
    if bad.any():
        r = int(np.argmax(bad))
        _, error, message = next(fault for fault in faults if fault[0][r])
        fields = dict(zip(dtype.names, rows[r].tolist()))
        raise error(f"line {_data_lines(lines)[r][0]}: {message.format_map(fields)}")
    frame_count = 1 + int(frame.max())
    names = {k: KEYPOINT_NAMES[k] for k in np.flatnonzero(np.bincount(kid)).tolist()}
    tracks = _scatter(names, kid, frame, coords, visible == "1", frame_count)
    return KeypointDataset(tracks, float(frame_rate), frame_count,
                           "meter" if dim == 3 else "pixel")


def _parse_rows(lines, dtype):
    """CSV data rows from a list of lines, in one pass."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        # older numpy reads "1.0" into an int field with a DeprecationWarning
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(lines, dtype=dtype, delimiter=",", quotechar='"',
                          comments=None, ndmin=1)


def _data_lines(lines):
    """(line number, line) of each non-blank line after the header."""
    return [(n, line) for n, line in enumerate(lines, start=2) if line]


def _first_bad(numbered, dtype):
    """The first (line number, line) that _parse_rows rejects, by bisection."""
    lo, hi = 0, len(numbered)  # the first bad line is in numbered[lo:hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _parse_rows([line for _, line in numbered[lo:mid]], dtype)
            lo = mid
        except ValueError:
            hi = mid
    return numbered[lo]


def _scatter(names, kid, frame, coords, visible, frame_count):
    """{id: KeypointTrack} on arange(frame_count) for `names` (id -> name) from
    per-sample arrays; frames without a sample become invisible NaN samples."""
    if frame_count > MAX_FRAMES:
        raise SchemaError(f"recording spans {frame_count} frames, "
                          f"more than MAX_FRAMES = {MAX_FRAMES}")
    outside = (frame < 0) | (frame >= frame_count)
    if outside.any():
        raise SchemaError(f"track {kid[outside][0]}: frame index outside "
                          f"0..{frame_count - 1}")
    positions = np.full((len(KEYPOINT_NAMES) + 1, frame_count, coords.shape[1]), np.nan)
    seen = np.zeros(positions.shape[:2], dtype=bool)
    positions[kid, frame] = coords
    seen[kid, frame] = visible
    positions[~seen] = np.nan
    return {k: KeypointTrack(k, name, np.arange(frame_count), positions[k], seen[k])
            for k, name in names.items()}


def _load_json(source):
    try:
        obj = json.loads(_as_text(source))
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from None
    for key in ("frame_rate", "frame_count", "unit", "tracks"):
        if not isinstance(obj, dict) or key not in obj:
            raise ParseError(f"missing top-level key {key!r}")
    if not obj["tracks"]:
        raise EmptyDataset("no tracks")
    names, samples = {}, []  # samples: (id, frames, positions, visible) per track
    try:
        frame_rate, frame_count = float(obj["frame_rate"]), int(obj["frame_count"])
        first = next((t["samples"][0] for t in obj["tracks"] if t["samples"]), {})
        axes = ("x", "y", "z") if "z" in first else ("x", "y")
        if len(axes) == 3 and obj["unit"] == "pixel":
            raise SchemaError("samples carry z, so the unit must be meter, not pixel")
        coords = operator.itemgetter(*axes)
        for t in obj["tracks"]:
            kid, name, track = t["id"], t["name"], t["samples"]
            if kid in names:
                raise SchemaError(f"duplicate keypoint id {kid}")
            if kid not in KEYPOINT_NAMES or not isinstance(kid, int):
                raise SchemaError(f"keypoint id {kid!r} out of range 1-23")
            frames = np.array([s["frame"] for s in track], dtype=int)
            positions = np.array([coords(s) for s in track],
                                 dtype=float).reshape(len(track), len(axes))
            visible = np.array([bool(s["visible"]) for s in track], dtype=bool)
            if np.any(np.diff(frames) <= 0):
                raise SchemaError(f"track {kid}: frame indices not strictly increasing")
            if not np.isfinite(positions[visible]).all():
                raise ParseError(f"track {kid}: non-finite coordinate on a visible sample")
            names[kid] = name
            samples.append((np.full(len(track), kid), frames, positions, visible))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed track or sample, missing or bad {exc}") from None
    tracks = _scatter(names, *map(np.concatenate, zip(*samples)), frame_count)
    return KeypointDataset(tracks, frame_rate, frame_count, obj["unit"])


def save_dataset(dataset, stream, format="csv"):
    """Write a dataset back out; inverse of load_dataset on valid data."""
    if format == "csv":
        dim = next((t.dim for t in dataset.tracks.values()), 2)
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["frame", "keypoint_id", "keypoint_name", *"xyz"[:dim], "visible"])
        for kid in sorted(dataset.tracks):
            track = dataset.tracks[kid]
            writer.writerows(
                [f, kid, track.name, *(map(repr, p) if v else ["nan"] * track.dim), int(v)]
                for f, p, v in zip(track.frames.tolist(), track.positions.tolist(),
                                   track.visible.tolist()))
    elif format == "json":
        head = json.dumps({"frame_rate": dataset.frame_rate,
                           "frame_count": dataset.frame_count,
                           "unit": dataset.unit, "tracks": []})
        stream.write(head[:-2])
        for n, kid in enumerate(sorted(dataset.tracks)):
            track = dataset.tracks[kid]
            x, y, *z = map(_json_tokens, track.positions.T)
            sample = '{"frame": %s, "x": %s, "y": %s, "visible": %s' + \
                (', "z": %s}' if z else "}")
            body = ", ".join(map(sample.__mod__, zip(
                _json_tokens(track.frames), x, y, _json_tokens(track.visible), *z)))
            stream.write(f'{", " if n else ""}{{"id": {kid}, "name": '
                         f'{json.dumps(track.name)}, "samples": [{body}]}}')
        stream.write("]}")
    else:
        raise ValueError(f"unknown format {format!r}")


def _json_tokens(column):
    """Each value of a 1-D array as json.dumps writes it (NaN and
    Infinity included), from one C-encoder call."""
    return json.dumps(column.tolist())[1:-1].split(", ") if len(column) else []


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
    """Linearly fill invisible runs of length <= max_gap frames between
    visible samples, weighted by frame index; filled samples are marked
    interpolated. Longer runs and leading/trailing runs are untouched."""
    if int(track.visible.sum()) < 2:
        raise TooSparse(f"track {track.id}: need >= 2 visible samples")
    positions = track.positions.copy()
    visible = track.visible.copy()
    interpolated = track.interpolated.copy()
    frames = track.frames
    vis_idx = np.flatnonzero(track.visible)
    for a, b in zip(vis_idx[:-1].tolist(), vis_idx[1:].tolist()):
        if b - a >= 2 and frames[b] - frames[a] <= max_gap + 1:
            w = (frames[a + 1:b] - frames[a])[:, None] / (frames[b] - frames[a])
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
    gain = (calib.scale, (-1.0 if calib.image_y_down else 1.0) * calib.scale)
    tracks = {}
    for kid, track in dataset.tracks.items():
        world = np.zeros((len(track.frames), 3))
        world[:, :2] = (track.positions[:, :2] - (ox, oy)) * gain
        world[~track.visible] = np.nan
        tracks[kid] = replace(track, positions=world)
    return KeypointDataset(tracks, dataset.frame_rate, dataset.frame_count,
                           "meter")
