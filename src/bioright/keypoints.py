"""Keypoint time-series: data model, CSV/JSON ingestion, identity
re-association, gap interpolation, and the planar pixel-to-world map."""

import csv
import io
import json
import math
import operator
import os
import warnings
from contextlib import suppress
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from . import traj
from .errors import (AlreadyWorldUnits, BiorightError, EmptyDataset, ParseError,
                     SchemaError, TooSparse)
from .traj import _as_text, format_rows

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
#: Largest |coordinate| of a visible sample. The pipeline's highest power of
#: a coordinate is the fourth, in the norm of a cross product of two
#: differences, which stays finite up to about 9e76.
MAX_COORDINATE = 1e75
_SCAN_BLOCK = 64  # frames whose jumps reassociate_identities tests in one pass
#: A recording's dimension by its unit, which KeypointDataset holds each track to.
DIMS = {"pixel": 2, "meter": 3}
_AXES = {"pixel": ("x", "y"), "meter": ("x", "y", "z")}  # a sample's coordinates, by unit
#: The header of a keypoint CSV, by unit: the only two a CSV may carry.
_CSV_HEADERS = {unit: ["frame", "keypoint_id", "keypoint_name", *axes, "visible"]
                for unit, axes in _AXES.items()}


@dataclass
class KeypointTrack:
    """Position time-series for one keypoint.

    frames is strictly increasing; positions is (N, 2) or (N, 3) in a
    single unit, and frames, visible and interpolated are (N,); invisible
    samples hold NaN positions.
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
        self.interpolated = np.zeros_like(self.visible) \
            if self.interpolated is None else np.asarray(self.interpolated, dtype=bool)
        if self.positions.ndim != 2 or self.positions.shape[1] not in (2, 3):
            raise SchemaError(f"track {self.id}: positions must be (N, 2) or (N, 3)")
        for name in ("frames", "visible", "interpolated"):
            if getattr(self, name).shape != self.positions.shape[:1]:
                raise SchemaError(f"track {self.id}: {name} is not ({len(self.positions)},)")
        if np.any(np.diff(self.frames) <= 0):
            raise SchemaError(f"track {self.id}: frame indices not strictly increasing")

    @property
    def dim(self):
        return self.positions.shape[1]

    def visible_positions(self):
        return self.positions[self.visible]


@dataclass
class KeypointDataset:
    """All tracks of one recording, each DIMS[unit]-D, plus the timing metadata."""

    tracks: dict
    frame_rate: float
    frame_count: int
    unit: str

    def __post_init__(self):
        _axes_of(self.unit)
        if not 0 < self.frame_rate < math.inf:
            raise SchemaError(f"frame_rate must be finite and positive, got {self.frame_rate}")
        if not math.isfinite((self.frame_count - 1) / self.frame_rate):
            raise SchemaError(f"frame_rate {self.frame_rate} puts the last frame at t = inf")
        for kid, track in self.tracks.items():
            if kid != track.id:
                raise SchemaError(f"track map key {kid} != track id {track.id}")
            if track.id not in KEYPOINT_NAMES:
                raise SchemaError(f"keypoint id {track.id} out of range 1-23")
            if track.name != KEYPOINT_NAMES[track.id]:
                raise SchemaError(
                    f"keypoint {track.id} named {track.name!r}, "
                    f"expected {KEYPOINT_NAMES[track.id]!r}")
            if track.dim != DIMS[self.unit]:
                raise _wrong_dim(track.id, track.dim, self.unit)
            if len(track.frames) and (track.frames[0] < 0 or track.frames[-1] >= self.frame_count):
                raise SchemaError(f"track {track.id}: frame index outside "
                                  f"0..{self.frame_count - 1}")
            size = np.abs(track.visible_positions())
            if not (size <= MAX_COORDINATE).all():  # NaN fails the test too
                why = "is NaN" if np.isnan(size).any() else \
                    f"beyond MAX_COORDINATE = {MAX_COORDINATE:g}"
                raise SchemaError(f"track {track.id}: visible coordinate {why}")


def _axes_of(unit):
    if not (isinstance(unit, str) and unit in DIMS):  # a list or dict is unhashable
        raise SchemaError(f"unknown unit {unit!r}")
    return _AXES[unit]


def _wrong_dim(kid, dim, unit):
    return SchemaError(f"track {kid}: {dim}D positions in a {unit} dataset, "
                       f"which is {DIMS[unit]}D")


@dataclass(frozen=True)
class PlanarCalibration:
    """Single-plane pixel-to-meter map; z of the world plane is 0."""

    scale: float
    origin_pixel: tuple

    def __post_init__(self):
        if not (0 < self.scale < math.inf and all(map(math.isfinite, self.origin_pixel))):
            raise SchemaError("scale must be finite and positive, the origin finite")


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

    CSV needs frame_rate and one of the two _CSV_HEADERS: with z in meters, else pixels;
    JSON carries frame_rate, frame_count and unit itself. Missing (frame,
    keypoint) rows become invisible samples.
    """
    if format == "json":
        return _load_json(source)
    if format != "csv":
        raise ValueError(f"unknown format {format!r}")
    if frame_rate is None:
        raise SchemaError("frame_rate is required for CSV input (never inferred)")
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as f:
            return _load_csv(f, frame_rate)
    return _load_csv(source, frame_rate)


def _load_csv(source, frame_rate):
    """A CSV dataset from an open text or binary stream."""
    if isinstance(source, (io.RawIOBase, io.BufferedIOBase)) and source.seekable():
        start, text = source.tell(), io.TextIOWrapper(source, encoding="utf-8-sig")
        try:  # parsed in read blocks, so its text is never held; strict, as _as_text
            return _parse_csv(chain.from_iterable(_quotes_closed(
                traj._line_blocks(text))), frame_rate, _refused)
        except (ValueError, BiorightError):
            source.seek(start)  # parsed again whole, as a stream, to name the refusal
        finally:
            text.detach()
    lines = traj._as_text(source).split("\n")
    return _parse_csv(chain.from_iterable(_quotes_closed(iter([lines]))), frame_rate,
                      lambda: lines)


def _refused():
    """all_lines() of a parse in read blocks, which leaves naming a refusal to
    a parse of the whole text: bad UTF-8 or a NUL anywhere outranks it."""
    raise ValueError("refused")


def _quotes_closed(blocks):
    """The header, then the data lines by block; a data line that leaves a quoted
    field open, which numpy would join to the next, raises ValueError."""
    lines = next(blocks)
    yield lines[:1]  # the header, which csv.reader reads alone
    for lines in chain([lines[1:]], blocks):
        if '"' in "".join(lines) and any(map(_open_quote, lines)):
            raise ValueError("quoted field not closed")
        yield lines


def _open_quote(line):
    """Whether csv.reader, as numpy, would read past the line's end in a quoted field."""
    return '"' in line and len(list(csv.reader([line, ""]))) == 1


def _parse_csv(lines, frame_rate, all_lines):
    """A dataset from an iterator over a tracker CSV's lines without their
    "\\n"; all_lines() lists the same lines, only on a refusal."""
    header = next(csv.reader([next(lines)]))
    unit = next((u for u, names in _CSV_HEADERS.items() if names == header), None)
    if unit is None:
        if all_lines() == [""]:
            raise EmptyDataset("no header row")
        raise ParseError(f"unexpected header {header!r}")
    dim = DIMS[unit]
    dtype = np.dtype([("frame", "i8"), ("id", "i8"), ("name", "U19"),
                      ("coords", "f8", (dim,)), ("visible", "U2")])
    try:
        rows = _parse_rows(lines, dtype)
    except ValueError:
        lineno, line = _first_bad(_data_lines(all_lines()), dtype)
        got = len(next(csv.reader([line])))
        why = "quoted field not closed on its line" if _open_quote(line) \
            else f"expected {4 + dim} fields, got {got}" if got != 4 + dim \
            else f"bad number in {line!r}"
        raise ParseError(f"line {lineno}: {why}") from None
    if not len(rows):
        raise EmptyDataset("no data rows")
    frame, kid, name, coords, visible = (rows[f] for f in dtype.names)
    known = (kid >= 1) & (kid <= len(KEYPOINT_NAMES))
    order = np.lexsort((frame, kid))  # stable: a repeat sorts after its first row
    new_id = np.diff(kid[order]) != 0
    repeat = np.zeros(len(rows), dtype=bool)
    repeat[order[1:]] = ~new_id & (np.diff(frame[order]) == 0)
    misnamed = np.zeros(len(rows), dtype=bool)  # built without a (rows,) array of names
    for of_k in np.split(order, np.flatnonzero(new_id) + 1):  # the rows of one id
        k = int(kid[of_k[0]])
        if k in KEYPOINT_NAMES:
            misnamed[of_k] = name[of_k] != KEYPOINT_NAMES[k]
    faults = (  # in the order the checks apply to one row
        (~known, SchemaError, "keypoint id {id} out of range 1-23"),
        (misnamed, SchemaError, "unknown keypoint name {name!r} for id {id}"),
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
        raise error(f"line {_data_lines(all_lines())[r][0]}: {message.format_map(fields)}")
    frame_count = 1 + int(frame.max())
    names = {k: KEYPOINT_NAMES[k] for k in np.flatnonzero(np.bincount(kid)).tolist()}
    tracks = _scatter(names, kid, frame, coords, visible == "1", frame_count)
    return KeypointDataset(tracks, float(frame_rate), frame_count, unit)


def _parse_rows(lines, dtype):
    """CSV data rows from an iterable of lines, in one pass."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        # older numpy reads "1.0" into an int field with a DeprecationWarning
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(lines, dtype=dtype, delimiter=",", quotechar='"',
                          comments=None, ndmin=1)


def _data_lines(lines):
    """(line number, line) of each non-blank line after the header."""
    return [(n, line) for n, line in enumerate(lines[1:], start=2) if line]


def _first_bad(numbered, dtype):
    """The first (line number, line) that leaves a quoted field open or that
    _parse_rows rejects, by bisection of the lines before the first open one."""
    lo, hi = 0, next((i + 1 for i, (_, ln) in enumerate(numbered) if _open_quote(ln)),
                     len(numbered))  # the first bad line is in numbered[lo:hi]
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
    if frame_count < 0:
        raise SchemaError(f"frame_count must not be negative, got {frame_count}")
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
    try:  # each track's sample dicts become arrays as soon as json has decoded them
        obj = json.loads(_as_text(source), object_hook=_json_samples)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: too deep
        raise ParseError(f"bad JSON: {exc}") from None
    names, samples, frame_rate, frame_count, unit = _json_tracks(obj)
    kid = np.repeat(list(names), [len(frames) for frames, _, _ in samples])
    frames, positions, visible = map(np.concatenate, zip(*samples))
    del obj, samples  # each track's own arrays: the dataset is built after they are gone
    tracks = _scatter(names, kid, frames, positions.reshape(-1, DIMS[unit]), visible, frame_count)
    return KeypointDataset(tracks, frame_rate, frame_count, unit)


def _json_samples(obj):
    """json.loads object_hook: a track's non-empty "samples" list becomes _json_track's
    arrays on the unit its first sample suggests, or stays as decoded if they fail."""
    if "id" in obj and type(obj.get("samples")) is list:
        with suppress(Exception):  # an empty list too (IndexError): _json_tracks builds it
            axes = _AXES["meter" if "z" in obj["samples"][0] else "pixel"]
            obj["samples"] = _json_track(obj["id"], obj["samples"], axes)
    return obj


def _json_tracks(obj):
    """(names, (frames, positions, visible) per track, frame_rate, frame_count, unit) of
    a decoded JSON document, checked in order: top level, unit, each track on its axes."""
    for key in ("frame_rate", "frame_count", "unit", "tracks"):
        if not isinstance(obj, dict) or key not in obj:
            raise ParseError(f"missing top-level key {key!r}")
    if type(obj["tracks"]) is not list:  # null, 0 and {} are no empty list
        raise ParseError("tracks must be a JSON list")
    if not obj["tracks"]:
        raise EmptyDataset("no tracks")
    if type(obj["frame_count"]) is not int:  # bool, 2.5 and 1e400 are not counts
        raise ParseError(f"frame_count must be a JSON integer, got {obj['frame_count']!r}")
    if type(obj["frame_rate"]) not in (int, float):  # true and "1000" are not rates
        raise ParseError(f"frame_rate must be a JSON number, got {obj['frame_rate']!r}")
    try:
        frame_rate = float(obj["frame_rate"])
    except OverflowError:  # an integer beyond the largest float, about 1.8e308
        raise ParseError("frame_rate must be a JSON number that fits a float") from None
    unit, names, samples = obj["unit"], {}, []
    axes = _axes_of(unit)
    try:
        for t in obj["tracks"]:
            kid, name, track = t["id"], t["name"], t["samples"]
            if kid in names:
                raise SchemaError(f"duplicate keypoint id {kid}")
            if kid not in KEYPOINT_NAMES or type(kid) is not int:  # true is no id
                raise SchemaError(f"keypoint id {kid!r} out of range 1-23")
            if type(track) is not tuple:  # left as decoded by the hook
                track = _json_track(kid, track, axes)
            elif track[0] != axes:  # built by the hook on the other unit's axes
                raise _wrong_dim(kid, len(track[0]), unit)
            names[kid] = name
            samples.append(track[1:])
    except (KeyError, TypeError, OverflowError) as exc:
        if exc.args == ("z",):  # itemgetter's, on a sample without z in meters
            raise _wrong_dim(kid, 2, unit) from None
        raise ParseError(f"malformed track or sample, missing or bad {exc}") from None
    return names, samples, frame_rate, obj["frame_count"], unit


def _json_track(kid, track, axes):
    """(axes, frames, positions flattened, visible) of one JSON track's samples on `axes`."""
    if type(track) is not list:
        raise ParseError(f"track {kid}: samples must be a JSON list")
    frames, visible = [s["frame"] for s in track], [s["visible"] for s in track]
    if not {*map(type, frames)} <= {int}:
        raise ParseError(f"track {kid}: frame must be a JSON integer")
    if not ({*map(type, visible)} <= {bool, int} and {*visible} <= {0, 1}):
        raise ParseError(f"track {kid}: visible must be true, false, 0 or 1")
    frames, visible = np.array(frames, dtype=int), np.array(visible, dtype=bool)
    values = [*chain.from_iterable(map(operator.itemgetter(*axes), track))]
    if len(axes) == 2 and any("z" in s for s in track):  # a sample with z, in pixels
        raise _wrong_dim(kid, 3, "pixel")
    if not {*map(type, values)} <= {int, float, type(None)}:  # "1.5" and true are not
        raise ParseError(f"track {kid}: coordinates must be JSON numbers or null")
    positions = np.array(values, dtype=float)  # None is NaN
    if np.any(np.diff(frames) <= 0):
        raise SchemaError(f"track {kid}: frame indices not strictly increasing")
    if not np.isfinite(positions.reshape(-1, len(axes))[visible]).all():
        raise ParseError(f"track {kid}: non-finite coordinate on a visible sample")
    return axes, frames, positions, visible


def save_dataset(dataset, stream, format="csv"):
    """Write a dataset back out; inverse of load_dataset on valid data."""
    if format == "csv":
        stream.write(",".join(_CSV_HEADERS[dataset.unit]) + "\n")
        for kid in sorted(dataset.tracks):
            track = dataset.tracks[kid]
            # the name is one of KEYPOINT_NAMES: no comma, quote or %
            row = f"%d,{kid},{track.name}" + ",%r" * DIMS[dataset.unit] + ",%d\n"
            coords = np.where(track.visible[:, None], track.positions, np.nan)
            stream.writelines(format_rows(row, (track.frames, *coords.T, track.visible)))
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
    positions = np.full((dataset.frame_count, len(ids), DIMS[dataset.unit]), np.nan)
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
    Returns (new dataset, SwapEvents sorted by (frame_start, from_id)).
    """
    if dataset.unit != "pixel":
        raise SchemaError("re-association is defined for 2D datasets, in pixels")
    ids = sorted(dataset.tracks)
    positions, visible = dense_stack(dataset, ids)
    last, f = np.full((len(ids), 2), np.nan), 0  # NaN: no visible sample yet
    # a frame's events come in id order, so episodes open in the order returned
    events, latest = [], {}  # latest: (from, to, kind) -> its newest episode
    while f < dataset.frame_count:
        # held[r]: each track's last visible position before block frame r
        pos, vis = positions[f:f + _SCAN_BLOCK], visible[f:f + _SCAN_BLOCK]
        ext = np.concatenate([last[None], pos])  # row 0 is `last`, row i + 1 frame i
        seen = np.arange(len(ext))[:, None] * np.vstack([np.ones(len(ids), bool), vis])
        held = ext[np.maximum.accumulate(seen), np.arange(len(ids))]
        hit = (vis & (np.linalg.norm(pos - held[:-1], axis=-1) > max_jump)).any(axis=1)
        g = int(hit.argmax()) if hit.any() else len(pos)
        last, f, offending = held[g], f + g, g < len(pos)
        while offending and f < dataset.frame_count:  # frame by frame until a clean one
            pos, vis = positions[f], visible[f]
            jump = np.linalg.norm(pos - last, axis=1)
            offenders = np.flatnonzero(vis & (jump > max_jump)).tolist()
            found = []  # (from_id, to_id, kind) of this frame
            if len(offenders) >= 2:
                free = list(offenders)
                # pos[offenders] is a copy, so the writes below keep each det
                for j, det in zip(offenders, pos[offenders]):
                    # the distance as np.linalg.norm computes it, without its overhead
                    target = min(free, key=lambda t: (
                        math.sqrt((d := det - last[t]).dot(d)), t))
                    free.remove(target)
                    if target != j:
                        pos[target] = det
                        found.append((ids[j], ids[target], "swap"))
            elif len(offenders) == 1:
                found.append((ids[offenders[0]], ids[offenders[0]], "jump"))
            for key in found:
                episode = latest.get(key)
                if episode is not None and episode[3] == f - 1:
                    episode[3] = f
                else:
                    latest[key] = episode = [key[0], key[1], f, f, key[2]]
                    events.append(episode)
            last[vis] = pos[vis]
            f, offending = f + 1, bool(offenders)
    tracks = {kid: replace(dataset.tracks[kid],
                           positions=positions[dataset.tracks[kid].frames, j])
              for j, kid in enumerate(ids)}
    return replace(dataset, tracks=tracks), [SwapEvent(*episode) for episode in events]


def interpolate_gaps(track, max_gap):
    """Linearly fill invisible runs of length <= max_gap frames between
    visible samples, weighted by frame index; filled samples are marked
    interpolated. Longer runs and leading/trailing runs are untouched."""
    if int(track.visible.sum()) < 2:
        raise TooSparse(f"track {track.id}: need >= 2 visible samples")
    frames, visible, index = track.frames, track.visible, np.arange(len(track.frames))
    # each sample's previous and next visible sample; an end run gets an invisible one
    a = np.maximum.accumulate(np.where(visible, index, 0))
    b = np.minimum.accumulate(np.where(visible, index, index[-1])[::-1])[::-1]
    fill = ~visible & visible[a] & visible[b] & (frames[b] - frames[a] <= max_gap + 1)
    a, b = a[fill], b[fill]
    w = ((frames[fill] - frames[a]) / (frames[b] - frames[a]))[:, None]
    positions = track.positions.copy()
    positions[fill] = (1 - w) * track.positions[a] + w * track.positions[b]
    return replace(track, positions=positions, visible=visible | fill,
                   interpolated=track.interpolated | fill)


def pixel_to_world(dataset, calib):
    """Map a 2D pixel dataset into a planar world frame in meters.

    The world x-y plane is the image plane, with y flipped because the
    image y axis points down; z = 0 for every point.
    """
    if dataset.unit != "pixel":
        raise AlreadyWorldUnits("dataset already in meters")
    ox, oy = calib.origin_pixel
    gain = (calib.scale, -calib.scale)
    tracks = {}
    for kid, track in dataset.tracks.items():
        world = np.zeros((len(track.frames), 3))
        with np.errstate(over="ignore"):  # the dataset refuses a visible inf
            world[:, :2] = (track.positions - (ox, oy)) * gain
        world[~track.visible] = np.nan
        tracks[kid] = replace(track, positions=world)
    return replace(dataset, tracks=tracks, unit="meter")
