"""Tracking-quality metrics and stability classification for keypoint
tracks: movement, visibility, gap structure, variance, drift, and a
five-level stability category."""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import TooSparse

#: Path length below which a track counts as stationary for drift scoring.
DRIFT_EPS = 1e-12

# Classification thresholds (decision ladder, evaluated in order).
OCCLUDED_GAP_FRACTION = 0.40
FREQ_OCCLUDED_VISIBILITY = 50.0
DRIFTING_SCORE = 0.6
MODERATE_SCORE = 0.3


class StabilityCategory(Enum):
    """Severity-ordered tracking quality classes."""

    STABLE = "Stable"
    MODERATELY_STABLE = "ModeratelyStable"
    DRIFTING = "Drifting"
    FREQUENTLY_OCCLUDED = "FrequentlyOccluded"
    OCCLUDED = "Occluded"


@dataclass
class KeypointMetrics:
    id: int
    average_movement: float
    normalized_movement: float
    visibility: float
    max_gap_length: int
    position_variance: float
    drift_score: float


@dataclass
class ReportRow:
    """One stability-report line; metrics is None when uncomputable."""

    id: int
    name: str
    metrics: KeypointMetrics = None
    category: StabilityCategory = None
    reason: str = None


def average_movement(track):
    """Mean Euclidean displacement over visible samples on consecutive
    frames; pairs spanning an invisible or absent frame are excluded."""
    vis = np.flatnonzero(track.visible)
    if len(vis) < 2:
        raise TooSparse(f"track {track.id}: need >= 2 visible samples")
    consecutive = np.diff(track.frames[vis]) == 1
    if not consecutive.any():
        raise TooSparse(f"track {track.id}: no consecutive visible pairs")
    steps = np.diff(track.positions[vis], axis=0)[consecutive]
    return float(np.mean(np.linalg.norm(steps, axis=1)))


def visibility(track, frame_count):
    """Percent of frames in which the keypoint is tracked."""
    if frame_count < 1:
        raise ValueError("frame_count must be >= 1")
    return 100.0 * float(track.visible.sum()) / frame_count


def max_gap_length(track):
    """Longest run of invisible frames from frame 0 to the track's last
    frame; leading/trailing runs count, and so do frames without a sample."""
    if not len(track.frames):
        return 0
    seen = np.concatenate(([-1], track.frames[track.visible], [track.frames[-1] + 1]))
    return int(np.diff(seen).max()) - 1


def position_variance(track):
    """Sum over coordinates of the population variance of visible positions."""
    pos = track.visible_positions()
    if len(pos) < 2:
        raise TooSparse(f"track {track.id}: need >= 2 visible samples")
    return float(np.sum(np.var(pos, axis=0)))


def drift_score(track):
    """1 - net displacement / path length over visible samples, in [0, 1].

    0 for perfectly directed motion, toward 1 for jitter with no net
    motion; stationary tracks score 0.
    """
    pos = track.visible_positions()
    if len(pos) < 3:
        raise TooSparse(f"track {track.id}: need >= 3 visible samples")
    steps = np.diff(pos, axis=0)
    path = float(np.sum(np.linalg.norm(steps, axis=1)))
    if path < DRIFT_EPS:
        return 0.0
    net = float(np.linalg.norm(pos[-1] - pos[0]))
    return float(np.clip(1.0 - net / path, 0.0, 1.0))


def classify_stability(m, frame_count, variance_median=math.inf):
    """Walk the decision ladder from worst to best category.

    variance_median is the dataset-wide median position variance; when
    omitted the variance clause cannot fire.
    """
    if m.max_gap_length >= OCCLUDED_GAP_FRACTION * frame_count:
        return StabilityCategory.OCCLUDED
    if m.visibility < FREQ_OCCLUDED_VISIBILITY:
        return StabilityCategory.FREQUENTLY_OCCLUDED
    if m.drift_score > DRIFTING_SCORE:
        return StabilityCategory.DRIFTING
    if m.drift_score > MODERATE_SCORE or m.position_variance > variance_median:
        return StabilityCategory.MODERATELY_STABLE
    return StabilityCategory.STABLE


def stability_report(dataset):
    """One ReportRow per keypoint, ordered by id.

    Movement is normalized by the dataset's peak (1 when the peak is 0) and
    variance compared with the median over every track that has one. A
    track without both, or too sparse for a drift score, gets a null-metric
    row with a reason code rather than aborting the report.
    """
    movement, variance = {}, {}
    for kid, track in dataset.tracks.items():
        for measure, values in ((average_movement, movement),
                                (position_variance, variance)):
            try:
                values[kid] = measure(track)
            except TooSparse:
                pass
    peak = max(movement.values(), default=0.0)
    variance_median = float(np.median(list(variance.values()))) if variance else math.inf
    rows = []
    for kid in sorted(dataset.tracks):
        track = dataset.tracks[kid]
        try:
            if kid not in movement or kid not in variance:
                raise TooSparse(f"track {kid}: no movement or no variance")
            m = KeypointMetrics(kid, movement[kid],
                                movement[kid] / peak if peak != 0.0 else 1.0,
                                visibility(track, dataset.frame_count),
                                max_gap_length(track), variance[kid],
                                drift_score(track))
        except TooSparse:
            rows.append(ReportRow(kid, track.name, reason="too_sparse"))
            continue
        cat = classify_stability(m, dataset.frame_count, variance_median)
        rows.append(ReportRow(kid, track.name, metrics=m, category=cat))
    return rows


def write_report_csv(rows, stream):
    """Emit the stability report: numbers at `%.9g`, the gap count at `%d`, a too-sparse
    row's metrics blank beside its reason. Variance is the population (not sample) one."""
    stream.write("keypoint_id,name,avg_movement,norm_movement,"
                 "visibility_pct,max_gap,pos_variance,drift_score,category\n")
    for row in rows:
        if row.metrics is None:
            stream.write("%d,%s,,,,,,,%s\n" % (row.id, row.name, row.reason))
        else:
            m = row.metrics
            stream.write("%d,%s,%.9g,%.9g,%.9g,%d,%.9g,%.9g,%s\n" % (
                row.id, row.name, m.average_movement, m.normalized_movement, m.visibility,
                m.max_gap_length, m.position_variance, m.drift_score, row.category.value))
