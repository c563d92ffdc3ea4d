import io

import numpy as np
import pytest

from bioright import track_quality as tq
from bioright.errors import TooSparse
from bioright.keypoints import KEYPOINT_NAMES
from bioright.track_quality import StabilityCategory

from conftest import dataset_from_poses, load_csv, csv_text, REST_POSE
from test_keypoints import make_track


def occlusion_pattern_dataset(frame_count=140, gap=60, n_visible=31):
    """23 tracks mirroring the published occlusion pattern: one long
    dropout per track and visibility around 22% of frames."""
    rng = np.random.default_rng(41)
    visible = {}
    for kid in KEYPOINT_NAMES:
        vis = np.zeros(frame_count, dtype=bool)
        head = n_visible // 2
        vis[:head] = True
        start = head + gap
        vis[start:start + (n_visible - head)] = True
        visible[kid] = vis
    poses = []
    for f in range(frame_count):
        poses.append({kid: np.array(REST_POSE[kid]) + rng.normal(scale=0.001, size=3)
                      for kid in KEYPOINT_NAMES})
    return dataset_from_poses(poses, visible=visible)


class TestAverageMovement:
    def test_stationary_zero(self):
        track = make_track([(5, 5)] * 10)
        assert tq.average_movement(track) == 0.0

    def test_constant_velocity(self):
        track = make_track([(3.0 * i, 0.0) for i in range(10)])
        assert tq.average_movement(track) == pytest.approx(3.0)

    def test_published_style_mean(self):
        # steps alternating 2 and 3.34 pixels: mean 2.67
        positions = [(0.0, 0.0)]
        for i in range(10):
            dx = 2.0 if i % 2 == 0 else 3.34
            positions.append((positions[-1][0] + dx, 0.0))
        track = make_track(positions)
        assert tq.average_movement(track) == pytest.approx(2.67, abs=0.005)

    def test_gap_pairs_excluded(self):
        track = make_track([(0, 0), (1, 0), (100, 0), (101, 0)],
                           visible=[1, 1, 0, 1])
        # only the 0->1 pair is consecutive-visible
        assert tq.average_movement(track) == pytest.approx(1.0)

    def test_too_sparse(self):
        track = make_track([(0, 0), (1, 1)], visible=[1, 0])
        with pytest.raises(TooSparse):
            tq.average_movement(track)


class TestVisibility:
    def test_all_visible(self):
        track = make_track([(0, 0)] * 140)
        assert tq.visibility(track, 140) == 100.0

    def test_31_of_140(self):
        visible = np.zeros(140, dtype=bool)
        visible[:31] = True
        track = make_track(np.zeros((140, 2)), visible=visible)
        assert tq.visibility(track, 140) == pytest.approx(100 * 31 / 140)
        assert tq.visibility(track, 140) == pytest.approx(22.14, abs=0.005)

    def test_none_visible(self):
        track = make_track(np.zeros((5, 2)), visible=[0] * 5)
        assert tq.visibility(track, 5) == 0.0


class TestNormalizedMovement:
    """The report's norm_movement column: movement over the dataset peak."""

    def _norm(self, movements):
        tracks = {}
        for kid, speed in movements.items():
            tracks[kid] = make_track([(speed * i, 0.0) for i in range(10)],
                                     kid=kid)
        from bioright.keypoints import KeypointDataset
        rows = tq.stability_report(KeypointDataset(tracks, 100.0, 10, "pixel"))
        return {row.id: row.metrics.normalized_movement for row in rows}

    def test_single_track(self):
        assert self._norm({1: 2.5}) == {1: 1.0}

    def test_published_maximum(self):
        norm = self._norm({1: 1.0, 20: 4.35})
        assert norm[20] == 1.0
        assert norm[1] == pytest.approx(1.0 / 4.35, abs=1e-4)
        assert norm[1] == pytest.approx(0.2299, abs=0.0001)

    def test_all_equal(self):
        assert all(v == 1.0 for v in self._norm({1: 2.0, 2: 2.0, 3: 2.0}).values())


class TestMaxGap:
    def test_fully_visible(self):
        assert tq.max_gap_length(make_track([(0, 0)] * 5)) == 0

    def test_viiv_pattern(self):
        track = make_track(np.zeros((5, 2)), visible=[1, 0, 0, 0, 1])
        assert tq.max_gap_length(track) == 3

    def test_sixty_frame_dropout(self):
        visible = np.ones(140, dtype=bool)
        visible[30:90] = False
        track = make_track(np.zeros((140, 2)), visible=visible)
        assert tq.max_gap_length(track) == 60

    def test_trailing_run_counts(self):
        track = make_track(np.zeros((6, 2)), visible=[1, 1, 0, 0, 0, 0])
        assert tq.max_gap_length(track) == 4


class TestPositionVariance:
    def test_stationary_zero(self):
        assert tq.position_variance(make_track([(4, 4)] * 10)) == 0.0

    def test_two_points(self):
        assert tq.position_variance(make_track([(0, 0), (2, 0)])) == 1.0

    def test_isotropic_gaussian(self):
        rng = np.random.default_rng(43)
        track = make_track(rng.normal(scale=3.0, size=(10000, 2)))
        assert tq.position_variance(track) == pytest.approx(18.0, abs=1.0)


class TestDriftScore:
    def test_straight_line(self):
        assert tq.drift_score(make_track([(i, 0) for i in range(10)])) == 0.0

    def test_closed_loop(self):
        track = make_track([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)])
        assert tq.drift_score(track) == 1.0

    def test_half_ratio(self):
        # path 2, net 1 -> drift 0.5
        track = make_track([(0, 0), (1.5, 0), (1.0, 0)])
        assert tq.drift_score(track) == pytest.approx(0.5)

    def test_stationary_scores_zero(self):
        assert tq.drift_score(make_track([(2, 2)] * 5)) == 0.0


class TestClassify:
    def _metrics(self, **kw):
        base = dict(id=1, average_movement=1.0, normalized_movement=0.5,
                    visibility=100.0, max_gap_length=0,
                    position_variance=0.1, drift_score=0.0)
        base.update(kw)
        return tq.KeypointMetrics(**base)

    def test_long_gap_occluded(self):
        m = self._metrics(max_gap_length=56, visibility=22.0)
        assert tq.classify_stability(m, 140) is StabilityCategory.OCCLUDED

    def test_clean_track_stable(self):
        assert tq.classify_stability(self._metrics(), 140) is StabilityCategory.STABLE

    def test_drifting(self):
        m = self._metrics(visibility=80.0, drift_score=0.7, max_gap_length=5)
        assert tq.classify_stability(m, 140) is StabilityCategory.DRIFTING

    def test_low_visibility(self):
        m = self._metrics(visibility=40.0)
        assert tq.classify_stability(m, 140) is StabilityCategory.FREQUENTLY_OCCLUDED

    def test_moderate_by_drift(self):
        m = self._metrics(drift_score=0.4)
        assert tq.classify_stability(m, 140) is StabilityCategory.MODERATELY_STABLE

    def test_moderate_by_variance(self):
        m = self._metrics(position_variance=50.0)
        assert tq.classify_stability(m, 140, variance_median=10.0) \
            is StabilityCategory.MODERATELY_STABLE

    def test_deterministic(self):
        m = self._metrics(drift_score=0.65, visibility=80.0)
        a = tq.classify_stability(m, 140)
        b = tq.classify_stability(m, 140)
        assert a is b


class TestReport:
    def test_cardinality(self, rest_dataset):
        rows = tq.stability_report(rest_dataset)
        assert len(rows) == 23
        assert [r.id for r in rows] == list(range(1, 24))

    def test_occlusion_pattern_all_occluded(self):
        ds = occlusion_pattern_dataset()
        rows = tq.stability_report(ds)
        assert len(rows) == 23
        for row in rows:
            assert row.category is StabilityCategory.OCCLUDED
            assert row.metrics.visibility <= 33.8
            assert row.metrics.max_gap_length >= 45

    def test_sparse_track_gets_reason(self, rest_dataset):
        ds = rest_dataset
        ds.tracks[5].visible[:] = False
        ds.tracks[5].positions[:] = np.nan
        rows = tq.stability_report(ds)
        row = next(r for r in rows if r.id == 5)
        assert row.metrics is None and row.reason == "too_sparse"

    def test_csv_shape(self):
        ds = occlusion_pattern_dataset()
        rows = tq.stability_report(ds)
        buf = io.StringIO()
        tq.write_report_csv(rows, buf)
        lines = buf.getvalue().strip().split("\n")
        assert len(lines) == 24
        assert lines[0].startswith("keypoint_id,name,")
        assert lines[1].endswith("Occluded")


class TestInvariances:
    def _noisy_track(self, seed=47):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(60, 2)).cumsum(axis=0)

    def test_translation_invariance(self):
        positions = self._noisy_track()
        a = make_track(positions)
        b = make_track(positions + np.array([123.0, -45.0]))
        assert tq.average_movement(a) == pytest.approx(tq.average_movement(b))
        assert tq.position_variance(a) == pytest.approx(tq.position_variance(b))
        assert tq.drift_score(a) == pytest.approx(tq.drift_score(b))

    def test_scaling_behavior(self):
        positions = self._noisy_track(53)
        a = make_track(positions)
        b = make_track(positions * 3.0)
        assert tq.average_movement(b) == pytest.approx(3 * tq.average_movement(a))
        assert tq.drift_score(b) == pytest.approx(tq.drift_score(a))


class TestSparseAgreesWithDense:
    """Neck seen on frames {0, 1, 5, 6} of 7, one unit per frame."""

    SEEN = (0, 1, 5, 6)

    def _datasets(self):
        from test_keypoints import json_text, load_json
        csv_ds = load_csv(csv_text([(f, 1, float(f), 0.0, 1) for f in self.SEEN]))
        json_ds = load_json(json_text(
            {1: [(f, float(f), 0.0, True) for f in self.SEEN]}, 7))
        return csv_ds, json_ds

    def test_csv_and_json_agree(self):
        for ds in self._datasets():
            track = ds.tracks[1]
            assert tq.max_gap_length(track) == 3
            assert tq.average_movement(track) == pytest.approx(1.0)

    def test_report_bytes_agree(self):
        out = []
        for ds in self._datasets():
            buf = io.StringIO()
            tq.write_report_csv(tq.stability_report(ds), buf)
            out.append(buf.getvalue())
        assert out[0] == out[1]

    def test_hand_built_sparse_track(self):
        from bioright.keypoints import KeypointTrack
        sparse = KeypointTrack(1, "Neck", self.SEEN,
                               [(float(f), 0.0) for f in self.SEEN],
                               np.ones(4, dtype=bool))
        dense = self._datasets()[0].tracks[1]
        assert tq.max_gap_length(sparse) == tq.max_gap_length(dense) == 3
        assert tq.average_movement(sparse) == tq.average_movement(dense)
