import io
import json

import numpy as np
import pytest

from bioright import keypoints
from bioright.errors import (AlreadyWorldUnits, EmptyDataset, ParseError,
                             SchemaError, TooSparse)
from bioright.keypoints import (KeypointTrack, PlanarCalibration,
                                interpolate_gaps, load_dataset,
                                pixel_to_world, reassociate_identities,
                                save_dataset)

from conftest import (REST_POSE, csv_text, dataset_from_poses, full_csv_dataset,
                      load_csv, rotate_pose)


def make_track(positions, visible=None, kid=1):
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    visible = np.ones(n, dtype=bool) if visible is None \
        else np.asarray(visible, dtype=bool)
    positions = positions.copy()
    positions[~visible] = np.nan
    return KeypointTrack(kid, keypoints.KEYPOINT_NAMES[kid],
                         np.arange(n), positions, visible)


class TestLoadCsv:
    def test_full_fixture(self):
        ds = load_csv(full_csv_dataset(140))
        assert ds.frame_count == 140
        assert len(ds.tracks) == 23
        assert ds.unit == "pixel"
        assert ds.frame_rate == 1000.0

    def test_header_only_is_empty(self):
        with pytest.raises(EmptyDataset):
            load_csv("frame,keypoint_id,keypoint_name,x,y,visible\n")

    def test_out_of_range_id(self):
        text = ("frame,keypoint_id,keypoint_name,x,y,visible\n"
                "0,24,Extra_Point,1.0,2.0,1\n")
        with pytest.raises(SchemaError):
            load_csv(text)

    def test_wrong_name_for_id(self):
        text = ("frame,keypoint_id,keypoint_name,x,y,visible\n"
                "0,1,Tail_End_Back,1.0,2.0,1\n")
        with pytest.raises(SchemaError):
            load_csv(text)

    def test_malformed_number(self):
        text = ("frame,keypoint_id,keypoint_name,x,y,visible\n"
                "0,1,Neck,abc,2.0,1\n")
        with pytest.raises(ParseError):
            load_csv(text)

    def test_duplicate_row(self):
        text = ("frame,keypoint_id,keypoint_name,x,y,visible\n"
                "0,1,Neck,1.0,2.0,1\n0,1,Neck,3.0,4.0,1\n")
        with pytest.raises(SchemaError):
            load_csv(text)

    def test_missing_rows_become_invisible(self):
        text = csv_text([(0, 1, 1.0, 2.0, 1), (2, 1, 3.0, 4.0, 1)])
        ds = load_csv(text)
        track = ds.tracks[1]
        assert ds.frame_count == 3
        assert list(track.visible) == [True, False, True]
        assert np.isnan(track.positions[1]).all()

    def test_frame_rate_required(self):
        with pytest.raises(SchemaError):
            load_dataset(io.StringIO(full_csv_dataset(5)), format="csv")


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_save_load_identity(self, fmt):
        ds = load_csv(csv_text([(0, 1, 1.25, -2.5, 1), (1, 1, 0.1, 0.2, 0),
                                (2, 1, 3.75, 4.125, 1),
                                (0, 21, 9.0, 9.5, 1), (2, 21, 8.0, 7.5, 1)]))
        buf = io.StringIO()
        save_dataset(ds, buf, format=fmt)
        kwargs = {"frame_rate": ds.frame_rate} if fmt == "csv" else {}
        again = load_dataset(io.StringIO(buf.getvalue()), format=fmt, **kwargs)
        assert again.frame_count == ds.frame_count
        for kid, track in ds.tracks.items():
            other = again.tracks[kid]
            assert np.array_equal(track.visible, other.visible)
            vis = track.visible
            assert np.array_equal(track.positions[vis], other.positions[vis])


class TestTrackArraysMatchPositions:
    """frames, visible and interpolated hold one entry per position; a track
    with three frames and two positions had built, and stability_report then
    died on a numpy IndexError."""

    @pytest.mark.parametrize("field, value", [
        ("frames", [0, 1, 2]), ("frames", [[0], [1]]), ("visible", [True] * 3),
        ("visible", True), ("interpolated", [False])])
    def test_refused(self, field, value):
        given = {"frames": [0, 1], "visible": [True, True], "interpolated": None,
                 field: value}
        with pytest.raises(SchemaError, match=rf"^track 1: {field} is not \(2,\)$"):
            KeypointTrack(1, "Neck", given["frames"], [[0, 0], [1, 1]],
                          given["visible"], given["interpolated"])


class TestInterpolateGaps:
    def test_single_gap_midpoint(self):
        track = make_track([(0, 0), (9, 9), (2, 2)], visible=[1, 0, 1])
        out = interpolate_gaps(track, max_gap=5)
        assert np.allclose(out.positions[1], (1, 1))
        assert out.visible[1] and out.interpolated[1]

    def test_long_gap_untouched(self):
        n = 140
        visible = np.ones(n, dtype=bool)
        visible[40:100] = False  # 60-frame gap
        positions = np.column_stack([np.arange(n, dtype=float),
                                     np.zeros(n)])
        track = make_track(positions, visible=visible)
        out = interpolate_gaps(track, max_gap=30)
        assert not out.visible[40:100].any()
        assert not out.interpolated.any()

    def test_fully_visible_unchanged(self):
        track = make_track([(0, 0), (1, 1), (2, 2)])
        out = interpolate_gaps(track, max_gap=10)
        assert np.array_equal(out.positions, track.positions)
        assert not out.interpolated.any()

    def test_too_sparse(self):
        track = make_track([(0, 0), (1, 1), (2, 2)], visible=[1, 0, 0])
        with pytest.raises(TooSparse):
            interpolate_gaps(track, max_gap=10)

    def test_visible_samples_never_change(self):
        rng = np.random.default_rng(23)
        positions = rng.normal(size=(50, 2))
        visible = rng.random(50) > 0.3
        visible[[0, -1]] = True
        track = make_track(positions, visible=visible)
        out = interpolate_gaps(track, max_gap=50)
        assert np.array_equal(out.positions[visible], positions[visible])


class TestPixelToWorld:
    def test_linear_map_y_down(self):
        ds = load_csv(csv_text([(0, 1, 100.0, 200.0, 1)]))
        calib = PlanarCalibration(scale=0.001, origin_pixel=(0.0, 0.0))
        world = pixel_to_world(ds, calib)
        assert world.unit == "meter"
        assert np.allclose(world.tracks[1].positions[0], (0.1, -0.2, 0.0))

    def test_origin_maps_to_zero(self):
        ds = load_csv(csv_text([(0, 1, 50.0, 50.0, 1)]))
        calib = PlanarCalibration(scale=0.002, origin_pixel=(50.0, 50.0))
        world = pixel_to_world(ds, calib)
        assert np.allclose(world.tracks[1].positions[0], (0.0, 0.0, 0.0))

    def test_round_trip_inverse(self):
        rng = np.random.default_rng(29)
        rows = [(f, 1, float(x), float(y), 1)
                for f, (x, y) in enumerate(rng.uniform(0, 1000, size=(20, 2)))]
        ds = load_csv(csv_text(rows))
        calib = PlanarCalibration(scale=0.0013, origin_pixel=(320.0, 240.0))
        world = pixel_to_world(ds, calib)
        back_x = world.tracks[1].positions[:, 0] / calib.scale + 320.0
        back_y = -world.tracks[1].positions[:, 1] / calib.scale + 240.0
        assert np.allclose(back_x, ds.tracks[1].positions[:, 0], atol=1e-9)
        assert np.allclose(back_y, ds.tracks[1].positions[:, 1], atol=1e-9)

    def test_collinearity_preserved(self):
        rows = [(0, 1, 0.0, 0.0, 1), (0, 2, 10.0, 20.0, 1),
                (0, 3, 20.0, 40.0, 1)]
        ds = load_csv(csv_text(rows))
        calib = PlanarCalibration(scale=0.01, origin_pixel=(3.0, 7.0))
        world = pixel_to_world(ds, calib)
        p = [world.tracks[k].positions[0] for k in (1, 2, 3)]
        cross = np.cross(p[1] - p[0], p[2] - p[0])
        assert np.linalg.norm(cross) < 1e-9

    def test_already_meters(self):
        ds = load_csv(csv_text([(0, 1, 1.0, 2.0, 1)]))
        world = pixel_to_world(ds, PlanarCalibration(1.0, (0, 0)))
        with pytest.raises(AlreadyWorldUnits):
            pixel_to_world(world, PlanarCalibration(1.0, (0, 0)))


class TestReassociate:
    def test_clean_dataset_no_swaps(self):
        ds = load_csv(full_csv_dataset(20))
        out, events = reassociate_identities(ds, max_jump=50.0)
        assert events == []
        for kid in ds.tracks:
            assert np.array_equal(out.tracks[kid].positions,
                                  ds.tracks[kid].positions)

    def test_swapped_labels_recovered(self):
        n = 30
        truth = {1: np.column_stack([np.linspace(0, 29, n), np.zeros(n)]),
                 21: np.column_stack([np.linspace(0, 29, n),
                                      np.full(n, 100.0)])}
        swapped = {1: truth[1].copy(), 21: truth[21].copy()}
        swapped[1][10:21] = truth[21][10:21]
        swapped[21][10:21] = truth[1][10:21]
        rows = []
        for f in range(n):
            for kid in (1, 21):
                rows.append((f, kid, swapped[kid][f][0], swapped[kid][f][1], 1))
        ds = load_csv(csv_text(rows))
        out, events = reassociate_identities(ds, max_jump=10.0)
        assert len(events) == 2
        assert {(e.from_id, e.to_id) for e in events} == {(1, 21), (21, 1)}
        assert all(e.frame_start == 10 and e.frame_end == 20 for e in events)
        assert np.allclose(out.tracks[1].positions, truth[1])
        assert np.allclose(out.tracks[21].positions, truth[21])

    def test_single_jump_kept_and_flagged(self):
        positions = np.zeros((10, 2))
        positions[5:] = (500.0, 0.0)
        rows = [(f, 1, positions[f][0], positions[f][1], 1) for f in range(10)]
        ds = load_csv(csv_text(rows))
        out, events = reassociate_identities(ds, max_jump=100.0)
        assert np.array_equal(out.tracks[1].positions, positions)
        assert len(events) == 1
        assert events[0].kind == "jump"
        assert events[0].from_id == events[0].to_id == 1

    def test_detection_multiset_preserved(self):
        rng = np.random.default_rng(31)
        rows = []
        for f in range(15):
            for kid in (1, 12, 21):
                x, y = rng.uniform(0, 100, size=2)
                rows.append((f, kid, x, y, 1))
        ds = load_csv(csv_text(rows))
        out, _ = reassociate_identities(ds, max_jump=5.0)
        for f in range(15):
            before = sorted(tuple(ds.tracks[k].positions[f]) for k in (1, 12, 21))
            after = sorted(tuple(out.tracks[k].positions[f]) for k in (1, 12, 21))
            assert np.allclose(before, after)


def json_text(tracks, frame_count, unit="pixel"):
    """Dataset JSON from {id: [(frame, x, y, visible), ...]}."""
    return json.dumps({
        "frame_rate": 1000.0, "frame_count": frame_count, "unit": unit,
        "tracks": [{"id": kid, "name": keypoints.KEYPOINT_NAMES[kid],
                    "samples": [{"frame": f, "x": x, "y": y, "visible": v}
                                for f, x, y, v in samples]}
                   for kid, samples in tracks.items()]})


def load_json(text):
    return load_dataset(io.StringIO(text), format="json")


class TestNonFiniteCsv:
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_visible_row_rejected_with_line(self, token):
        text = ("frame,keypoint_id,keypoint_name,x,y,visible\n"
                "0,1,Neck,1.0,2.0,1\n"
                f"1,1,Neck,3.0,{token},1\n")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(text)

    def test_invisible_nan_row_accepted(self):
        ds = load_csv(csv_text([(0, 1, 1.0, 2.0, 1), (1, 1, np.nan, np.nan, 0)]))
        assert list(ds.tracks[1].visible) == [True, False]


def test_csv_negative_frame_rejected():
    # a negative index used to wrap around onto the last frame
    with pytest.raises(SchemaError):
        load_csv(csv_text([(0, 1, 1.0, 2.0, 1), (2, 1, 3.0, 4.0, 1),
                           (-1, 1, 9.0, 9.0, 1)]))


class TestLoadJson:
    SPARSE = {1: [(0, 0.0, 0.0, True), (1, 1.0, 0.0, True),
                  (5, 5.0, 0.0, True), (6, 6.0, 0.0, True)]}

    def test_sparse_track_densified(self):
        track = load_json(json_text(self.SPARSE, 7)).tracks[1]
        assert list(track.frames) == list(range(7))
        assert list(track.visible) == [1, 1, 0, 0, 0, 1, 1]
        assert np.isnan(track.positions[2:5]).all()
        assert track.positions[5].tolist() == [5.0, 0.0]

    def test_same_dataset_as_csv(self):
        rows = [(f, kid, x, y, int(v)) for kid, samples in self.SPARSE.items()
                for f, x, y, v in samples]
        a, b = load_csv(csv_text(rows)), load_json(json_text(self.SPARSE, 7))
        assert np.array_equal(a.tracks[1].frames, b.tracks[1].frames)
        assert np.array_equal(a.tracks[1].visible, b.tracks[1].visible)
        assert np.array_equal(a.tracks[1].positions, b.tracks[1].positions,
                              equal_nan=True)

    def test_reassociate_sparse_json(self):
        # frames 5-7 carry each other's labels; each track skips one frame
        y = {1: [100.0 if 5 <= f <= 7 else 0.0 for f in range(12)],
             21: [0.0 if 5 <= f <= 7 else 100.0 for f in range(12)]}
        tracks = {1: [(f, float(f), y[1][f], True) for f in range(12) if f != 3],
                  21: [(f, float(f), y[21][f], True) for f in range(12) if f != 8]}
        out, events = reassociate_identities(load_json(json_text(tracks, 12)),
                                             max_jump=10.0)
        assert {(e.from_id, e.to_id) for e in events} == {(1, 21), (21, 1)}
        assert np.allclose(out.tracks[1].positions[:, 1][out.tracks[1].visible], 0.0)

    @pytest.mark.parametrize("drop", ["id", "name", "samples"])
    def test_missing_track_key(self, drop):
        doc = json.loads(json_text(self.SPARSE, 7))
        del doc["tracks"][0][drop]
        with pytest.raises(ParseError):
            load_json(json.dumps(doc))

    @pytest.mark.parametrize("drop", ["frame", "x", "y", "visible"])
    def test_missing_sample_key(self, drop):
        doc = json.loads(json_text(self.SPARSE, 7))
        del doc["tracks"][0]["samples"][2][drop]
        with pytest.raises(ParseError):
            load_json(json.dumps(doc))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), None])
    def test_non_finite_visible_sample(self, value):
        with pytest.raises(ParseError, match="non-finite"):
            load_json(json_text({1: [(0, 1.0, 2.0, True), (1, value, 2.0, True)]}, 2))

    def test_non_finite_invisible_sample_accepted(self):
        ds = load_json(json_text({1: [(0, 1.0, 2.0, True), (1, None, None, False)]}, 2))
        assert list(ds.tracks[1].visible) == [True, False]

    @pytest.mark.parametrize("value", ["a", "", [1.0], [], {}, {"x": 1.0}, "1.5", True,
                                       False],
                             ids=["str", "empty_str", "list", "empty_list", "object",
                                  "object_with_x", "numeric_str", "true", "false"])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_coordinate_not_a_number(self, axis, value):
        doc = json.loads(json_text(self.SPARSE, 7))
        doc["tracks"][0]["samples"][2][axis] = value
        with pytest.raises(ParseError, match="^track 1: coordinates must be JSON numbers"):
            load_json(json.dumps(doc))

    def test_coordinates_all_lists(self):
        # lists of one length, which numpy would stack into a third axis
        text = json_text({1: [(0, [1.0], [2.0], True), (1, [3.0], [4.0], True)]}, 2)
        with pytest.raises(ParseError, match="^track 1: coordinates must be JSON numbers"):
            load_json(text)

    @pytest.mark.parametrize("frame", [-1, 7])
    def test_frame_outside_frame_count(self, frame):
        with pytest.raises(SchemaError):
            load_json(json_text({1: [(frame, 1.0, 2.0, True)]}, 7))


class TestJsonIntegerFields:
    """frame_count and frame are JSON integers and visible is true, false, 0
    or 1, as the CSV demands: nothing is rounded, truncated or overflows."""

    TRACK = {1: [(0, 1.0, 2.0, True), (2, 3.0, 4.0, True)]}

    @pytest.mark.parametrize("token", ["1e400", "Infinity", "2.5", "3.0", "true",
                                       '"3"', "null"])
    def test_frame_count(self, token):
        text = json_text(self.TRACK, 3).replace('"frame_count": 3',
                                                f'"frame_count": {token}')
        with pytest.raises(ParseError, match="frame_count must be a JSON integer"):
            load_json(text)

    @pytest.mark.parametrize("frame", [1.5, 1.0, True, "1", None])
    def test_frame(self, frame):
        doc = json.loads(json_text(self.TRACK, 3))
        doc["tracks"][0]["samples"][0]["frame"] = frame
        with pytest.raises(ParseError, match="frame must be a JSON integer"):
            load_json(json.dumps(doc))

    def test_id_true_refused(self):
        # true == 1 and isinstance(True, int) hold, but true is no JSON integer
        doc = json.loads(json_text(self.TRACK, 3))
        doc["tracks"][0]["id"] = True
        with pytest.raises(SchemaError, match="^keypoint id True out of range 1-23$"):
            load_json(json.dumps(doc))

    def test_frame_beyond_int64(self):
        doc = json.loads(json_text(self.TRACK, 3))
        doc["tracks"][0]["samples"][1]["frame"] = 10 ** 30
        with pytest.raises(ParseError):
            load_json(json.dumps(doc))

    @pytest.mark.parametrize("visible", ["0", "1", 2, -1, 1.0, None, [1]])
    def test_visible_rejected(self, visible):
        doc = json.loads(json_text(self.TRACK, 3))
        doc["tracks"][0]["samples"][1]["visible"] = visible
        with pytest.raises(ParseError, match="visible must be true, false, 0 or 1"):
            load_json(json.dumps(doc))

    @pytest.mark.parametrize("visible, seen", [(True, True), (1, True),
                                               (False, False), (0, False)])
    def test_visible_accepted(self, visible, seen):
        doc = json.loads(json_text(self.TRACK, 3))
        doc["tracks"][0]["samples"][1]["visible"] = visible
        assert load_json(json.dumps(doc)).tracks[1].visible.tolist() == \
            [True, False, seen]


class TestJsonFrameRateIsANumber:
    """frame_rate is a JSON number: true, "1000" and null are not rates."""

    @pytest.mark.parametrize("token", ["true", "false", '"1000"', "null", "[1000]", "{}",
                                       pytest.param("1" + "0" * 400, id="1e400_integer")])
    def test_rejected(self, token):
        text = json_text({1: [(0, 1.0, 2.0, True)]}, 1).replace(
            '"frame_rate": 1000.0', f'"frame_rate": {token}')
        with pytest.raises(ParseError, match="frame_rate must be a JSON number"):
            load_json(text)

    @pytest.mark.parametrize("token, rate", [("1000", 1000.0), ("1000.0", 1000.0),
                                             ("2.5e2", 250.0)])
    def test_accepted_as_float(self, token, rate):
        text = json_text({1: [(0, 1.0, 2.0, True)]}, 1).replace(
            '"frame_rate": 1000.0', f'"frame_rate": {token}')
        got = load_json(text).frame_rate
        assert type(got) is float and got == rate


class TestScalarsFiniteAndPositive:
    @pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_frame_rate(self, rate):
        with pytest.raises(SchemaError, match="frame_rate must be finite and positive"):
            load_csv(csv_text([(0, 1, 1.0, 2.0, 1)]), frame_rate=rate)
        with pytest.raises(SchemaError, match="frame_rate must be finite and positive"):
            load_json(json_text({1: [(0, 1.0, 2.0, True)]}, 1).replace(
                '"frame_rate": 1000.0', f'"frame_rate": {json.dumps(rate)}'))

    @pytest.mark.parametrize("scale, origin", [
        (np.nan, (0.0, 0.0)), (np.inf, (0.0, 0.0)), (0.0, (0.0, 0.0)),
        (1e-3, (np.nan, 0.0)), (1e-3, (0.0, -np.inf))])
    def test_calibration(self, scale, origin):
        with pytest.raises(SchemaError, match="scale must be finite and positive"):
            PlanarCalibration(scale, origin)


class TestDenseStack:
    def test_scatters_frames_and_marks_absent(self):
        sparse = KeypointTrack(1, "Neck", [1, 3], [[1.0, 2.0], [3.0, 4.0]],
                               [True, True])
        ds = keypoints.KeypointDataset({1: sparse}, 1000.0, 5, "pixel")
        positions, visible = keypoints.dense_stack(ds, (21, 1))
        assert positions.shape == (5, 2, 2) and visible.shape == (5, 2)
        assert visible[:, 0].tolist() == [False] * 5
        assert visible[:, 1].tolist() == [False, True, False, True, False]
        assert positions[3, 1].tolist() == [3.0, 4.0]
        assert np.isnan(positions[[0, 2, 4], 1]).all()


class TestInterpolateSparse:
    def test_weights_by_frame_index(self):
        # samples on frames 0, 5 and 6: frame 5 lies 5/6 of the way along
        track = KeypointTrack(1, "Neck", [0, 5, 6],
                              [[0.0, 0.0], [np.nan, np.nan], [6.0, 12.0]],
                              [True, False, True])
        out = interpolate_gaps(track, max_gap=10)
        assert out.positions[1].tolist() == [5.0, 10.0]
        assert out.visible[1] and out.interpolated[1]

    def test_gap_length_counts_frames(self):
        # one invisible sample, but a 5-frame gap: longer than max_gap 3
        track = KeypointTrack(1, "Neck", [0, 5, 6],
                              [[0.0, 0.0], [np.nan, np.nan], [6.0, 12.0]],
                              [True, False, True])
        out = interpolate_gaps(track, max_gap=3)
        assert not out.visible[1] and not out.interpolated.any()

    def test_sparse_agrees_with_dense(self):
        sparse = KeypointTrack(1, "Neck", [0, 2, 3, 7],
                               [[0.0, 1.0], [np.nan, np.nan], [np.nan, np.nan],
                                [7.0, 8.0]], [True, False, False, True])
        dense = make_track(np.column_stack([np.arange(8.0), np.arange(8.0) + 1]),
                           visible=[1, 0, 0, 0, 0, 0, 0, 1])
        out_sparse = interpolate_gaps(sparse, max_gap=6)
        out_dense = interpolate_gaps(dense, max_gap=6)
        assert np.allclose(out_sparse.positions, out_dense.positions[[0, 2, 3, 7]])


def test_save_dataset_without_tracks():
    ds = keypoints.KeypointDataset({}, 1000.0, 3, "pixel")
    buf = io.StringIO()
    save_dataset(ds, buf, format="csv")
    assert buf.getvalue() == "frame,keypoint_id,keypoint_name,x,y,visible\n"
    with pytest.raises(EmptyDataset):
        load_csv(buf.getvalue())


def yawing_lizard(frame_count=5):
    """3D meter dataset: the rest pose turning 0.1 rad per frame about z."""
    poses = []
    for f in range(frame_count):
        c, s = np.cos(0.1 * f), np.sin(0.1 * f)
        poses.append(rotate_pose(REST_POSE, np.array([[c, -s, 0.0], [s, c, 0.0],
                                                      [0.0, 0.0, 1.0]])))
    return dataset_from_poses(poses)


def assert_equal_datasets(got, want):
    assert (got.frame_rate, got.frame_count, got.unit) == \
        (want.frame_rate, want.frame_count, want.unit)
    assert list(got.tracks) == list(want.tracks)
    for kid, track in want.tracks.items():
        assert np.array_equal(got.tracks[kid].visible, track.visible)
        assert np.array_equal(got.tracks[kid].positions, track.positions,
                              equal_nan=True)


class TestSources:
    """Every kind of source gives the saved dataset and unit back; a 3D CSV
    reads back in meters."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_paths_and_streams_agree(self, tmp_path, fmt, dim):
        ds = load_csv(full_csv_dataset(6)) if dim == 2 else yawing_lizard()
        path = tmp_path / f"rec.{fmt}"
        with open(path, "w") as f:
            save_dataset(ds, f, format=fmt)
        kwargs = {"frame_rate": ds.frame_rate} if fmt == "csv" else {}
        with open(path) as text, open(path, "rb") as binary:
            loaded = [load_dataset(source, format=fmt, **kwargs)
                      for source in (str(path), path, text, binary)]
        for other in loaded:
            assert_equal_datasets(other, ds)

    def test_str_is_always_a_path(self):
        with pytest.raises(FileNotFoundError):
            load_dataset("frame,keypoint_id,keypoint_name,x,y,visible\n",
                         format="csv", frame_rate=1000.0)

    @pytest.mark.parametrize("kind", [str, lambda p: p], ids=["str", "PathLike"])
    def test_one_path_load_is_one_call(self, tmp_path, monkeypatch, kind):
        # a wrapper around the public name (a tracer's span) sees one load,
        # not the path load and a second, nested one for its open file
        path = kind(tmp_path / "rec.csv")
        with open(path, "w") as f:
            f.write(full_csv_dataset(3))
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return load_dataset(*args, **kwargs)
        monkeypatch.setattr(keypoints, "load_dataset", counted)
        assert keypoints.load_dataset(path, frame_rate=1000.0).frame_count == 3
        assert calls == [path]


class TestLineEndings:
    @pytest.mark.parametrize("newline", ["\r", "\r\n"], ids=["cr", "crlf"])
    def test_same_dataset_as_lf(self, tmp_path, newline):
        text = full_csv_dataset(8)
        want = load_csv(text)
        path = tmp_path / "rec.csv"
        path.write_bytes(text.replace("\n", newline).encode())
        assert_equal_datasets(load_csv(text.replace("\n", newline)), want)
        assert_equal_datasets(load_dataset(path, frame_rate=1000.0), want)


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark, as spreadsheet exports write it, is
    not part of the first header field or the JSON document."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_same_dataset_as_without(self, tmp_path, fmt):
        ds = load_csv(full_csv_dataset(6))
        plain, bom = tmp_path / f"plain.{fmt}", tmp_path / f"bom.{fmt}"
        with open(plain, "w") as f:
            save_dataset(ds, f, format=fmt)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        kwargs = {"frame_rate": ds.frame_rate} if fmt == "csv" else {}
        with open(bom, encoding="utf-8") as text, open(bom, "rb") as binary:
            assert text.read(1) == "\ufeff"
            text.seek(0)
            for source in (bom, text, binary):
                assert_equal_datasets(load_dataset(source, format=fmt, **kwargs), ds)

    def test_only_a_leading_mark_is_dropped(self):
        text = full_csv_dataset(2).replace("Neck", "\ufeffNeck", 1)
        with pytest.raises(SchemaError, match="unknown keypoint name"):
            load_csv("\ufeff" + text)


class TestJsonUnitMatchesAxes:
    def test_3d_pixel_rejected(self):
        doc = json.loads(json_text({1: [(0, 1.0, 2.0, True)]}, 1))
        doc["tracks"][0]["samples"][0]["z"] = 3.0
        with pytest.raises(SchemaError,
                           match="^track 1: 3D positions in a pixel dataset, which is 2D$"):
            load_json(json.dumps(doc))
        doc["unit"] = "meter"
        ds = load_json(json.dumps(doc))
        assert ds.unit == "meter"
        assert ds.tracks[1].positions.tolist() == [[1.0, 2.0, 3.0]]

    def test_meter_document_of_empty_tracks_is_3d(self):
        # no sample names the axes: the unit does, so the dataset is 3D and
        # goes through save_dataset and load_dataset as its pixel twin does
        for unit, dim in keypoints.DIMS.items():
            empty = KeypointTrack(5, "Mouth_Front_Bottom", [], np.empty((0, dim)), [])
            buf = io.StringIO()
            save_dataset(keypoints.KeypointDataset({5: empty}, 1000.0, 2, unit), buf,
                         format="json")
            assert '"samples": []' in buf.getvalue()
            ds = load_json(buf.getvalue())
            assert (ds.unit, ds.tracks[5].positions.shape) == (unit, (2, dim))
            assert not ds.tracks[5].visible.any()


class TestUnknownUnit:
    """A unit is one of the two strings: any other value, a list or an object
    too, is `SchemaError: unknown unit`, from JSON and by hand alike."""

    UNITS = {"Pixel": "Pixel", "empty_str": "", "null": None, "true": True, "0": 0,
             "2.5": 2.5, "empty_list": [], "list": [1], "empty_object": {}, "object": {"a": 1}}

    @pytest.mark.parametrize("unit", UNITS.values(), ids=list(UNITS))
    def test_json(self, unit):
        doc = json.loads(json_text({1: [(0, 1.0, 2.0, True)]}, 1))
        doc["unit"] = unit
        with pytest.raises(SchemaError) as info:
            load_json(json.dumps(doc))
        assert str(info.value) == f"unknown unit {unit!r}"

    @pytest.mark.parametrize("unit", UNITS.values(), ids=list(UNITS))
    def test_by_hand(self, unit):
        with pytest.raises(SchemaError) as info:
            keypoints.KeypointDataset({1: make_track([(1.0, 2.0)])}, 1000.0, 1, unit)
        assert str(info.value) == f"unknown unit {unit!r}"


class TestFrameBound:
    """A frame grid beyond MAX_FRAMES is refused before it is allocated."""

    def test_csv_frame(self):
        with pytest.raises(SchemaError, match="1000000000001 frames"):
            load_csv(csv_text([(0, 1, 1.0, 2.0, 1), (10**12, 1, 1.0, 2.0, 1)]))

    def test_json_frame_count(self):
        with pytest.raises(SchemaError, match=f"MAX_FRAMES = {keypoints.MAX_FRAMES}"):
            load_json(json_text({1: [(0, 1.0, 2.0, True)]}, 10**12))


class TestCoordinateBound:
    """A visible coordinate that is NaN, infinite or above MAX_COORDINATE in
    magnitude is refused, whichever way the dataset is built; invisible
    samples are left to other checks."""

    BOUND = keypoints.MAX_COORDINATE

    @pytest.mark.parametrize("value, refused", [
        (BOUND, False), (-BOUND, False), (np.nextafter(BOUND, np.inf), True),
        (-np.nextafter(BOUND, np.inf), True), (np.nan, True), (-np.inf, True),
        (np.inf, True)])
    def test_visible_sample(self, value, refused):
        track = make_track([(1.0, 2.0), (3.0, value)])
        if refused:
            why = "is NaN" if np.isnan(value) else "beyond"
            with pytest.raises(SchemaError, match=f"^track 1: visible coordinate {why}"):
                keypoints.KeypointDataset({1: track}, 1000.0, 2, "pixel")
        else:
            keypoints.KeypointDataset({1: track}, 1000.0, 2, "pixel")

    def test_invisible_sample(self):
        track = KeypointTrack(1, "Neck", [0, 1], [(1.0, 2.0), (1e300, 1e300)], [True, False])
        keypoints.KeypointDataset({1: track}, 1000.0, 2, "pixel")

    def test_csv(self):
        with pytest.raises(SchemaError, match="^track 2: visible coordinate beyond"):
            load_csv(csv_text([(0, 2, 1.0, 2.0, 1), (1, 2, 1e76, 2.0, 1)]))

    @pytest.mark.parametrize("scale", [1e100, 1e307])  # beyond the bound, beyond a float
    def test_pixel_to_world(self, scale):
        # every world coordinate is 0 or beyond the bound; at 1e307 x overflows
        ds = load_csv(csv_text([(0, 2, 300.0, 0.0, 1), (1, 2, 400.0, 0.0, 1)]))
        with pytest.raises(SchemaError, match="^track 2: visible coordinate beyond"):
            pixel_to_world(ds, PlanarCalibration(scale, (0.0, 0.0)))


class TestFrameRange:
    """A hand-built track's frames must lie on 0..frame_count-1: a negative
    one would wrap to the end of the recording in dense_stack."""

    @pytest.mark.parametrize("frames", [[-1, 0], [1, 3]], ids=["negative", "past_end"])
    def test_refused(self, frames):
        track = KeypointTrack(1, "Neck", frames, [(1.0, 2.0), (3.0, 4.0)], [True, True])
        with pytest.raises(SchemaError, match=r"^track 1: frame index outside 0\.\.2$"):
            keypoints.KeypointDataset({1: track}, 1000.0, 3, "pixel")


class _Unseekable(io.BytesIO):
    """A binary stream that cannot seek, as a pipe: load_dataset parses it whole."""

    def seekable(self):
        return False


#: Headers that name the columns of neither layout, each with one row that
#: fills them as the header says; the first two were read by column position.
NOT_A_LAYOUT = {
    "z_after_visible": ("frame,keypoint_id,keypoint_name,x,y,visible,z\n"
                        "0,1,Neck,5.0,6.0,1,0.5\n"),
    "visible_before_y": ("frame,keypoint_id,keypoint_name,x,visible,y\n"
                         "0,1,Neck,5.0,1,0\n"),
    "trailing_empty_field": ("frame,keypoint_id,keypoint_name,x,y,visible,\n"
                             "0,1,Neck,5.0,6.0,1,\n"),
    "likelihood": ("frame,keypoint_id,keypoint_name,x,y,visible,likelihood\n"
                   "0,1,Neck,5.0,6.0,1,0.9\n"),
}


class TestExactCsvHeader:
    """A keypoint CSV's header is one of the two layouts, name for name; any
    other is refused on the block route (a path, a seekable binary stream)
    and on the whole-text route (an unseekable stream) alike."""

    @pytest.mark.parametrize("source", ["path", "seekable", "unseekable"])
    @pytest.mark.parametrize("name", sorted(NOT_A_LAYOUT))
    def test_refused(self, tmp_path, name, source):
        text = NOT_A_LAYOUT[name]
        header = text.split("\n")[0].split(",")
        path = tmp_path / "rec.csv"
        path.write_text(text)
        src = {"path": path, "seekable": io.BytesIO(text.encode()),
               "unseekable": _Unseekable(text.encode())}[source]
        with pytest.raises(ParseError) as info:
            load_dataset(src, format="csv", frame_rate=1000.0)
        assert str(info.value) == f"unexpected header {header!r}"


class TestFrameRateKeepsTimesFinite:
    """A frame rate so small that the last frame's time t = (frame_count - 1) /
    frame_rate overflows is refused in CSV and in JSON; one frame has t = 0."""

    def test_csv(self):
        text = csv_text([(0, 1, 1.0, 2.0, 1), (1, 1, 3.0, 4.0, 1)])
        with pytest.raises(SchemaError, match="puts the last frame at t = inf"):
            load_csv(text, frame_rate=1e-320)
        assert load_csv(text, frame_rate=1e-300).frame_rate == 1e-300

    def test_json(self):
        text = json_text({1: [(0, 1.0, 2.0, True), (1, 3.0, 4.0, True)]}, 2).replace(
            '"frame_rate": 1000.0', '"frame_rate": 1e-320')
        with pytest.raises(SchemaError, match="puts the last frame at t = inf"):
            load_json(text)

    def test_a_single_frame_at_any_rate(self):
        assert load_csv(csv_text([(0, 1, 1.0, 2.0, 1)]), frame_rate=1e-320).frame_count == 1
