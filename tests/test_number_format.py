"""Every float cell of the analysis CSVs is written `%.9g` and every count
`%d`, so each number parses back to the library's value within half a unit
in its 9th significant digit; an invalid series row and a too-sparse report
row keep their cells blank."""

import io
import warnings
from decimal import Decimal

import numpy as np

from bioright import frames, keypoints, objective, track_quality
from bioright.errors import GimbalLockWarning
from bioright.frames import Segment

from test_fastpaths import CONTEXT, awkward_dataset, pd_run


def assert_9_digits(cells, values):
    """Each cell is its value to half a unit in the 9th significant digit,
    compared as exact decimals."""
    assert len(cells) == len(values)
    for cell, value in zip(cells, values):
        want = Decimal(float(value))
        assert want.is_finite(), value
        bound = Decimal(0) if not want else Decimal("0.5").scaleb(want.adjusted() - 8)
        assert abs(Decimal(cell) - want) <= bound, (cell, value)


def written(writer, value):
    stream = io.StringIO()
    writer(value, stream)
    return stream.getvalue().splitlines()


def test_series_csv():
    ds = awkward_dataset()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GimbalLockWarning)
        inertial = {s: frames.segment_series(ds, s) for s in Segment}
        relative = [frames.relative_leg_series(inertial[leg], inertial[Segment.BODY])
                    for leg in frames.LEG_AXES]
    for series in [*inertial.values(), *relative]:
        ok = series.valid
        assert not ok.all()
        header, *rows = written(frames.write_series_csv, series)
        assert header == "t,yaw_deg,pitch_deg,roll_deg,valid"
        cells = [row.split(",") for row in rows]
        assert [c[4] for c in cells] == ["%d" % v for v in ok]
        assert_9_digits([c[0] for c in cells], series.times)
        assert all(c[1:4] == ["", "", ""] for c, v in zip(cells, ok) if not v)
        assert_9_digits([x for c, v in zip(cells, ok) if v for x in c[1:4]],
                        np.degrees(series.euler[ok]).ravel())


def test_report_csv():
    ds = awkward_dataset()
    sparse = ds.tracks[5]
    tracks = {**ds.tracks, 5: keypoints.KeypointTrack(
        5, sparse.name, sparse.frames[:1], sparse.positions[:1], sparse.visible[:1])}
    rows = track_quality.stability_report(
        keypoints.KeypointDataset(tracks, ds.frame_rate, ds.frame_count, ds.unit))
    header, *lines = written(track_quality.write_report_csv, rows)
    assert header.split(",")[5] == "max_gap"
    assert len(lines) == len(rows) == 23
    for row, line in zip(rows, lines):
        cells = line.split(",")
        assert cells[:2] == ["%d" % row.id, row.name]
        if row.metrics is None:
            assert row.id == 5
            assert cells[2:] == ["", "", "", "", "", "", "too_sparse"]
            continue
        m = row.metrics
        assert cells[5] == "%d" % m.max_gap_length
        assert cells[8] == row.category.value
        assert_9_digits(cells[2:5] + cells[6:8], [
            m.average_movement, m.normalized_movement, m.visibility,
            m.position_variance, m.drift_score])


def test_sweep_csv():
    # a resolution of 3 gives weights of a third, which no fixed decimals hold
    report = objective.weight_sweep(3, pd_run(), CONTEXT)
    lines = written(objective.write_report_csv, report)
    comments = [line for line in lines if line.startswith("#")]
    header, *rows = [line for line in lines if not line.startswith("#")]
    assert header.startswith("w_safety,")
    assert len(rows) == len(report.rows) == 10
    assert_9_digits([x for row in rows for x in row.split(",")], report.rows.ravel())
    *weights, j = comments[-1].removeprefix("# argmin,").split(",")
    a = report.argmin
    assert_9_digits([*weights, j.removeprefix("J=")], [*a.weights.as_tuple(), a.J])
