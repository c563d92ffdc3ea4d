"""The three workloads: what one run of each does, and how its outputs
are checked against generator truth or an acceptance-criterion bound.

A workload has a fixed plan of operations (one public call or one CLI
command each). ``run`` performs them in order and stores each result
under its operation name; ``check`` returns the names of completed
operations whose output is wrong. An operation that raised, or never ran
because an earlier one raised, counts as failed.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from bioright import cli, frames, keypoints, track_quality, traj
from tracing import momentum_drift_rel

LEG_SEGMENTS = (frames.Segment.LEFT_FRONT_LEG, frames.Segment.LEFT_HIND_LEG,
                frames.Segment.RIGHT_FRONT_LEG, frames.Segment.RIGHT_HIND_LEG)

# Acceptance-criterion bounds checked on the simulator outputs.
PEAK_BASE_RATE_DEG_S = 0.15 * 1.10   # criterion 2
PD_MOMENTUM_DRIFT_REL = 1e-6         # criterion 3
PRESCRIBED_MOMENTUM_ABS = 1e-12      # criterion 3, playback is exact
BASE_REACTION_TOL_RAD = 1e-9         # criterion 1, closed form
CSV_REL = 1e-8                       # what %.9g round-trips to


def _quiet(argv):
    """Run one CLI command in-process with its output kept off the
    worker's stdout; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _read_csv(path):
    """Numeric rows of a CSV with one header line and `#` comment lines."""
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln and not ln.startswith("#")]
    return np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def _sweep_ok(path, rows):
    """`rows` weight rows on the simplex, each with J = w . phi."""
    data = _read_csv(path)
    if data.shape != (rows, 7):
        return False
    w, phi, J = data[:, :3], data[:, 3:6], data[:, 6]
    terms = np.abs(w * phi).sum(axis=1)
    return bool(np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-5)
                and np.all(np.abs(J - (w * phi).sum(axis=1))
                           <= 2 * CSV_REL * (np.abs(J) + terms) + 1e-15))


class Recording:
    """Clean and reconstruct a 2D tracker export, library calls only."""

    name = "recording"
    captures = ()

    def __init__(self, inputs):
        self.inputs = Path(inputs)
        self.truth = json.loads((self.inputs / "truth.json").read_text())
        self.calib = keypoints.PlanarCalibration(
            scale=self.truth["scale"],
            origin_pixel=tuple(self.truth["origin_pixel"]))
        self.series_names = [s.value for s in frames.Segment] + \
            [f"{leg.value}_rel" for leg in LEG_SEGMENTS]
        self.plan = (
            ["load_dataset.csv", "reassociate_identities"]
            + [f"interpolate_gaps.{kid}" for kid in range(1, 24)]
            + ["pixel_to_world", "save_dataset.json", "load_dataset.json",
               "stability_report", "write_report_csv"]
            + [f"segment_series.{s.value}" for s in frames.Segment]
            + [f"relative_leg_series.{leg.value}" for leg in LEG_SEGMENTS]
            + [f"righting_window.{n}" for n in self.series_names]
            + [f"write_series_csv.{n}" for n in self.series_names])

    def run(self, out, results):
        t = self.truth
        ds = keypoints.load_dataset(str(self.inputs / "tracks.csv"),
                                    format="csv", frame_rate=t["frame_rate"])
        results["load_dataset.csv"] = ds
        ds, events = keypoints.reassociate_identities(ds, t["max_jump"])
        results["reassociate_identities"] = (ds, events)
        tracks = {}
        for kid, track in ds.tracks.items():
            tracks[kid] = keypoints.interpolate_gaps(track, t["max_gap"])
            results[f"interpolate_gaps.{kid}"] = tracks[kid]
        ds = keypoints.KeypointDataset(tracks, ds.frame_rate, ds.frame_count,
                                       ds.unit)
        world = keypoints.pixel_to_world(ds, self.calib)
        results["pixel_to_world"] = world
        json_path = out / "world.json"
        with open(json_path, "w") as f:
            keypoints.save_dataset(world, f, format="json")
        results["save_dataset.json"] = json_path
        world = keypoints.load_dataset(str(json_path), format="json")
        results["load_dataset.json"] = world
        rows = track_quality.stability_report(world)
        results["stability_report"] = rows
        with open(out / "report.csv", "w") as f:
            track_quality.write_report_csv(rows, f)
        results["write_report_csv"] = out / "report.csv"
        series = {}
        for seg in frames.Segment:
            series[seg.value] = frames.segment_series(world, seg)
            results[f"segment_series.{seg.value}"] = series[seg.value]
        body = series["Body"]
        for leg in LEG_SEGMENTS:
            rel = frames.relative_leg_series(series[leg.value], body)
            series[f"{leg.value}_rel"] = rel
            results[f"relative_leg_series.{leg.value}"] = rel
        lo, hi = t["window"]
        windows = {}
        for name in self.series_names:
            windows[name] = frames.righting_window(series[name], lo, hi)
            results[f"righting_window.{name}"] = windows[name]
        for name in self.series_names:
            path = out / f"{name}.csv"
            with open(path, "w") as f:
                frames.write_series_csv(windows[name], f)
            results[f"write_series_csv.{name}"] = path

    def check(self, results, captured):
        t = self.truth
        bad = []

        def need(op, ok):
            if op in results and not ok(results[op]):
                bad.append(op)

        n = t["frame_count"]
        need("load_dataset.csv", lambda ds: ds.frame_count == n
             and len(ds.tracks) == 23)

        def swaps_restored(value):
            ds, events = value
            expected = []
            for s, e in t["swaps"]:
                expected += [(8, 9, s, e, "swap"), (9, 8, s, e, "swap")]
            got = [(ev.from_id, ev.to_id, ev.frame_start, ev.frame_end,
                    ev.kind) for ev in events]
            if sorted(got) != sorted(expected):
                return False
            for kid in (8, 9):
                for (s, e), truth_px in zip(t["swaps"],
                                            t["wrist_pixels"][str(kid)]):
                    got_px = ds.tracks[kid].positions[s:e + 1]
                    if not np.array_equal(got_px, np.array(truth_px)):
                        return False
            return True
        need("reassociate_identities", swaps_restored)
        for kid in range(1, 24):
            want = t["interpolated"][str(kid)]
            need(f"interpolate_gaps.{kid}",
                 lambda tr, want=want: int(tr.interpolated.sum()) == want)
        need("pixel_to_world", lambda ds: ds.unit == "meter")
        need("save_dataset.json", lambda p: p.stat().st_size > 0)

        def same_dataset(loaded):
            src = results.get("pixel_to_world")
            return src is not None and loaded.frame_count == n and all(
                np.array_equal(loaded.tracks[k].positions,
                               src.tracks[k].positions, equal_nan=True)
                and np.array_equal(loaded.tracks[k].visible,
                                   src.tracks[k].visible)
                for k in src.tracks)
        need("load_dataset.json", same_dataset)
        sparse = set(t["too_sparse_ids"])
        need("stability_report", lambda rows: len(rows) == 23 and {
            r.id for r in rows if r.metrics is None} == sparse)
        need("write_report_csv",
             lambda p: len(p.read_text().splitlines()) == 24)

        observed = np.array(t["body_observed"])
        yaw_true = np.array(t["yaw"])

        def body_ok(series):
            if int(series.valid.sum()) != t["valid"]["Body"]:
                return False
            err = series.euler[observed, 0] - yaw_true[observed]
            err = (err + math.pi) % (2 * math.pi) - math.pi
            return bool(np.all(np.abs(err) <= 1e-9))
        need("segment_series.Body", body_ok)
        for seg in frames.Segment:
            if seg is not frames.Segment.BODY:
                want = t["valid"][seg.value]
                need(f"segment_series.{seg.value}",
                     lambda s, want=want: int(s.valid.sum()) == want)
        for leg in LEG_SEGMENTS:
            want = t["relative_valid"][leg.value]
            need(f"relative_leg_series.{leg.value}",
                 lambda s, want=want: int(s.valid.sum()) == want)
        samples = t["window_samples"]
        for name in self.series_names:
            if name.endswith("_rel"):
                want = t["relative_window_valid"][name[:-4]]
            else:
                want = t["window_valid"][name]
            need(f"righting_window.{name}",
                 lambda s, want=want: len(s.times) == samples
                 and int(s.valid.sum()) == want)

            def csv_ok(path, want=want):
                lines = path.read_text().splitlines()
                return len(lines) == samples + 1 and sum(
                    ln.endswith(",1") for ln in lines[1:]) == want
            need(f"write_series_csv.{name}", csv_ok)
        return bad


class Maneuver:
    """`bioright demo` in-process: surrogate, playback, PD, weight sweep."""

    name = "maneuver"
    captures = (("smsdyn", "simulate_prescribed"),)
    plan = ["demo"]

    def __init__(self, inputs):
        self.truth = json.loads((Path(inputs) / "truth.json").read_text())

    def run(self, out, results):
        results["demo"] = _quiet(["demo", "--resolution",
                                  str(self.truth["resolution"]),
                                  "--output-dir", str(out)])
        results["out"] = out

    def check(self, results, captured):
        if "demo" not in results:
            return []
        code, out = results["demo"], results["out"]
        ok = code == 0 and all((out / f).exists() for f in (
            "reference.csv", "prescribed.csv", "pd.csv", "sweep.csv",
            "reference.manifest.json"))
        if ok:
            # Criterion 1: momentum conservation fixes the base reaction.
            pre = captured["smsdyn.simulate_prescribed"]
            ib, ia = self.truth["base_inertia"], self.truth["arm_inertia"]
            dtheta = pre.joint_angle[-1] - pre.joint_angle[0]
            dphi = pre.base_angle[-1] - pre.base_angle[0]
            ok = abs(dphi + ia / (ib + ia) * dtheta) <= BASE_REACTION_TOL_RAD
            played = _read_csv(out / "prescribed.csv")
            ok = ok and abs(math.radians(played[-1, 1] - played[0, 1]) - dphi) \
                <= 1e-6
        if ok:
            pd = _read_csv(out / "pd.csv")
            ok = (np.max(np.abs(pd[:, 3])) <= PEAK_BASE_RATE_DEG_S
                  and momentum_drift_rel(pd[:, 6]) < PD_MOMENTUM_DRIFT_REL
                  and _sweep_ok(out / "sweep.csv", self.truth["sweep_rows"]))
        return [] if ok else ["demo"]


class Replay:
    """A lizard tail flip scaled to 225 s and replayed on a PlanarOffset
    spacecraft through three CLI commands."""

    name = "replay"
    captures = (("smsdyn", "simulate_pd"),)
    plan = ["scale", "simulate", "sweep"]

    def __init__(self, inputs):
        self.inputs = Path(inputs)
        self.truth = json.loads((self.inputs / "truth.json").read_text())
        with open(self.inputs / "lizard.csv") as f:
            self.raw = traj.read_trajectory_csv(f)
        self.raw_rise = traj.step_metrics(
            self.raw, steady_time=self.raw.times[-1]).rise_time

    def run(self, out, results):
        raw, cfg = self.inputs / "lizard.csv", self.inputs / "planar.cfg"
        ref = out / "reference.csv"
        results["scale"] = _quiet([
            "scale", "--input", str(raw), "--target-duration",
            repr(self.truth["target_duration"]), "--step-metrics",
            "--output", str(ref)])
        results["simulate"] = _quiet([
            "simulate", "--mode", "prescribed", "--config", str(cfg),
            "--reference", str(ref), "--output", str(out / "playback.csv")])
        results["sweep"] = _quiet([
            "sweep", "--resolution", str(self.truth["sweep_resolution"]),
            "--config", str(cfg), "--reference", str(ref),
            "--output", str(out / "sweep.csv")])
        results["out"] = out

    def check(self, results, captured):
        out = results.get("out")
        bad = []
        if "scale" in results and not self._scale_ok(out, results["scale"]):
            bad.append("scale")
        if "simulate" in results:
            ok = results["simulate"] == 0
            if ok:
                play = _read_csv(out / "playback.csv")
                ok = (len(play) == self.truth["samples"] and np.max(
                    np.abs(play[:, 6])) <= PRESCRIBED_MOMENTUM_ABS)
            if not ok:
                bad.append("simulate")
        if "sweep" in results:
            code = results["sweep"]
            pd = captured.get("smsdyn.simulate_pd")
            rows = (self.truth["sweep_resolution"] + 1) * \
                (self.truth["sweep_resolution"] + 2) // 2
            if not (code == 0 and pd is not None
                    and momentum_drift_rel(pd.momentum) < PD_MOMENTUM_DRIFT_REL
                    and _sweep_ok(out / "sweep.csv", rows)):
                bad.append("sweep")
        return bad

    def _scale_ok(self, out, code):
        """Criterion 5: times stretch and rates shrink by exactly k."""
        if code != 0:
            return False
        k = self.truth["target_duration"] / self.truth["raw_duration"]
        scaled = _read_csv(out / "reference.csv")
        raw_t = self.raw.times
        raw_rate = np.degrees(np.gradient(self.raw.angle, raw_t,
                                          edge_order=2))
        metrics = json.loads((out / "reference.metrics.json").read_text())
        return bool(
            np.allclose(scaled[:, 0], raw_t * k, rtol=CSV_REL, atol=0)
            and np.allclose(scaled[:, 2] * k, raw_rate, rtol=0,
                            atol=CSV_REL * np.max(np.abs(raw_rate)))
            and abs(metrics["rise_time_s"] - k * self.raw_rise)
            <= 1e-9 * metrics["rise_time_s"])


WORKLOADS = {w.name: w for w in (Recording, Maneuver, Replay)}
