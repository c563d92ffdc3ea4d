import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bioright import cli, keypoints, smsdyn, traj

from conftest import REST_POSE, full_csv_dataset, csv_text
from test_keypoints import yawing_lizard


def run(argv):
    return cli.main(argv)


def rest_pose_csv(frame_count=5):
    rows = []
    for f in range(frame_count):
        for kid, p in REST_POSE.items():
            rows.append((f, kid, p[0], p[1], 1))
    return csv_text(rows)


@pytest.fixture
def tracked_csv(tmp_path):
    path = tmp_path / "tracks.csv"
    path.write_text(full_csv_dataset(frame_count=60))
    return path


class TestMetrics:
    def test_report_has_23_rows(self, tmp_path, tracked_csv, capsys):
        out = tmp_path / "report.csv"
        code = run(["metrics", "--input", str(tracked_csv),
                    "--output", str(out), "--frame-rate", "1000"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 24  # header + one row per keypoint
        assert "wrote 23 rows" in capsys.readouterr().out

    def test_manifest_written(self, tmp_path, tracked_csv):
        out = tmp_path / "report.csv"
        run(["metrics", "--input", str(tracked_csv), "--output", str(out),
             "--frame-rate", "1000"])
        manifest = json.loads((tmp_path / "report.manifest.json").read_text())
        assert manifest["command"] == "metrics"
        assert str(tracked_csv) in manifest["inputs"]
        assert len(manifest["config_digest"]) == 64

    def test_malformed_input_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("frame,keypoint_id,keypoint_name,x,y,visible\n"
                       "0,1,Neck,not_a_number,2.0,1\n")
        code = run(["metrics", "--input", str(bad),
                    "--output", str(tmp_path / "r.csv"),
                    "--frame-rate", "1000"])
        assert code == 2

    def test_header_only_exit_3(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("frame,keypoint_id,keypoint_name,x,y,visible\n")
        code = run(["metrics", "--input", str(empty),
                    "--output", str(tmp_path / "r.csv"),
                    "--frame-rate", "1000"])
        assert code == 3

    def test_missing_file_exit_2(self, tmp_path):
        code = run(["metrics", "--input", str(tmp_path / "nope.csv"),
                    "--output", str(tmp_path / "r.csv"),
                    "--frame-rate", "1000"])
        assert code == 2


class TestReconstruct:
    def test_body_series(self, tmp_path, capsys):
        src = tmp_path / "pose.csv"
        src.write_text(rest_pose_csv(5))
        out = tmp_path / "body.csv"
        code = run(["reconstruct", "--input", str(src), "--output", str(out),
                    "--segment", "Body", "--frame-rate", "1000",
                    "--scale", "1.0"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,yaw_deg,pitch_deg,roll_deg,valid"
        assert len(lines) == 6
        assert "5 valid of 5" in capsys.readouterr().out

    def test_window_outside_span_exit_4(self, tmp_path):
        src = tmp_path / "pose.csv"
        src.write_text(rest_pose_csv(5))
        code = run(["reconstruct", "--input", str(src),
                    "--output", str(tmp_path / "w.csv"),
                    "--segment", "Body", "--frame-rate", "1000",
                    "--scale", "1.0", "--window-ms", "5000:6000"])
        assert code == 4


class TestScale:
    def test_scale_and_metrics(self, tmp_path, capsys):
        src = tmp_path / "liz.csv"
        tr = traj.synth_second_order(13.85, 0.043, 0.150, 1e-3)
        with open(src, "w") as f:
            traj.write_trajectory_csv(tr, f)
        out = tmp_path / "sms.csv"
        code = run(["scale", "--input", str(src), "--output", str(out),
                    "--target-duration", "225", "--step-metrics"])
        assert code == 0
        scaled = traj.read_trajectory_csv(open(out))
        assert scaled.duration == pytest.approx(225.0, rel=1e-9)
        captured = capsys.readouterr().out
        assert "rise_time_s=" in captured
        assert (tmp_path / "sms.metrics.json").exists()

    def test_rate_divided_by_factor(self, tmp_path):
        src = tmp_path / "liz.csv"
        tr = traj.synth_second_order(13.85, 0.043, 0.150, 1e-3)
        with open(src, "w") as f:
            traj.write_trajectory_csv(tr, f)
        out = tmp_path / "sms.csv"
        run(["scale", "--input", str(src), "--output", str(out),
             "--target-duration", "225"])
        scaled = traj.read_trajectory_csv(open(out))
        k = 225.0 / 0.150
        assert np.max(np.abs(scaled.rate - tr.rate / k)) < 1e-9


class TestSimulate:
    def test_prescribed_default_reference(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = run(["simulate", "--mode", "prescribed", "--output", str(out),
                    "--dt", "0.05"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("t,phi_deg,theta_deg")
        captured = capsys.readouterr().out
        assert "momentum_drift=" in captured
        assert "inertia_ratio=0.0581" in captured
        assert "inertia_ratio_reported=0.056" in captured

    def test_pd_mode(self, tmp_path, capsys):
        out = tmp_path / "pd.csv"
        code = run(["simulate", "--mode", "pd", "--output", str(out),
                    "--dt", "0.05"])
        assert code == 0
        captured = capsys.readouterr().out
        peak = float([ln for ln in captured.splitlines()
                      if ln.startswith("max|phi_rate|")][0].split("=")[1])
        assert peak < 0.15

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("base_inertia = 310  # reduced\ndt = 0.05\n")
        out = tmp_path / "sim.csv"
        code = run(["simulate", "--config", str(cfg), "--mode", "prescribed",
                    "--output", str(out)])
        assert code == 0

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code = run(["simulate", "--config", str(cfg),
                    "--output", str(tmp_path / "sim.csv")])
        assert code == 2


class TestSweep:
    def test_resolution_4_gives_15_rows(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--resolution", "4", "--output", str(out),
                    "--dt", "0.05"])
        assert code == 0
        assert "wrote 15 rows" in capsys.readouterr().out
        data = [ln for ln in out.read_text().splitlines()
                if ln and not ln.startswith("#")]
        assert len(data) == 16  # header + 15 rows

    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["sweep", "--resolution", "3", "--output", str(a), "--dt", "0.05"])
        run(["sweep", "--resolution", "3", "--output", str(b), "--dt", "0.05"])
        assert a.read_bytes() == b.read_bytes()


class TestDemo:
    def test_chain_outputs(self, tmp_path, capsys):
        out = tmp_path / "demo"
        code = run(["demo", "--output-dir", str(out), "--dt", "0.05",
                    "--resolution", "2"])
        assert code == 0
        for name in ("reference.csv", "prescribed.csv", "pd.csv", "sweep.csv"):
            assert (out / name).exists(), name
        captured = capsys.readouterr().out
        assert "surrogate:" in captured
        assert "closed form -9.878 deg" in captured
        assert "peak base rate=" in captured
        assert (out / "reference.manifest.json").exists()


class TestScaleSingleRow:
    def test_exit_3_without_traceback(self, tmp_path):
        # a one-row trajectory with a rate has zero duration
        src = tmp_path / "one.csv"
        src.write_text("t,angle_deg,rate_deg_s\n0,1,2\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "bioright.cli", "scale", "--input",
             str(src), "--output", str(tmp_path / "out.csv"),
             "--target-duration", "225"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")


def run_subprocess(argv):
    """The CLI in a fresh interpreter, as a user runs it."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "bioright.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


class TestRejectedInputExitCodes:
    def _json(self, tmp_path, track):
        src = tmp_path / "rec.json"
        src.write_text(json.dumps({"frame_rate": 1000.0, "frame_count": 2,
                                   "unit": "pixel", "tracks": [track]}))
        return src

    @pytest.mark.parametrize("track", [
        {"name": "Neck", "samples": []},
        {"id": 1, "name": "Neck",
         "samples": [{"frame": 0, "x": 1.0, "y": 2.0}]},
        {"id": 1, "name": "Neck",
         "samples": [{"frame": 0, "x": float("inf"), "y": 2.0, "visible": True}]},
    ], ids=["no_id", "no_visible", "inf_visible"])
    def test_bad_json_exit_2(self, tmp_path, track):
        proc = run_subprocess(["metrics", "--input", str(self._json(tmp_path, track)),
                               "--output", str(tmp_path / "r.csv")])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")

    def test_nan_on_visible_csv_row_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("frame,keypoint_id,keypoint_name,x,y,visible\n"
                       "0,1,Neck,1.0,2.0,1\n1,1,Neck,nan,2.0,1\n")
        code = run(["metrics", "--input", str(bad),
                    "--output", str(tmp_path / "r.csv"), "--frame-rate", "1000"])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_scale_header_only_exit_3(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("t,angle_deg,rate_deg_s\n")
        proc = run_subprocess(["scale", "--input", str(src), "--output",
                               str(tmp_path / "out.csv"), "--target-duration", "225"])
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")


class TestDomainErrorExitCode:
    def test_negative_target_duration_exit_4(self, tmp_path):
        src = tmp_path / "flip.csv"
        with open(src, "w") as f:
            traj.write_trajectory_csv(traj.synth_second_order(13.85, 0.043, 0.150,
                                                              1e-3), f)
        proc = run_subprocess(["scale", "--input", str(src), "--output",
                               str(tmp_path / "out.csv"), "--target-duration", "-1"])
        assert proc.returncode == 4
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and "positive" in proc.stderr


class TestScaledReferenceSimulates:
    def test_scale_to_100_s_then_simulate(self, tmp_path):
        # a 150 ms flip stretched to 100 s has a step of 0.666... s
        src, scaled = tmp_path / "flip.csv", tmp_path / "scaled.csv"
        with open(src, "w") as f:
            traj.write_trajectory_csv(traj.synth_second_order(13.85, 0.043, 0.150,
                                                              1e-3), f)
        assert run(["scale", "--input", str(src), "--output", str(scaled),
                    "--target-duration", "100"]) == 0
        assert run(["simulate", "--reference", str(scaled), "--mode", "prescribed",
                    "--output", str(tmp_path / "sim.csv")]) == 0


class TestReconstructTypedErrors:
    def test_2d_meter_json_exit_2(self, tmp_path):
        src = tmp_path / "flat.json"
        src.write_text(json.dumps({
            "frame_rate": 1000.0, "frame_count": 3, "unit": "meter",
            "tracks": [{"id": kid, "name": name,
                        "samples": [{"frame": f, "x": REST_POSE[kid][0],
                                     "y": REST_POSE[kid][1], "visible": True}
                                    for f in range(3)]}
                       for kid, name in keypoints.KEYPOINT_NAMES.items()]}))
        proc = run_subprocess(["reconstruct", "--input", str(src), "--output",
                               str(tmp_path / "body.csv"), "--segment", "Body"])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and "3D dataset" in proc.stderr

    def test_reversed_window_exit_4(self, tmp_path):
        src = tmp_path / "pose.csv"
        src.write_text(rest_pose_csv(5))
        proc = run_subprocess(["reconstruct", "--input", str(src), "--output",
                               str(tmp_path / "w.csv"), "--segment", "Body",
                               "--frame-rate", "1000", "--scale", "1.0",
                               "--window-ms", "3:1"])
        assert proc.returncode == 4
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")


class TestZeroDt:
    """`--dt 0` is rejected like a negative step, not replaced by 0.01 s."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--mode", "pd", "--output"], ["sweep", "--output"],
        ["demo", "--output-dir"]], ids=["simulate", "sweep", "demo"])
    def test_exit_2(self, tmp_path, argv):
        proc = run_subprocess([*argv, str(tmp_path / "out"), "--dt", "0"])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "error: dt must be positive\n"
        assert not any(tmp_path.iterdir())


class TestNonFiniteConfig:
    @pytest.mark.parametrize("line", ["torque_limit = nan", "kp = nan",
                                      "base_inertia = inf", "dt = nan",
                                      "hinge_offset = -inf"])
    def test_exit_2_naming_line_and_key(self, tmp_path, capsys, line):
        config = tmp_path / "run.cfg"
        config.write_text(f"# comment\n{line}\n")
        code = run(["simulate", "--mode", "pd", "--config", str(config),
                    "--output", str(tmp_path / "out.csv")])
        assert code == 2
        key = line.split()[0]
        assert f"config line 2: {key} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


class TestDemoIsSimulateAndSweep:
    """`demo` runs the run path of `simulate` and `sweep` on the defaults."""

    def test_same_bytes(self, tmp_path, capsys):
        common = ["--dt", "0.05"]
        assert run(["demo", "--output-dir", str(tmp_path / "demo"),
                    "--resolution", "3", *common]) == 0
        for mode in ("prescribed", "pd"):
            assert run(["simulate", "--mode", mode, *common,
                        "--output", str(tmp_path / f"{mode}.csv")]) == 0
        assert run(["sweep", "--resolution", "3", *common,
                    "--output", str(tmp_path / "sweep.csv")]) == 0
        for name in ("prescribed.csv", "pd.csv", "sweep.csv"):
            assert (tmp_path / "demo" / name).read_bytes() == \
                (tmp_path / name).read_bytes(), name


class TestResolutionCheckedFirst:
    @pytest.mark.parametrize("resolution, code", [("1001", 4), ("1", 2)])
    def test_demo_writes_nothing(self, tmp_path, capsys, resolution, code):
        out = tmp_path / "demo"
        assert run(["demo", "--resolution", resolution,
                    "--output-dir", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: grid resolution")
        assert not out.exists()

    def test_sweep_runs_nothing(self, tmp_path, monkeypatch):
        calls = []

        def spy(name):
            return lambda *a, **k: calls.append(name)
        monkeypatch.setattr(smsdyn, "simulate_pd", spy("simulate_pd"))
        monkeypatch.setattr(traj, "synth_second_order", spy("synth"))
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--resolution", "1001", "--output", str(out)]) == 4
        assert calls == []
        assert not out.exists()


class TestJointAngleKeyRemoved:
    def test_unknown_key_exit_2(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("joint_angle0_deg = 0\n")
        code = run(["simulate", "--mode", "pd", "--config", str(config),
                    "--output", str(tmp_path / "out.csv")])
        assert code == 2
        assert "unknown key 'joint_angle0_deg'" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


class TestBadTrajectoryCsvExit2:
    """Malformed reference rows exit 2 with one error line, no traceback."""

    @pytest.mark.parametrize("rates", ["nan", "1"], ids=["no_rate", "rate"])
    @pytest.mark.parametrize("bad", ["inf", "nan"])
    @pytest.mark.parametrize("command", ["scale", "simulate"])
    def test_non_finite_time(self, tmp_path, command, bad, rates):
        src = tmp_path / "ref.csv"
        src.write_text("t,angle_deg,rate_deg_s\n" + "".join(
            f"{t},{i},{rates}\n" for i, t in enumerate(["0", "0.01", bad, "0.03"])))
        argv = (["scale", "--input", str(src), "--target-duration", "225"]
                if command == "scale" else
                ["simulate", "--mode", "pd", "--reference", str(src)])
        proc = run_subprocess([*argv, "--output", str(tmp_path / "out.csv")])
        assert proc.returncode == 2
        assert proc.stderr == "error: times contain non-finite values\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("body", ["0,1\n1,2\n2,3\n", "0,1,2,3\n1,2,3,4\n"],
                             ids=["two_columns", "four_columns"])
    def test_wrong_column_count(self, tmp_path, body):
        src = tmp_path / "ref.csv"
        src.write_text("t,angle_deg,rate_deg_s\n" + body)
        proc = run_subprocess(["scale", "--input", str(src), "--output",
                               str(tmp_path / "out.csv"), "--target-duration", "225"])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: expected 3 columns")


class TestKeypointFileBoundary:
    """CSV and JSON, any line ending: the file's header decides layout and unit."""

    def test_stray_cr_metrics_exit_0(self, tmp_path, tracked_csv):
        stray = tmp_path / "stray.csv"
        stray.write_bytes(tracked_csv.read_bytes().replace(b"\n", b"\r", 3))
        for src, out in ((tracked_csv, "lf.csv"), (stray, "stray_cr.csv")):
            proc = run_subprocess(["metrics", "--input", str(src), "--frame-rate",
                                   "1000", "--output", str(tmp_path / out)])
            assert proc.returncode == 0
            assert "Traceback" not in proc.stderr
        assert (tmp_path / "lf.csv").read_bytes() == \
            (tmp_path / "stray_cr.csv").read_bytes()

    def test_byte_order_mark_metrics_equal(self, tmp_path, tracked_csv):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + tracked_csv.read_bytes())
        for src, out in ((tracked_csv, "plain.csv"), (bom, "bom_report.csv")):
            proc = run_subprocess(["metrics", "--input", str(src), "--frame-rate",
                                   "1000", "--output", str(tmp_path / out)])
            assert proc.returncode == 0
            assert "Traceback" not in proc.stderr
        assert (tmp_path / "plain.csv").read_bytes() == \
            (tmp_path / "bom_report.csv").read_bytes()

    def test_3d_json_in_pixels_exit_2(self, tmp_path):
        src = tmp_path / "rec.json"
        with open(src, "w") as f:
            keypoints.save_dataset(yawing_lizard(), f, format="json")
        src.write_text(src.read_text().replace('"unit": "meter"', '"unit": "pixel"'))
        out = tmp_path / "body.csv"
        proc = run_subprocess(["reconstruct", "--input", str(src), "--output",
                               str(out), "--segment", "Body"])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and "unit must be meter" in proc.stderr
        assert not out.exists()

    def test_3d_csv_reconstructs_like_its_json_twin(self, tmp_path):
        ds = yawing_lizard()
        out = {}
        for fmt in ("csv", "json"):
            with open(tmp_path / f"rec.{fmt}", "w") as f:
                keypoints.save_dataset(ds, f, format=fmt)
            assert run(["reconstruct", "--input", str(tmp_path / f"rec.{fmt}"),
                        "--output", str(tmp_path / f"body_{fmt}.csv"),
                        "--segment", "Body", "--frame-rate", "1000"]) == 0
            out[fmt] = (tmp_path / f"body_{fmt}.csv").read_bytes()
        assert out["csv"] == out["json"]
        # 0.4 rad of yaw at frame 4 and no roll: not flipped by a pixel map
        assert out["csv"].endswith(b"\n0.004000,22.9183,0.0000,0.0000,1\n")

    def test_frame_beyond_bound_exit_2(self, tmp_path):
        src = tmp_path / "far.csv"
        src.write_text(csv_text([(0, 1, 1.0, 2.0, 1), (10**12, 1, 1.0, 2.0, 1)]))
        proc = run_subprocess(["metrics", "--input", str(src), "--frame-rate", "1000",
                               "--output", str(tmp_path / "r.csv")])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and "MAX_FRAMES" in proc.stderr
        assert not (tmp_path / "r.csv").exists()


class TestPrescribedPlaybackDt:
    def test_explicit_dt_exit_2(self, tmp_path):
        src = tmp_path / "ref.csv"
        src.write_text("t,angle_deg,rate_deg_s\n0,0,nan\n0.01,1,nan\n0.02,2,nan\n")
        out = tmp_path / "out.csv"
        proc = run_subprocess(["simulate", "--mode", "prescribed", "--reference",
                               str(src), "--dt", "0.5", "--output", str(out)])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and "time grid" in proc.stderr
        assert not out.exists()
