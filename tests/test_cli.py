import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bioright import cli, keypoints, smsdyn, traj

from conftest import REST_POSE, full_csv_dataset, csv_text
from test_fastpaths import benchmark_recording
from test_keypoints import yawing_lizard


def run(argv):
    return cli.main(argv)


def rest_pose_csv(frame_count=5):
    rows = []
    for f in range(frame_count):
        for kid, p in REST_POSE.items():
            rows.append((f, kid, p[0], p[1], 1))
    return csv_text(rows)


COAXIAL_CONFIG = "base_inertia = 310  # reduced\ndt = 0.05\n"
PLANAR_CONFIG = ("mode = PlanarOffset\nhinge_offset = 1.0\narm_cm_offset = 1.5\n"
                 "arm_inertia_cm = 40.0\n")


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
        scaled = traj.read_trajectory_csv(out)
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
        scaled = traj.read_trajectory_csv(out)
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
        # the offsets of a PlanarOffset model make PD tracking run the general
        # RK4 loop
        cases = {"coaxial.cfg": (COAXIAL_CONFIG, [["simulate", "--mode", "prescribed"]]),
                 "planar.cfg": (PLANAR_CONFIG, [["simulate", "--mode", "pd"],
                                                ["sweep", "--resolution", "4"]])}
        for name, (text, commands) in cases.items():
            cfg = tmp_path / name
            cfg.write_text(text)
            for command in commands:
                out = tmp_path / f"{cfg.stem}_{command[0]}.csv"
                assert run([*command, "--config", str(cfg), "--output", str(out)]) == 0
                assert out.stat().st_size > 0, out.name

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code = run(["simulate", "--config", str(cfg),
                    "--output", str(tmp_path / "sim.csv")])
        assert code == 2


class TestSweep:
    @pytest.mark.parametrize("resolution, rows", [(4, 15), (1000, 501501)])
    def test_row_count(self, tmp_path, capsys, resolution, rows):
        # the largest grid writes all C(1002, 2) weights
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--resolution", str(resolution), "--output", str(out),
                    "--dt", "0.5"])
        assert code == 0
        assert f"wrote {rows} rows" in capsys.readouterr().out
        data = [ln for ln in out.read_text().splitlines()
                if ln and not ln.startswith("#")]
        assert len(data) == rows + 1  # and the header

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
        # the closed form of the reference's own sweep is what playback gives
        playback = re.search(r"delta_phi=(\S+) deg \(closed form (\S+) deg for the "
                             r"\S+ deg sweep\)", captured)
        assert playback and playback[1] == playback[2], captured
        assert "peak base rate=" in captured
        assert (out / "reference.manifest.json").exists()


def run_subprocess(argv):
    """The CLI in a fresh interpreter, as a user runs it; a Python warning
    on its stderr fails the test."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "bioright.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert not re.search(r":\d+: \w*Warning: ", proc.stderr), proc.stderr
    return proc


class TestScaleSingleRow:
    def test_exit_3_without_traceback(self, tmp_path):
        # a one-row trajectory with a rate has zero duration
        src = tmp_path / "one.csv"
        src.write_text("t,angle_deg,rate_deg_s\n0,1,2\n")
        proc = run_subprocess(["scale", "--input", str(src), "--output",
                               str(tmp_path / "out.csv"), "--target-duration", "225"])
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")


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

    @pytest.mark.parametrize("track, message", [
        ({"id": True}, "keypoint id True out of range 1-23"),
        ({"samples": [{"frame": 0, "x": [1.0], "y": [2.0], "visible": True}]},
         "track 1: coordinates must be JSON numbers or null"),
        ({"samples": [{"frame": 0, "x": "a", "y": 2.0, "visible": True}]},
         "track 1: coordinates must be JSON numbers or null"),
        ({"samples": [{"frame": 0, "x": "1.5", "y": 2.0, "visible": True}]},
         "track 1: coordinates must be JSON numbers or null"),
        ({"samples": [{"frame": 0, "x": True, "y": 2.0, "visible": True}]},
         "track 1: coordinates must be JSON numbers or null"),
        ({"samples": [{"frame": 0, "x": 1.0, "y": False, "visible": True}]},
         "track 1: coordinates must be JSON numbers or null"),
    ], ids=["id_true", "xy_lists", "x_str", "x_numeric_str", "x_true", "y_false"])
    def test_bad_json_field_named(self, tmp_path, track, message):
        track = {"id": 1, "name": "Neck",
                 "samples": [{"frame": 0, "x": 1.0, "y": 2.0, "visible": True}], **track}
        out = tmp_path / "r.csv"
        proc = run_subprocess(["metrics", "--input", str(self._json(tmp_path, track)),
                               "--output", str(out)])
        assert proc.returncode == 2
        assert proc.stderr == f"error: {message}\n"
        assert not out.exists()

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


class TestNonFiniteDt:
    """`--dt inf` and `--dt nan` exit 2 before a reference is built, with no
    numpy warning, traceback or divergence report."""

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("argv", [
        ["simulate", "--mode", "pd", "--output"], ["sweep", "--output"],
        ["demo", "--output-dir"]], ids=["simulate", "sweep", "demo"])
    def test_exit_2(self, tmp_path, argv, value):
        proc = run_subprocess([*argv, str(tmp_path / "out"), "--dt", value])
        assert proc.returncode == 2
        assert proc.stderr == f"error: dt must be finite, got {value}\n"
        assert not any(tmp_path.iterdir())


class TestSweepSingleRow:
    """A one-row reference gives a PD run of zero duration, which the
    objective cannot score: exit 3 as a one-row `scale` does, not a
    ZeroDivisionError, and nothing is written."""

    def test_exit_3_writes_nothing(self, tmp_path):
        src = tmp_path / "one.csv"
        src.write_text("t,angle_deg,rate_deg_s\n0,10,0\n")
        out = tmp_path / "out"
        out.mkdir()
        proc = run_subprocess(["sweep", "--reference", str(src),
                               "--output", str(out / "sweep.csv")])
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert not any(out.iterdir())


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
    @pytest.mark.parametrize("resolution, code", [("1001", 4), ("1", 4)])
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
        for resolution in ("1001", "1"):
            assert run(["sweep", "--resolution", resolution, "--output", str(out)]) == 4
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

    @pytest.mark.parametrize("rates", ["nan", "1"], ids=["no_rate", "rate"])
    @pytest.mark.parametrize("command", ["scale", "simulate"])
    def test_time_span_overflows(self, tmp_path, command, rates):
        # each time is finite, the span between them is not
        src = tmp_path / "ref.csv"
        src.write_text(f"t,angle_deg,rate_deg_s\n-1e308,0,{rates}\n1e308,1,{rates}\n")
        argv = (["scale", "--input", str(src), "--target-duration", "10"]
                if command == "scale" else
                ["simulate", "--mode", "pd", "--reference", str(src)])
        proc = run_subprocess([*argv, "--output", str(tmp_path / "out.csv")])
        assert (proc.returncode, proc.stderr) == (
            2, "error: time span from -1e+308 to 1e+308 s overflows a float\n")
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

    @pytest.mark.parametrize("body, target", [
        ("0,0,1e307\n1,0,1e307\n2,0,1e307\n3,0,1e307\n", "1e-5"),
        ("0,0,nan\n1e-300,1e308,nan\n2e-300,0,nan\n", "10"),
        ("0,0,1e307\n1,0,1e307\n2,0,1e307\n", "0.02")],
        ids=["scaled_rate_overflows", "derived_rate_overflows", "rate_overflows_in_degrees"])
    def test_scaled_rate_not_finite(self, tmp_path, body, target):
        # in the last case the scaled rate is finite in rad/s, not in the deg/s written
        src, out = tmp_path / "ref.csv", tmp_path / "out.csv"
        src.write_text("t,angle_deg,rate_deg_s\n" + body)
        proc = run_subprocess(["scale", "--input", str(src), "--target-duration", target,
                               "--output", str(out)])
        assert (proc.returncode, proc.stderr) == (2, "error: rate contains non-finite values\n")
        assert not out.exists()


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

    def test_byte_order_mark_output_equal(self, tmp_path, tracked_csv):
        # a keypoint file, a reference and a config are read alike
        reference, config = tmp_path / "flip.csv", tmp_path / "run.cfg"
        with open(reference, "w") as f:
            traj.write_trajectory_csv(traj.synth_second_order(13.85, 0.043, 0.150,
                                                              1e-3), f)
        config.write_text(COAXIAL_CONFIG)
        commands = {tracked_csv: ["metrics", "--frame-rate", "1000", "--input"],
                    reference: ["scale", "--target-duration", "225", "--input"],
                    config: ["simulate", "--mode", "prescribed", "--config"]}
        for src, command in commands.items():
            bom = tmp_path / f"bom_{src.name}"
            bom.write_bytes(b"\xef\xbb\xbf" + src.read_bytes())
            out = {}
            for path in (src, bom):
                dst = tmp_path / f"{path.stem}_{command[0]}_out.csv"
                assert run([*command, str(path), "--output", str(dst)]) == 0
                out[path] = dst.read_bytes()
            assert out[src] == out[bom], command[0]

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


class TestNonIncreasingReferenceExit2:
    """A reference whose times go down or repeat is rejected before any
    output is written."""

    @pytest.mark.parametrize("times", [("2", "1", "0"), ("0", "0")],
                             ids=["descending", "repeated"])
    @pytest.mark.parametrize("argv", [["simulate", "--mode", "pd"],
                                      ["simulate", "--mode", "prescribed"],
                                      ["sweep", "--resolution", "4"]],
                             ids=["pd", "prescribed", "sweep"])
    def test_exit_2_writes_nothing(self, tmp_path, argv, times):
        src = tmp_path / "ref.csv"
        src.write_text("t,angle_deg,rate_deg_s\n" + "".join(
            f"{t},{10 * i},nan\n" for i, t in enumerate(times)))
        out = tmp_path / "out.csv"
        proc = run_subprocess([*argv, "--reference", str(src), "--output", str(out)])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "error: time grid must increase\n"
        assert not out.exists()
        assert not (tmp_path / "out.manifest.json").exists()


class TestNonFiniteScalarArguments:
    """A NaN, infinite or tiny scalar argument is refused with its exit code
    before anything is written."""

    @pytest.mark.parametrize("args", [["--frame-rate", "nan"], ["--frame-rate", "inf"],
                                      ["--frame-rate", "1000", "--scale", "nan"],
                                      ["--frame-rate", "1000", "--scale", "inf"]],
                             ids=["rate_nan", "rate_inf", "scale_nan", "scale_inf"])
    def test_reconstruct_exit_2(self, tmp_path, tracked_csv, capsys, args):
        out = tmp_path / "body.csv"
        assert run(["reconstruct", "--input", str(tracked_csv), "--segment", "Body",
                    "--output", str(out), *args]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("duration", ["nan", "inf"])
    def test_scale_exit_4(self, tmp_path, capsys, duration):
        src, out = tmp_path / "flip.csv", tmp_path / "out.csv"
        with open(src, "w") as f:
            traj.write_trajectory_csv(traj.synth_second_order(13.85, 0.043, 0.150,
                                                              1e-3), f)
        assert run(["scale", "--input", str(src), "--output", str(out),
                    "--target-duration", duration]) == 4
        assert capsys.readouterr().err.startswith(
            "error: target_duration must be finite and positive")
        assert not out.exists()

    @pytest.mark.parametrize("dt", ["1e-9", "1e-300", "1e-320"])
    def test_sweep_tiny_dt_exit_4(self, tmp_path, capsys, dt):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--dt", dt, "--output", str(out)]) == 4
        assert "MAX_SAMPLES" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_long_reference_exit_4(self, tmp_path, capsys):
        src, out = tmp_path / "long.csv", tmp_path / "pd.csv"
        src.write_text("t,angle_deg,rate_deg_s\n0,0,0\n1e300,10,0\n")
        assert run(["simulate", "--mode", "pd", "--reference", str(src),
                    "--output", str(out)]) == 4
        assert "MAX_SAMPLES" in capsys.readouterr().err
        assert not out.exists()


class TestJsonIntegerFieldsExit2:
    @pytest.mark.parametrize("token", ["1e400", "Infinity", "2.5"])
    def test_frame_count(self, tmp_path, token):
        src, out = tmp_path / "rec.json", tmp_path / "r.csv"
        src.write_text('{"frame_rate": 1000.0, "frame_count": %s, "unit": "pixel", '
                       '"tracks": [{"id": 1, "name": "Neck", "samples": '
                       '[{"frame": 0, "x": 1.0, "y": 2.0, "visible": true}]}]}' % token)
        proc = run_subprocess(["metrics", "--input", str(src), "--output", str(out)])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: frame_count must be a JSON integer")
        assert not out.exists()

    @pytest.mark.parametrize("token", ["true", '"1000"',
                                       pytest.param("1" + "0" * 400, id="1e400_integer")])
    def test_frame_rate(self, tmp_path, token):
        src, out = tmp_path / "rec.json", tmp_path / "r.csv"
        src.write_text('{"frame_rate": %s, "frame_count": 1, "unit": "pixel", '
                       '"tracks": [{"id": 1, "name": "Neck", "samples": '
                       '[{"frame": 0, "x": 1.0, "y": 2.0, "visible": true}]}]}' % token)
        proc = run_subprocess(["metrics", "--input", str(src), "--output", str(out)])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: frame_rate must be a JSON number")
        assert not out.exists()


class TestWindowMsTwoFiniteNumbers:
    """--window-ms is two finite numbers A:B; anything else exits 2 naming
    the option, before anything is written."""

    @pytest.mark.parametrize("window", ["nan:1", "1490:inf", "1:2:3", "abc:1", "-inf:1",
                                        "1", ""])
    def test_exit_2(self, tmp_path, tracked_csv, window):
        out = tmp_path / "body.csv"
        proc = run_subprocess(["reconstruct", "--input", str(tracked_csv), "--segment",
                               "Body", "--frame-rate", "1000", "--output", str(out),
                               f"--window-ms={window}"])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: --window-ms must be two finite numbers")
        assert list(tmp_path.iterdir()) == [tracked_csv]

    def test_window_in_ms(self, tmp_path, capsys):
        src, out = tmp_path / "pose.csv", tmp_path / "w.csv"
        src.write_text(rest_pose_csv(5))
        assert run(["reconstruct", "--input", str(src), "--output", str(out),
                    "--segment", "Body", "--frame-rate", "1000", "--scale", "1.0",
                    "--window-ms", "1:3.5"]) == 0
        assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == \
            ["0.000000", "0.001000", "0.002000"]
        assert "3 valid of 3" in capsys.readouterr().out

    @pytest.mark.parametrize("option", ["--window-ms", "--win"])
    def test_window_starting_with_minus_after_a_space(self, tmp_path, option):
        # argparse takes a value such as -5:10 for an option unless it is joined
        src = tmp_path / "pose.csv"
        src.write_text(rest_pose_csv(20))
        common = ["reconstruct", "--input", str(src), "--segment", "Body",
                  "--frame-rate", "1000", "--scale", "1.0"]
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        proc = run_subprocess([*common, "--output", str(spaced), option, "-5:10"])
        assert proc.returncode == 0, proc.stderr
        assert "11 valid of 11" in proc.stdout
        assert run_subprocess([*common, "--output", str(joined),
                               "--window-ms=-5:10"]).returncode == 0
        assert spaced.read_bytes() == joined.read_bytes()
        proc = run_subprocess([*common, "--output", str(tmp_path / "inf.csv"),
                               "--window-ms", "-inf:1"])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: --window-ms must be two finite numbers")


class TestPlaybackNotFiniteExit5:
    def test_exit_5_writes_nothing(self, tmp_path):
        # every value is finite, but the mass matrix of these offsets is not
        cfg, out = tmp_path / "huge.cfg", tmp_path / "prescribed.csv"
        cfg.write_text("mode = PlanarOffset\nhinge_offset = 1e200\narm_cm_offset = 1e200\n")
        proc = run_subprocess(["simulate", "--mode", "prescribed", "--config", str(cfg),
                               "--output", str(out)])
        assert proc.returncode == 5
        assert proc.stderr == "error: playback is not finite at t = 0.000 s\n"
        assert not out.exists()

    def test_base_angle_overflows_in_degrees(self, tmp_path):
        # the base angle is finite in radians from t = 5 s, but not in degrees
        cfg, ref, out = tmp_path / "unit.cfg", tmp_path / "ref.csv", tmp_path / "out.csv"
        cfg.write_text("base_inertia = 1\narm_inertia_cm = 1\n")
        ref.write_text("t,angle_deg,rate_deg_s\n0,0,1.7e308\n5,0,1.7e308\n10,0,1.7e308\n")
        proc = run_subprocess(["simulate", "--mode", "prescribed", "--config", str(cfg),
                               "--reference", str(ref), "--output", str(out)])
        assert (proc.returncode, proc.stdout) == (5, "")
        assert proc.stderr == "error: playback is not finite at t = 5.000 s\n"
        assert not out.exists()
        assert not out.with_suffix(".manifest.json").exists()


class TestHugeCoordinatesExit2:
    """A finite coordinate beyond keypoints.MAX_COORDINATE is refused before
    its squares overflow into an output."""

    MESSAGE = "error: track 1: visible coordinate beyond MAX_COORDINATE = 1e+75\n"

    def test_metrics(self, tmp_path):
        src, out = tmp_path / "huge.json", tmp_path / "report.csv"
        src.write_text(json.dumps({"frame_rate": 1000.0, "frame_count": 10,
                                   "unit": "pixel", "tracks": [
            {"id": 1, "name": "Neck", "samples": [
                {"frame": f, "x": s * 1e308, "y": s * 1e308, "visible": True}
                for f, s in enumerate([1.0, -1.0] * 5)]}]}))
        proc = run_subprocess(["metrics", "--input", str(src), "--output", str(out)])
        assert (proc.returncode, proc.stderr) == (2, self.MESSAGE)
        assert not out.exists()

    @pytest.mark.parametrize("world", [False, True], ids=["3d_json", "2d_scale"])
    def test_reconstruct(self, tmp_path, tracked_csv, world):
        src, out = tmp_path / "huge.json", tmp_path / "body.csv"
        if world:  # a pixel recording whose world coordinates overflow a float
            args = ["--input", str(tracked_csv), "--frame-rate", "1000", "--scale", "1e307"]
        else:
            body = {1: (1e308, 0.0, 0.0), 21: (-1e308, 0.0, 0.0), 12: (0.0, -1e308, 0.0),
                    13: (0.0, 1e308, 0.0)}
            src.write_text(json.dumps({"frame_rate": 1000.0, "frame_count": 3,
                                       "unit": "meter", "tracks": [
                {"id": kid, "name": keypoints.KEYPOINT_NAMES[kid], "samples": [
                    {"frame": f, "x": x, "y": y, "z": z, "visible": True} for f in range(3)]}
                for kid, (x, y, z) in body.items()]}))
            args = ["--input", str(src)]
        proc = run_subprocess(["reconstruct", *args, "--segment", "Body",
                               "--output", str(out)])
        assert (proc.returncode, proc.stderr) == (2, self.MESSAGE)
        assert not out.exists()


class TestSameOutputFromCsvAndJson:
    """A generated recording (2D, pixels) and its pixel_to_world output
    (3D, meters), each as CSV and as JSON, give the same bytes for the
    metrics, a segment series and a leg relative to the body."""

    COMMANDS = {
        "metrics": ["metrics"],
        "body": ["reconstruct", "--segment", "Body", "--window-ms", "1490:1640"],
        "leg": ["reconstruct", "--segment", "LeftFrontLeg", "--relative-to-body",
                "--window-ms", "1490:1640"],
    }

    def test_benchmark_recording(self, tmp_path):
        benchmark_recording(tmp_path, 11)
        pixels = keypoints.load_dataset(tmp_path / "tracks.csv", frame_rate=1000)
        world = keypoints.pixel_to_world(
            pixels, keypoints.PlanarCalibration(0.001, (0.0, 0.0)))
        out = {}
        for dim, dataset in (("2d", pixels), ("3d", world)):
            for fmt in ("csv", "json"):
                src = tmp_path / f"{dim}.{fmt}"
                with open(src, "w") as f:
                    keypoints.save_dataset(dataset, f, format=fmt)
                for what, command in self.COMMANDS.items():
                    dst = tmp_path / f"{what}_{dim}_{fmt}.csv"
                    assert run([*command, "--input", str(src), "--frame-rate", "1000",
                                "--output", str(dst)]) == 0
                    out[what, dim, fmt] = dst.read_bytes()
            for what in self.COMMANDS:
                assert out[what, dim, "csv"] == out[what, dim, "json"], (what, dim)
        assert out["body", "2d", "csv"] == out["body", "3d", "csv"]


def test_bench_record_refuses_a_checkout_holding_bytecode(tmp_path, monkeypatch):
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    checkout = tmp_path / "checkout"
    cached = checkout / "src" / "bioright" / "__pycache__"
    cached.mkdir(parents=True)
    (cached / "cli.cpython-311.pyc").write_bytes(b"")
    monkeypatch.setattr(tool, "ROOT", tmp_path)

    def no_run(*args, **kwargs):
        raise AssertionError("a run started")
    monkeypatch.setattr(tool.subprocess, "run", no_run)
    with pytest.raises(SystemExit) as refused:
        tool.main(["99", "--checkout", str(checkout)])
    assert refused.value.code != 0
    assert str(cached) in str(refused.value.code)
    assert not list(tmp_path.rglob("BENCH_*.json"))


def test_canonical_outputs_file_list(tmp_path):
    """tools/canonical_outputs.py writes every canonical output and no manifest."""
    path = Path(__file__).resolve().parents[1] / "tools" / "canonical_outputs.py"
    spec = importlib.util.spec_from_file_location("canonical_outputs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.main([str(tmp_path / "out")])
    series = ["Body", "Tail", "LeftFrontLeg", "LeftHindLeg", "RightFrontLeg",
              "RightHindLeg", "LeftFrontLeg_rel", "LeftHindLeg_rel", "RightFrontLeg_rel",
              "RightHindLeg_rel", "metrics"]
    want = {f"{what}_{dim}_{fmt}.csv" for what in series
            for dim in ("2d", "3d") for fmt in ("csv", "json")}
    want |= {"reference.csv", "reference.metrics.json", "planar_prescribed.csv",
             "planar_pd.csv", "planar_sweep.csv",
             *(f"demo/{name}.csv" for name in ("reference", "prescribed", "pd", "sweep")),
             *(f"inputs/recording/{name}" for name in (
                 "tracks.csv", "truth.json", "2d.json", "3d.csv", "3d.json")),
             *(f"inputs/replay/{name}"
               for name in ("lizard.csv", "planar.cfg", "truth.json"))}
    files = [p for p in (tmp_path / "out").rglob("*") if p.is_file()]
    assert {p.relative_to(tmp_path / "out").as_posix() for p in files} == want
    assert all(p.stat().st_size for p in files)
    # CSV and JSON give the same bytes, and so do the 2D Body and its 3D twin
    read = {name: (tmp_path / "out" / name).read_bytes() for name in want}
    for what in series:
        for dim in ("2d", "3d"):
            assert read[f"{what}_{dim}_csv.csv"] == read[f"{what}_{dim}_json.csv"], (what, dim)
    assert read["Body_2d_csv.csv"] == read["Body_3d_csv.csv"]
