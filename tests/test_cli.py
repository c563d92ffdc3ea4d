import hashlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bioright import cli, frames, keypoints, smsdyn, traj
from bioright.errors import BiorightError, SchemaError

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
                    "--segment", "Body", "--frame-rate", "1000"])
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
                    "--window-ms", "5000:6000"])
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


def _error_classes(cls=BiorightError):
    return [cls] + [c for sub in cls.__subclasses__() for c in _error_classes(sub)]


class TestExitCodePerErrorClass:
    """Each error class carries its exit code: README's table names the class
    under that code and no other, and main returns it for a failed command;
    a ValueError or an OSError exits 2."""

    ROWS = dict(re.findall(r"^\| (\d) \|(.*)$",
                           (Path(__file__).resolve().parents[1] / "README.md").read_text(),
                           re.M))

    @pytest.mark.parametrize("cls", _error_classes() + [ValueError, OSError],
                             ids=lambda cls: cls.__name__)
    def test_readme_row_and_main(self, cls, monkeypatch, capsys):
        code = cls.exit_code if issubclass(cls, BiorightError) else 2
        assert [int(c) for c, row in self.ROWS.items()
                if f"`{cls.__name__}`" in row] == [code]

        def fail(args):
            raise cls(f"{cls.__name__} raised")

        monkeypatch.setattr(cli, "cmd_sweep", fail)
        assert run(["sweep", "--output", "unused.csv"]) == code
        assert capsys.readouterr().err == f"error: {cls.__name__} raised\n"


def child_env():
    """The environment of a fresh interpreter that imports this bioright."""
    return dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))


def run_subprocess(argv):
    """The CLI in a fresh interpreter, as a user runs it; a Python warning
    on its stderr fails the test."""
    proc = subprocess.run([sys.executable, "-m", "bioright.cli", *argv],
                          capture_output=True, text=True, env=child_env(), timeout=60)
    assert not re.search(r":\d+: \w*Warning: ", proc.stderr), proc.stderr
    return proc


def run_piped(argv, data):
    """The CLI's exit code in a fresh interpreter, with PIPE in argv naming a
    pipe that carries data, as a shell names `<(cat file)`."""
    read_end, write_end = os.pipe()
    argv = [arg.replace("PIPE", f"/dev/fd/{read_end}") for arg in argv]
    with subprocess.Popen([sys.executable, "-m", "bioright.cli", *argv], env=child_env(),
                          pass_fds=(read_end,)) as proc:
        os.close(read_end)
        with open(write_end, "wb") as f:
            f.write(data)
        return proc.wait(timeout=60)


def trajectory_bytes():
    """A reference trajectory CSV: the surrogate step response at dt = 0.5 s."""
    buf = io.StringIO()
    traj.write_trajectory_csv(traj.synth_second_order(13.85, 64.5, 225.0, 0.5), buf)
    return buf.getvalue().encode()


#: The script of a child interpreter that runs the CLI on argv[2:] and prints
#: how many times it opened each of the comma-separated paths in argv[1].
COUNT_OPENS = """import sys
from bioright import cli
opened = []
sys.addaudithook(lambda event, args: opened.append(args[0]) if event == "open" else None)
code = cli.main(sys.argv[2:])
print(code, *[list(map(str, opened)).count(path) for path in sys.argv[1].split(",")])
"""


#: The script of a child interpreter that runs the CLI on argv[1:] and prints,
#: as its last line, the JSON list of every path it opened for writing and of
#: every [source, destination] of a rename (os.replace raises that event).
AUDIT_WRITES = """import json, os, sys
from bioright import cli
writes, renames = [], []
def hook(event, args):
    if event == "open" and args[2] & (os.O_WRONLY | os.O_RDWR):
        writes.append(str(args[0]))
    elif event == "os.rename":
        renames.append([str(args[0]), str(args[1])])
sys.addaudithook(hook)
code = cli.main(sys.argv[1:])
print(json.dumps([code, writes, renames]))
"""


def modules_after(statement):
    """The names in sys.modules after `statement`, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", f"{statement}\nimport sys; print(*sorted(sys.modules))"],
        capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


class TestImportPerCommand:
    """`import bioright.cli` loads what the simulator commands use; metrics
    and reconstruct load the keypoint stack when they run."""

    def test_cli_import_set(self):
        loaded = modules_after("import bioright.cli")
        assert {"bioright.traj", "bioright.smsdyn", "bioright.objective"} <= loaded
        assert not {"bioright.keypoints", "bioright.frames", "bioright.rotmath",
                    "bioright.track_quality"} & loaded
        # the manifest hashes with the built-in SHA-256, so no command maps
        # OpenSSL; an interpreter built without it falls back to hashlib
        if any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")):
            assert not {"hashlib", "_hashlib"} & loaded

    def test_from_bioright_import_loads_the_submodule(self):
        assert not any(m.startswith("bioright.") for m in modules_after("import bioright"))
        loaded = modules_after("from bioright import frames, keypoints, track_quality")
        assert {"bioright.frames", "bioright.rotmath", "bioright.keypoints",
                "bioright.track_quality"} <= loaded
        assert "bioright.smsdyn" not in loaded
        modules_after("import bioright\nfrom bioright import *\n"
                      "assert all(name in globals() for name in bioright.__all__)")


class TestFailedCommandWritesNothing:
    """A failed command leaves no file behind."""

    def test_scale_step_metrics_of_a_flat_trajectory(self, tmp_path):
        src = tmp_path / "flat.csv"
        src.write_text("t,angle_deg,rate_deg_s\n0,1,0\n1,1,0\n2,1,0\n")
        proc = run_subprocess(["scale", "--input", str(src), "--output",
                               str(tmp_path / "out.csv"), "--target-duration", "10",
                               "--step-metrics"])
        assert proc.returncode == 4
        assert proc.stderr == "error: initial and final values coincide\n"
        assert [p.name for p in tmp_path.iterdir()] == ["flat.csv"]

    def test_demo_steady_time_outside_the_reference(self, tmp_path):
        out = tmp_path / "demo"
        proc = run_subprocess(["demo", "--dt", "20", "--output-dir", str(out)])
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr == "error: steady_time outside the trajectory span\n"
        assert not out.exists()

    def test_demo_with_a_directory_at_its_third_output(self, tmp_path, capsys):
        out = tmp_path / "demo"
        (out / "pd.csv").mkdir(parents=True)
        assert run(["demo", "--dt", "0.5", "--resolution", "2", "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: [Errno 21] Is a directory: '{out / 'pd.csv'}'\n"
        assert [p.name for p in out.iterdir()] == ["pd.csv"]

    def test_scale_step_metrics_with_a_directory_at_the_metrics(self, tmp_path):
        (src := tmp_path / "in.csv").write_bytes(trajectory_bytes())
        (tmp_path / "out.metrics.json").mkdir()
        assert run(["scale", "--input", str(src), "--output", str(tmp_path / "out.csv"),
                    "--target-duration", "100", "--step-metrics"]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "out.metrics.json"]

    def test_scale_onto_its_own_input_keeps_the_input(self, tmp_path):
        (path := tmp_path / "x.csv").write_bytes(data := trajectory_bytes())
        (tmp_path / "x.metrics.json").mkdir()
        assert run(["scale", "--input", str(path), "--output", str(path),
                    "--target-duration", "100", "--step-metrics"]) == 2
        assert path.read_bytes() == data
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv", "x.metrics.json"]

    def test_a_writer_that_fails_after_its_header(self, tmp_path, monkeypatch, capsys):
        def fail(result, f):
            f.write("t,phi_deg\n")
            raise OSError("disk full")

        monkeypatch.setattr(smsdyn, "write_trajectory_csv", fail)
        assert run(["simulate", "--dt", "0.5", "--output", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == "error: disk full\n"
        assert list(tmp_path.iterdir()) == []

    def test_a_leftover_partial_file_is_refused_and_kept(self, tmp_path, capsys):
        staged = tmp_path / "o.csv.partial"
        staged.write_bytes(data := b"t,phi_deg\n0,")
        assert run(["simulate", "--dt", "0.5", "--output", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{staged}'\n"
        assert staged.read_bytes() == data
        assert [p.name for p in tmp_path.iterdir()] == ["o.csv.partial"]


class TestManifestDigest:
    """config_digest is the SHA-256 of the config's bytes, then each input's,
    as the command read them, from the interpreter's built-in SHA-256 rather
    than OpenSSL's."""

    #: A command with INPUT for its one input, and that input's bytes.
    ONE_INPUT = {
        "metrics": (["metrics", "--input", "INPUT", "--frame-rate", "1000"],
                    full_csv_dataset(frame_count=60).encode()),
        "reconstruct": (["reconstruct", "--input", "INPUT", "--segment", "Body",
                         "--frame-rate", "1000"], rest_pose_csv(5).encode()),
        "scale": (["scale", "--input", "INPUT", "--target-duration", "100"],
                  trajectory_bytes()),
        "simulate_config": (["simulate", "--config", "INPUT", "--dt", "0.5"],
                            COAXIAL_CONFIG.encode()),
    }

    def test_simulate_config_then_reference(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(COAXIAL_CONFIG)
        ref = tmp_path / "ref.csv"
        with open(ref, "w") as f:
            traj.write_trajectory_csv(traj.synth_second_order(13.85, 64.5, 225.0, 0.5), f)
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--config", str(cfg), "--reference", str(ref),
                    "--output", str(out)]) == 0
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        want = hashlib.sha256(cfg.read_bytes() + ref.read_bytes()).hexdigest()
        assert manifest["config_digest"] == want

    def test_metrics_input_of_several_read_blocks(self, tmp_path):
        data = tmp_path / "tracks.csv"
        data.write_text(full_csv_dataset(frame_count=200))
        assert data.stat().st_size > 2 * traj.READ_BLOCK
        out = tmp_path / "report.csv"
        assert run(["metrics", "--input", str(data), "--output", str(out),
                    "--frame-rate", "1000"]) == 0
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["config_digest"] == hashlib.sha256(data.read_bytes()).hexdigest()

    def test_demo_digests_nothing(self, tmp_path):
        out = tmp_path / "demo"
        assert run(["demo", "--output-dir", str(out), "--dt", "0.5",
                    "--resolution", "2"]) == 0
        manifest = json.loads((out / "reference.manifest.json").read_text())
        assert manifest["inputs"] == []
        assert manifest["config_digest"] == hashlib.sha256(b"").hexdigest()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    @pytest.mark.parametrize("command", ONE_INPUT)
    def test_a_piped_input_digests_as_its_file(self, tmp_path, command):
        argv, data = self.ONE_INPUT[command]
        src = tmp_path / "input.csv"
        src.write_bytes(data)
        from_file, from_pipe = tmp_path / "file.csv", tmp_path / "pipe.csv"
        assert run([arg.replace("INPUT", str(src)) for arg in argv]
                   + ["--output", str(from_file)]) == 0
        assert run_piped([arg.replace("INPUT", "PIPE") for arg in argv]
                         + ["--output", str(from_pipe)], data) == 0
        assert from_pipe.read_bytes() == from_file.read_bytes()
        for out in (from_file, from_pipe):
            manifest = json.loads(out.with_suffix(".manifest.json").read_text())
            assert manifest["config_digest"] == hashlib.sha256(data).hexdigest(), out.name

    def test_scale_onto_its_own_input_digests_the_input(self, tmp_path):
        path = tmp_path / "ref.csv"
        path.write_bytes(data := trajectory_bytes())
        assert run(["scale", "--input", str(path), "--output", str(path),
                    "--target-duration", "100"]) == 0
        assert path.read_bytes() != data
        manifest = json.loads(path.with_suffix(".manifest.json").read_text())
        assert manifest["inputs"] == manifest["outputs"] == [str(path)]
        assert manifest["config_digest"] == hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("command", ["simulate", "metrics"])
    def test_each_input_opened_once(self, tmp_path, command):
        if command == "simulate":
            cfg, ref = tmp_path / "run.cfg", tmp_path / "ref.csv"
            cfg.write_text(COAXIAL_CONFIG)
            ref.write_bytes(trajectory_bytes())
            inputs = [cfg, ref]
            argv = ["simulate", "--config", str(cfg), "--reference", str(ref)]
        else:
            data = tmp_path / "tracks.csv"
            data.write_text(full_csv_dataset(frame_count=200))
            assert data.stat().st_size > 2 * traj.READ_BLOCK
            inputs = [data]
            argv = ["metrics", "--input", str(data), "--frame-rate", "1000"]
        proc = subprocess.run([sys.executable, "-c", COUNT_OPENS, ",".join(map(str, inputs)),
                               *argv, "--output", str(tmp_path / "out.csv")],
                              capture_output=True, text=True, env=child_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-1 - len(inputs):] == ["0"] + ["1"] * len(inputs)

    @pytest.mark.parametrize("command", ["demo", "scale"])
    def test_outputs_arrive_only_by_rename(self, tmp_path, command):
        # every file is written as its PATH.partial and moved onto PATH once,
        # in the order the command made them, with the manifest last
        if command == "demo":
            out = tmp_path / "demo"
            argv = ["demo", "--dt", "0.5", "--resolution", "2", "--output-dir", str(out)]
            outputs = [out / name for name in ("reference.csv", "prescribed.csv", "pd.csv",
                                               "sweep.csv", "reference.manifest.json")]
        else:
            (src := tmp_path / "in.csv").write_bytes(trajectory_bytes())
            argv = ["scale", "--input", str(src), "--output", str(tmp_path / "out.csv"),
                    "--target-duration", "100", "--step-metrics"]
            outputs = [tmp_path / name for name in ("out.csv", "out.metrics.json",
                                                    "out.manifest.json")]
        proc = subprocess.run([sys.executable, "-c", AUDIT_WRITES, *argv],
                              capture_output=True, text=True, timeout=60,
                              env=dict(child_env(), PYTHONDONTWRITEBYTECODE="1"))
        assert proc.returncode == 0, proc.stderr
        code, writes, renames = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0
        assert writes == [f"{path}.partial" for path in outputs]
        assert renames == [[f"{path}.partial", str(path)] for path in outputs]

    @pytest.mark.parametrize("missing", ["--config", "--reference"])
    def test_missing_input_exits_2_and_writes_nothing(self, tmp_path, capsys, missing):
        paths = {"--config": tmp_path / "run.cfg", "--reference": tmp_path / "ref.csv"}
        paths["--config"].write_text(COAXIAL_CONFIG)
        paths["--reference"].write_bytes(trajectory_bytes())
        paths[missing] = tmp_path / "gone"
        assert run(["simulate", "--config", str(paths["--config"]),
                    "--reference", str(paths["--reference"]),
                    "--output", str(tmp_path / "sim.csv")]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ref.csv", "run.cfg"]
        assert "gone" in capsys.readouterr().err


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
        assert proc.stderr.startswith("error: track 1: 2D positions in a meter dataset")

    def test_unknown_segment_exit_2_before_the_input_is_read(self, tmp_path):
        proc = run_subprocess(["reconstruct", "--input", str(tmp_path / "gone.csv"),
                               "--output", str(tmp_path / "neck.csv"), "--segment", "Neck"])
        assert proc.returncode == 2
        assert "'Neck'" in proc.stderr and "gone.csv" not in proc.stderr
        assert all(s.value in proc.stderr for s in frames.Segment)

    def test_no_valid_frame_exit_3(self, tmp_path):
        src = tmp_path / "empty.json"
        src.write_text(json.dumps({
            "frame_rate": 1000, "frame_count": 0, "unit": "pixel",
            "tracks": [{"id": 1, "name": "Neck", "samples": []}]}))
        out = tmp_path / "body.csv"
        proc = run_subprocess(["reconstruct", "--input", str(src), "--output", str(out),
                               "--segment", "Body"])
        assert proc.returncode == 3
        assert proc.stderr == "error: no valid frames for Body\n"
        assert not out.exists()

    def test_reversed_window_exit_4(self, tmp_path):
        src = tmp_path / "pose.csv"
        src.write_text(rest_pose_csv(5))
        proc = run_subprocess(["reconstruct", "--input", str(src), "--output",
                               str(tmp_path / "w.csv"), "--segment", "Body",
                               "--frame-rate", "1000", "--window-ms", "3:1"])
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


class TestPdGridEndsAtReferenceEnd:
    """A --dt whose PD grid misses the reference's last time exits 4 before
    anything is written, in `simulate --mode pd` and in `sweep`."""

    @pytest.fixture
    def reference(self, tmp_path):
        ref = tmp_path / "ref.csv"
        with open(ref, "w") as f:
            traj.write_trajectory_csv(traj.synth_second_order(13.85, 64.5, 225.0, 1.5), f)
        return ref

    @pytest.mark.parametrize("command", [["simulate", "--mode", "pd"], ["sweep"]])
    def test_dt_160_exit_4_writes_nothing(self, tmp_path, reference, command):
        proc = run_subprocess([*command, "--reference", str(reference), "--dt", "160",
                               "--output", str(tmp_path / "out.csv")])
        assert proc.returncode == 4
        assert proc.stderr == ("error: dt = 160 s ends the grid at 160 s, not at the "
                               "reference's last time 225 s\n")
        assert [p.name for p in tmp_path.iterdir()] == ["ref.csv"]


class TestDeeplyNestedJsonExit2:
    """JSON nested deeper than Python's recursion limit is a ParseError,
    not a RecursionError traceback."""

    @pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000,
                                      '{"a":' * 100_000 + "1" + "}" * 100_000],
                             ids=["array", "object"])
    @pytest.mark.parametrize("command", [["metrics"], ["reconstruct", "--segment", "Body"]],
                             ids=["metrics", "reconstruct"])
    def test_exit_2_writes_nothing(self, tmp_path, text, command):
        src = tmp_path / "deep.json"
        src.write_text(text)
        proc = run_subprocess([*command, "--input", str(src),
                               "--output", str(tmp_path / "out.csv")])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: bad JSON: maximum recursion depth exceeded")
        assert [p.name for p in tmp_path.iterdir()] == ["deep.json"]


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


class TestConfigValueNotANumber:
    @pytest.mark.parametrize("line", ["dt = abc", "kp =", "base_inertia = 3..1",
                                      "torque_limit = 1,5"])
    def test_exit_2_naming_line_and_key(self, tmp_path, capsys, line):
        config = tmp_path / "run.cfg"
        config.write_text(f"# comment\n{line}\n")
        code = run(["simulate", "--mode", "pd", "--config", str(config),
                    "--output", str(tmp_path / "out.csv")])
        assert code == 2
        key, _, value = (part.strip() for part in line.partition("="))
        assert capsys.readouterr().err == \
            f"error: config line 2: {key} must be a number, got {value!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


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
        assert proc.stderr.startswith("error: ") and \
            "3D positions in a pixel dataset, which is 2D" in proc.stderr
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
        assert out["csv"].endswith(b"\n0.004,22.9183118,0,0,1\n")

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

    @pytest.mark.parametrize("args", [["--frame-rate", "nan"], ["--frame-rate", "inf"]],
                             ids=["rate_nan", "rate_inf"])
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

    def test_negative_frame_count(self, tmp_path, capsys):
        src, out = tmp_path / "rec.json", tmp_path / "report.csv"
        src.write_text('{"frame_rate": 1000, "frame_count": -1, "unit": "pixel", '
                       '"tracks": [{"id": 1, "name": "Neck", "samples": []}]}')
        assert run(["metrics", "--input", str(src), "--output", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: frame_count must not be negative, got -1\n"
        assert not list(tmp_path.glob("report*"))


class TestJsonFieldTypeSweep:
    """Each field of a small valid recording, replaced in turn by a value of
    each JSON type, raises nothing out of main: `metrics` and `reconstruct`
    exit with a code README's table lists, and a failure prints one `error:`
    line and leaves nothing but the input behind."""

    BODY = {1: (300.0, 0.0), 21: (0.0, 0.0), 12: (250.0, -50.0), 13: (250.0, 50.0)}
    FIELDS = {"frame_rate": ("frame_rate",), "frame_count": ("frame_count",),
              "unit": ("unit",), "tracks": ("tracks",), "track": ("tracks", 0),
              "id": ("tracks", 0, "id"), "name": ("tracks", 0, "name"),
              "samples": ("tracks", 0, "samples"), "sample": ("tracks", 0, "samples", 0),
              **{key: ("tracks", 0, "samples", 0, key) for key in ("frame", "x", "visible")}}
    VALUES = {"null": None, "true": True, "0": 0, "-1": -1, "2.5": 2.5, "str": "x",
              "empty_list": [], "list": [1], "empty_object": {}, "object": {"a": 1},
              "400_digits": 10 ** 399, "nan": math.nan}

    @pytest.mark.parametrize("command", [["metrics"], ["reconstruct", "--segment", "Body"]],
                             ids=["metrics", "reconstruct"])
    @pytest.mark.parametrize("value", VALUES.values(), ids=list(VALUES))
    @pytest.mark.parametrize("field", FIELDS)
    def test_listed_exit_code(self, tmp_path, capsys, field, value, command):
        doc = {"frame_rate": 1000.0, "frame_count": 2, "unit": "pixel", "tracks": [
            {"id": kid, "name": keypoints.KEYPOINT_NAMES[kid], "samples": [
                {"frame": f, "x": x, "y": y, "visible": True} for f in range(2)]}
            for kid, (x, y) in self.BODY.items()]}
        *path, key = self.FIELDS[field]
        parent = doc
        for step in path:
            parent = parent[step]
        parent[key] = value
        src = tmp_path / "rec.json"
        src.write_text(json.dumps(doc))
        code = run([*command, "--input", str(src), "--output", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert str(code) in TestExitCodePerErrorClass.ROWS
        left = sorted(p.name for p in tmp_path.iterdir())
        if code == 0:
            assert (err, left) == ("", ["out.csv", "out.manifest.json", "rec.json"])
        else:
            assert re.fullmatch(r"error: [^\n]+\n", err), err
            assert left == ["rec.json"]


class TestJsonFrameRateArgument:
    """A JSON input names its frame rate: a --frame-rate must equal it."""

    @pytest.mark.parametrize("command", [["metrics"], ["reconstruct", "--segment", "Body"]])
    def test_differing_rate_exit_2(self, tmp_path, capsys, command):
        src, out = tmp_path / "rec.json", tmp_path / "out.csv"
        with open(src, "w") as f:
            keypoints.save_dataset(yawing_lizard(), f, format="json")
        assert run([*command, "--input", str(src), "--frame-rate", "7",
                    "--output", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: --frame-rate 7.0 differs from the input's frame_rate 1000.0\n"
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("command", [["metrics"], ["reconstruct", "--segment", "Body"]])
    def test_equal_rate_same_bytes(self, tmp_path, command):
        src = tmp_path / "rec.json"
        with open(src, "w") as f:
            keypoints.save_dataset(yawing_lizard(), f, format="json")
        out = {}
        for name, rate in (("none", []), ("equal", ["--frame-rate", "1000"])):
            dst = tmp_path / f"{name}.csv"
            assert run([*command, "--input", str(src), *rate, "--output", str(dst)]) == 0
            out[name] = dst.read_bytes()
        assert out["equal"] == out["none"]


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
                    "--segment", "Body", "--frame-rate", "1000",
                    "--window-ms", "1:3.5"]) == 0
        assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == \
            ["0", "0.001", "0.002"]
        assert "3 valid of 3" in capsys.readouterr().out

    @pytest.mark.parametrize("option", ["--window-ms", "--win"])
    def test_window_starting_with_minus_after_a_space(self, tmp_path, option):
        # argparse takes a value such as -5:10 for an option unless it is joined
        src = tmp_path / "pose.csv"
        src.write_text(rest_pose_csv(20))
        common = ["reconstruct", "--input", str(src), "--segment", "Body",
                  "--frame-rate", "1000"]
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

    @pytest.mark.parametrize("unit", ["meter"], ids=["3d_json"])
    def test_reconstruct(self, tmp_path, unit):
        src, out = tmp_path / "huge.json", tmp_path / "body.csv"
        body = {1: (1e308, 0.0, 0.0), 21: (-1e308, 0.0, 0.0), 12: (0.0, -1e308, 0.0),
                13: (0.0, 1e308, 0.0)}
        src.write_text(json.dumps({"frame_rate": 1000.0, "frame_count": 3,
                                   "unit": unit, "tracks": [
            {"id": kid, "name": keypoints.KEYPOINT_NAMES[kid], "samples": [
                {"frame": f, "x": x, "y": y, "z": z, "visible": True} for f in range(3)]}
            for kid, (x, y, z) in body.items()]}))
        proc = run_subprocess(["reconstruct", "--input", str(src), "--segment", "Body",
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


def test_meter_report_shows_the_movement_of_its_pixel_twin(tmp_path):
    """The report of a recording in meters carries the movement and variance
    its pixel twin's report does; at 2 decimals 22 of its 23 rows read 0.00."""
    benchmark_recording(tmp_path, 11)
    pixels = keypoints.load_dataset(tmp_path / "tracks.csv", frame_rate=1000)
    with open(tmp_path / "3d.csv", "w") as f:
        keypoints.save_dataset(keypoints.pixel_to_world(
            pixels, keypoints.PlanarCalibration(0.001, (0.0, 0.0))), f, format="csv")
    reports = []
    for src in ("tracks.csv", "3d.csv"):
        dst = tmp_path / f"report_{src}"
        assert run(["metrics", "--input", str(tmp_path / src), "--frame-rate", "1000",
                    "--output", str(dst)]) == 0
        reports.append([line.split(",") for line in dst.read_text().splitlines()[1:]])
    pixel, meter = reports
    assert sum(row[-1] == "too_sparse" for row in pixel) == 1
    for px, m in zip(pixel, meter, strict=True):
        assert (px[0], px[-1]) == (m[0], m[-1])
        for column, scale in ((2, 1e-3), (6, 1e-6)):  # avg_movement, pos_variance
            if px[column]:
                assert float(px[column]) > 0 and float(m[column]) > 0, (px, m)
                assert float(m[column]) == pytest.approx(float(px[column]) * scale,
                                                         rel=2e-8)
            else:
                assert m[column] == ""


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
    """tools/canonical_outputs.py writes every canonical output."""
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
    want |= {f"stdout/{Path(name).stem}.txt" for name in want
             if "/" not in name and not name.endswith(".json")} | {"stdout/demo.txt"}
    want |= {f"{name[:-4]}.manifest.json" for name in want
             if "/" not in name and name.endswith(".csv")} | {"demo/reference.manifest.json"}
    files = [p for p in (tmp_path / "out").rglob("*") if p.is_file()]
    assert {p.relative_to(tmp_path / "out").as_posix() for p in files} == want
    assert all(p.stat().st_size for p in files)
    # CSV and JSON give the same bytes, and so do the 2D Body and its 3D twin
    read = {name: (tmp_path / "out" / name).read_bytes() for name in want}
    for what in series:
        for dim in ("2d", "3d"):
            assert read[f"{what}_{dim}_csv.csv"] == read[f"{what}_{dim}_json.csv"], (what, dim)
    assert read["Body_2d_csv.csv"] == read["Body_3d_csv.csv"]
    # every file, stdout included, is byte for byte the one the digests were made from
    digests = Path(__file__).with_name("canonical_outputs.sha256").read_text().splitlines()
    made_with = digests.pop(0).removeprefix("# numpy ")
    if made_with != (numpy := ".".join(np.__version__.split(".")[:2])):
        pytest.skip(f"canonical digests were made with numpy {made_with}, this is "
                    f"numpy {numpy}: its float loops may differ in the last bit")
    got = {f"{hashlib.sha256(data).hexdigest()}  {name}" for name, data in read.items()}
    assert sorted(got ^ set(digests)) == []


class TestKeypointHeaderExit2:
    """A keypoint CSV whose header is neither layout exits 2 and writes nothing;
    a header with y after visible was read by column position, every y = 0
    as "invisible"."""

    @pytest.mark.parametrize("header", [
        "frame,keypoint_id,keypoint_name,x,visible,y",
        "frame,keypoint_id,keypoint_name,x,y,visible,z",
        "frame,keypoint_id,keypoint_name,x,y,visible,",
        "frame,keypoint_id,keypoint_name,x,y,visible,likelihood"])
    def test_refused(self, tmp_path, header):
        rows = "".join(f"{f},1,Neck,5.0,{f % 2},0{',0.5' * (header.count(',') - 5)}\n"
                       for f in range(4))
        src, out = tmp_path / "tracks.csv", tmp_path / "report.csv"
        src.write_text(f"{header}\n{rows}")
        proc = run_subprocess(["metrics", "--input", str(src), "--frame-rate", "1000",
                               "--output", str(out)])
        assert proc.returncode == 2
        assert proc.stderr == f"error: unexpected header {header.split(',')!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tracks.csv"]


class TestDimensionFollowsUnit:
    """A dataset is 2D in pixels or 3D in meters, the two kinds a CSV header
    names. Those two go through a CSV and a JSON file unchanged; any other kind
    is refused when it is built, and a JSON file of one exits 2 from every
    command that reads it. A 2D JSON document in meters had given a `metrics`
    report, and its CSV twin reloaded in pixels. A JSON file is refused as its
    dataset built by hand is, with the same message."""

    @pytest.mark.parametrize("dims, unit, refusal", [
        ((2, 2), "pixel", None),
        ((3, 3), "meter", None),
        ((2, 2), "meter", "track 1: 2D positions in a meter dataset, which is 3D"),
        ((3, 3), "pixel", "track 1: 3D positions in a pixel dataset, which is 2D"),
        ((2, 3), "pixel", "track 21: 3D positions in a pixel dataset, which is 2D"),
        ((3, 2), "meter", "track 21: 2D positions in a meter dataset, which is 3D"),
    ], ids=["2d_pixel", "3d_meter", "2d_meter", "3d_pixel", "mixed_pixel", "mixed_meter"])
    def test_kind(self, tmp_path, dims, unit, refusal):
        positions = {1: [[0.25, -0.5, 1.0], [np.nan] * 3, [0.1, 0.2, 0.3]],
                     21: [[-1.5, 2.0, 0.0], [3.0, 4.0, 5.0], [np.nan] * 3]}
        tracks = {}
        for kid, dim in zip(positions, dims):
            p = np.array(positions[kid])[:, :dim]
            tracks[kid] = keypoints.KeypointTrack(kid, keypoints.KEYPOINT_NAMES[kid], range(3),
                                                  p, ~np.isnan(p[:, 0]))
        if refusal is None:
            dataset = keypoints.KeypointDataset(tracks, 1000.0, 3, unit)
            for fmt in ("csv", "json"):
                text = io.StringIO()
                keypoints.save_dataset(dataset, text, format=fmt)
                again = keypoints.load_dataset(io.StringIO(text.getvalue()), format=fmt,
                                               frame_rate=1000.0)
                assert (again.unit, again.frame_count) == (unit, 3)
                for kid, track in tracks.items():
                    assert again.tracks[kid].positions.tobytes() == track.positions.tobytes()
            return
        with pytest.raises(SchemaError, match=f"^{re.escape(refusal)}$"):
            keypoints.KeypointDataset(tracks, 1000.0, 3, unit)
        src = tmp_path / "tracks.json"
        src.write_text(json.dumps({"frame_rate": 1000.0, "frame_count": 3, "unit": unit,
                                   "tracks": [{"id": kid, "name": track.name, "samples": [
                                       {"frame": f, "visible": v, **dict(zip("xyz", p))}
                                       for f, p, v in zip(range(3), track.positions.tolist(),
                                                          track.visible.tolist())]}
                                              for kid, track in tracks.items()]}))
        for command in (["metrics", "--output", str(tmp_path / "report.csv")],
                        ["reconstruct", "--output", str(tmp_path / "body.csv"),
                         "--segment", "Body"]):
            proc = run_subprocess([*command, "--input", str(src)])
            assert (proc.returncode, proc.stderr) == (2, f"error: {refusal}\n")
            assert sorted(p.name for p in tmp_path.iterdir()) == ["tracks.json"]

    @pytest.mark.parametrize("unit, refusal", [
        ("pixel", "track 1: 3D positions in a pixel dataset, which is 2D"),
        ("meter", "track 1: 2D positions in a meter dataset, which is 3D"),
    ], ids=["pixel", "meter"])
    def test_later_sample_of_the_other_kind(self, tmp_path, capsys, unit, refusal):
        # only the last sample of track 1 breaks the unit's rule: in pixels it
        # carries z, in meters it lacks z
        samples = [{"frame": f, "x": 1.0 + f, "y": 2.0, "visible": True} for f in range(3)]
        for s in samples[:-1] if unit == "meter" else samples[-1:]:
            s["z"] = 0.5
        src = tmp_path / "tracks.json"
        src.write_text(json.dumps({"frame_rate": 1000.0, "frame_count": 3, "unit": unit,
                                   "tracks": [{"id": 1, "name": "Neck", "samples": samples}]}))
        for command in (["metrics", "--output", str(tmp_path / "report.csv")],
                        ["reconstruct", "--output", str(tmp_path / "body.csv"),
                         "--segment", "Body"]):
            assert run([*command, "--input", str(src)]) == 2
            assert capsys.readouterr().err == f"error: {refusal}\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["tracks.json"]


class TestJsonListsAreLists:
    """A recording's "tracks" and each track's "samples" are JSON lists. A null,
    a 0 or an object is a ParseError (exit 2), not an empty list, and writes
    nothing; "tracks": [] is a recording without tracks (exit 3)."""

    @pytest.mark.parametrize("value", [None, 0, {}], ids=["null", "0", "object"])
    @pytest.mark.parametrize("field, error", [
        ("tracks", "tracks must be a JSON list"),
        ("samples", "track 21: samples must be a JSON list"),
    ], ids=["tracks", "samples"])
    def test_not_a_list_exit_2(self, tmp_path, capsys, field, error, value):
        doc = {"frame_rate": 1000.0, "frame_count": 1, "unit": "pixel", "tracks": [
            {"id": kid, "name": keypoints.KEYPOINT_NAMES[kid],
             "samples": [{"frame": 0, "x": 1.0, "y": 2.0, "visible": True}]}
            for kid in (1, 21)]}
        if field == "tracks":
            doc["tracks"] = value
        else:
            doc["tracks"][1]["samples"] = value
        src = tmp_path / "rec.json"
        src.write_text(json.dumps(doc))
        assert run(["metrics", "--input", str(src), "--output", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rec.json"]

    def test_empty_tracks_exit_3(self, tmp_path, capsys):
        src = tmp_path / "rec.json"
        src.write_text('{"frame_rate": 1000.0, "frame_count": 1, "unit": "pixel", "tracks": []}')
        assert run(["metrics", "--input", str(src), "--output", str(tmp_path / "out.csv")]) == 3
        assert capsys.readouterr().err == "error: no tracks\n"


class TestZeroBaseInertia:
    """A Coaxial model whose base has no inertia plays a reference back and
    prints an infinite inertia ratio; PD tracking of it has a singular mass
    matrix."""

    def test_prescribed_exit_0(self, tmp_path):
        cfg, out = tmp_path / "zero.cfg", tmp_path / "o.csv"
        cfg.write_text("base_inertia = 0\n")
        proc = run_subprocess(["simulate", "--mode", "prescribed", "--config", str(cfg),
                               "--dt", "0.5", "--output", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert "inertia_ratio=inf\n" in proc.stdout
        assert out.read_text().startswith("t,phi_deg,theta_deg")
        assert (tmp_path / "o.manifest.json").exists()

    def test_pd_exit_4(self, tmp_path):
        cfg, out = tmp_path / "zero.cfg", tmp_path / "o.csv"
        cfg.write_text("base_inertia = 0\n")
        proc = run_subprocess(["simulate", "--mode", "pd", "--config", str(cfg),
                               "--dt", "0.5", "--output", str(out)])
        assert proc.returncode == 4
        assert proc.stderr == "error: mass matrix not invertible\n"
        assert not out.exists()


class TestFrameRateTimesFiniteExit2:
    """A frame rate that puts the last frame at t = inf exits 2 from CSV and
    JSON alike, and writes nothing (it wrote 1 999 rows at t = inf)."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_refused(self, tmp_path, fmt):
        src, out = tmp_path / f"rec.{fmt}", tmp_path / "body.csv"
        with open(src, "w") as f:
            keypoints.save_dataset(yawing_lizard(), f, format=fmt)
        if fmt == "json":
            src.write_text(src.read_text().replace('"frame_rate": 1000.0',
                                                   '"frame_rate": 1e-320'))
        rate = ["--frame-rate", "1e-320"] if fmt == "csv" else []
        proc = run_subprocess(["reconstruct", "--input", str(src), *rate,
                               "--segment", "Body", "--output", str(out)])
        assert proc.returncode == 2
        assert proc.stderr == "error: frame_rate 1e-320 puts the last frame at t = inf\n"
        assert not out.exists()
