"""Batch command-line front-end.

Subcommands: metrics, reconstruct, scale, simulate, sweep, demo. Every
command writes plot-ready CSV plus a JSON run manifest next to the output,
each moved into place from PATH.partial once the command has returned, the
manifest last. A failure exits with its error class's exit_code (README's table).
"""

import argparse
import contextlib
import errno
import io
import json
import math
import os
import sys
import time
from pathlib import Path
try:  # the built-in SHA-256: hashlib would map OpenSSL into every command
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:  # an interpreter built without the built-in hashes
        from hashlib import sha256

import numpy as np

from . import __version__, objective, smsdyn, traj
from .errors import BiorightError, ParseError

# Surrogate reference characteristics (step-response triple).
SURROGATE_OVERSHOOT = 13.85
SURROGATE_RISE = 64.5
SURROGATE_DURATION = 225.0
PUBLISHED_SETTLE = 169.5


class _Hashed(io.FileIO):
    """An input file that feeds every byte read from it, in read order, to sha."""

    def __init__(self, path, sha):
        super().__init__(path)
        self.sha = sha

    def read(self, size=-1):
        data = super().read(size)
        self.sha.update(data)
        return data


class _Run(contextlib.ExitStack):
    """The files of one command, for its manifest: each input opened once, hashed
    as it is read and closed at exit; each output staged as PATH.partial, which
    commit moves into place and exit removes if it is still there."""

    def __init__(self):
        super().__init__()
        self.sha, self.inputs, self.outputs = sha256(), [], []

    def open(self, path):
        self.inputs.append(str(path))
        return self.enter_context(_Hashed(path, self.sha))

    def write(self, path, writer, value):
        with open(f"{path}.partial", "x") as f:  # never a file this run did not make
            self.callback(Path(f.name).unlink, missing_ok=True)
            writer(value, f)
        self.outputs.append(str(path))

    def commit(self, command):
        """Stage the manifest, refuse a directory at any target, then move each
        staged file onto its path, the manifest last; a failed move undoes none."""
        manifest = {"command": command, "inputs": self.inputs,
                    "config_digest": self.sha.hexdigest(), "outputs": list(self.outputs),
                    "tool_version": __version__,
                    "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
        self.write(Path(self.outputs[0]).with_suffix(".manifest.json"), _write_json, manifest)
        if taken := [path for path in self.outputs if os.path.isdir(path)]:
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), taken[0])
        for path in self.outputs:
            os.replace(f"{path}.partial", path)


def _write_json(value, f):
    f.write(json.dumps(value, indent=2) + "\n")


def _load_dataset_arg(args):
    """A .json input names its own frame rate, which a --frame-rate must equal."""
    from . import keypoints  # the simulator commands never load the keypoint stack
    source = args.run.open(args.input)
    if not str(args.input).endswith(".json"):
        return keypoints.load_dataset(source, format="csv", frame_rate=args.frame_rate)
    dataset = keypoints.load_dataset(source, format="json")
    if args.frame_rate not in (None, dataset.frame_rate):
        raise ValueError(f"--frame-rate {args.frame_rate!r} differs from the input's "
                         f"frame_rate {dataset.frame_rate!r}")
    return dataset


def cmd_metrics(args):
    from . import track_quality
    dataset = _load_dataset_arg(args)
    rows = track_quality.stability_report(dataset)
    args.run.write(args.output, track_quality.write_report_csv, rows)
    print(f"wrote {len(rows)} rows to {args.output}")


def _window_s(text):
    """--window-ms A:B as [A, B] in seconds; A and B must be finite numbers."""
    try:
        window = [float(x) / 1000.0 for x in text.split(":")]
    except ValueError:
        window = []
    if len(window) != 2 or not all(map(math.isfinite, window)):
        raise ParseError(f"--window-ms must be two finite numbers A:B, got {text!r}")
    return window


def cmd_reconstruct(args):
    from . import frames, keypoints
    if args.segment not in (names := [s.value for s in frames.Segment]):
        raise ValueError(f"--segment must be one of {', '.join(names)}, got {args.segment!r}")
    dataset = _load_dataset_arg(args)
    if dataset.unit == "pixel":  # a scale turns no direction, so no written angle depends
        # on it: it reaches only rotmath.EPS_LEN's degeneracy test and MAX_COORDINATE
        dataset = keypoints.pixel_to_world(dataset, keypoints.PlanarCalibration(0.001, (0, 0)))
    segment = frames.Segment(args.segment)
    series = frames.segment_series(dataset, segment)
    if args.relative_to_body and segment is not frames.Segment.BODY:
        body = frames.segment_series(dataset, frames.Segment.BODY)
        series = frames.relative_leg_series(series, body)
    if args.window_ms:
        series = frames.righting_window(series, *args.window_ms)
    args.run.write(args.output, frames.write_series_csv, series)
    print(f"wrote {int(series.valid.sum())} valid of {len(series.times)} "
          f"samples to {args.output}")


def cmd_scale(args):
    scaled = traj.time_scale(_read_trajectory(args.run, args.input), args.target_duration)
    args.run.write(args.output, traj.write_trajectory_csv, scaled)
    if args.step_metrics:
        m = traj.step_metrics(scaled, steady_time=scaled.times[-1]).as_dict()
        for key, value in m.items():
            print(f"{key}={value}")
        args.run.write(Path(args.output).with_suffix(".metrics.json"), _write_json, m)


def _read_trajectory(run, path):
    """A trajectory CSV, differentiated when it carries no rates."""
    trajectory = traj.read_trajectory_csv(run.open(path))
    return traj.differentiate(trajectory) if trajectory.rate is None else trajectory


def _load_run(args):
    """Config, model and reference (default: surrogate) of simulate, sweep and
    demo; every run argument is checked before the reference is built or read."""
    cfg = smsdyn.parse_config(traj._as_text(args.run.open(args.config))) if args.config \
        else dict(smsdyn.CONFIG_DEFAULTS)
    if args.dt is not None:
        cfg["dt"] = args.dt
    if not math.isfinite(cfg["dt"]):
        raise ValueError(f"dt must be finite, got {cfg['dt']}")
    if not cfg["dt"] > 0:
        raise ValueError("dt must be positive")
    if args.resolution is not None:
        objective.check_resolution(args.resolution)
    params = smsdyn.params_from_config(cfg)
    reference = _read_trajectory(args.run, args.reference) if args.reference is not None \
        else traj.synth_second_order(SURROGATE_OVERSHOOT, SURROGATE_RISE,
                                     SURROGATE_DURATION, cfg["dt"])
    return cfg, params, reference


def _simulate(mode, cfg, params, reference, run=None, output=None):
    """Prescribed playback or PD tracking of the reference from cfg's base
    angle (with its gains and dt), written to the run's output when one is given."""
    phi0 = math.radians(cfg["base_angle0_deg"])
    if mode == "prescribed":
        result = smsdyn.simulate_prescribed(params, reference, base_angle0=phi0)
    else:
        result = smsdyn.simulate_pd(params, reference,
                                    smsdyn.gains_from_config(cfg), cfg["dt"],
                                    base_angle0=phi0)
    if output is not None:
        run.write(output, smsdyn.write_trajectory_csv, result)
    return result


def cmd_simulate(args):
    if args.mode == "prescribed" and args.reference is not None and args.dt is not None:
        raise ValueError("--dt does not apply to prescribed playback of a --reference "
                         "file: playback runs on the file's own time grid")
    cfg, params, reference = _load_run(args)
    result = _simulate(args.mode, cfg, params, reference, args.run, args.output)
    dphi = np.degrees(np.max(np.abs(result.base_angle - result.base_angle[0])))
    peak_rate = np.degrees(np.max(np.abs(result.base_rate)))
    drift = np.max(np.abs(result.momentum - result.momentum[0]))
    ratio = smsdyn.inertia_ratio(params)
    print(f"max|delta_phi|_deg={dphi:.4f}")
    print(f"max|phi_rate|_deg_s={peak_rate:.6f}")
    print(f"momentum_drift={drift:.3e}")
    print(f"inertia_ratio={ratio:.4f}")
    if abs(params.base_inertia - smsdyn.CONFIG_DEFAULTS["base_inertia"]) < 1e-9:
        # The published 0.056 is not reproducible from 360/6200; both shown.
        print("inertia_ratio_reported=0.056 "
              "(published value; derivation ambiguous, raw ratio is "
              f"{ratio:.4f})")


def cmd_sweep(args):
    cfg, params, reference = _load_run(args)
    pd_run = _simulate("pd", cfg, params, reference)
    report = _sweep(args.resolution, pd_run, cfg, args.run, args.output)
    print(f"wrote {len(report.rows)} rows to {args.output}")


def _sweep(resolution, pd_run, cfg, run, path):
    """Weight sweep of a PD run, scored against its final base angle."""
    context = objective.ObjectiveContext(rate_limit=math.radians(0.30),
                                         base_angle_target=pd_run.base_angle[-1],
                                         torque_limit=cfg["torque_limit"])
    report = objective.weight_sweep(resolution, pd_run, context)
    run.write(path, objective.write_report_csv, report)
    return report


def cmd_demo(args):
    """`simulate` (both modes) and `sweep` on the defaults, into one directory."""
    cfg, params, reference = _load_run(args)
    m = traj.step_metrics(reference, steady_time=SURROGATE_DURATION)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    args.run.write(out / "reference.csv", traj.write_trajectory_csv, reference)
    print(f"surrogate: rise={m.rise_time:.2f}s settle={m.settling_time:.2f}s "
          f"overshoot={m.overshoot:.2f}%")
    print(f"published triple: rise={SURROGATE_RISE}s "
          f"settle={PUBLISHED_SETTLE}s overshoot={SURROGATE_OVERSHOOT}% "
          "(settle not attainable by a 2nd-order fit; see README)")

    prescribed = _simulate("prescribed", cfg, params, reference, args.run,
                           out / "prescribed.csv")
    dphi = np.degrees(prescribed.base_angle[-1] - prescribed.base_angle[0])
    sweep = prescribed.joint_angle[-1] - prescribed.joint_angle[0]
    print(f"prescribed playback: delta_phi={dphi:.3f} deg "
          f"(closed form {np.degrees(smsdyn.base_reaction_estimate(params, sweep)):.3f}"
          f" deg for the {np.degrees(sweep):.3f} deg sweep)")

    pd_run = _simulate("pd", cfg, params, reference, args.run, out / "pd.csv")
    peak_rate = np.degrees(np.max(np.abs(pd_run.base_rate)))
    print(f"pd tracking: peak base rate={peak_rate:.4f} deg/s "
          "(target < 0.15 deg/s)")

    report = _sweep(args.resolution, pd_run, cfg, args.run, out / "sweep.csv")
    print(f"sweep: {len(report.rows)} weight vectors, "
          f"argmin J={report.argmin.J:.6g}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bioright",
        description="Keypoint-to-spacecraft righting-motion toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    recording = argparse.ArgumentParser(add_help=False)  # metrics and reconstruct
    recording.add_argument("--input", required=True)
    recording.add_argument("--output", required=True)
    recording.add_argument("--frame-rate", type=float, default=None)
    simulator = argparse.ArgumentParser(add_help=False)  # simulate and sweep
    simulator.add_argument("--config", default=None)
    simulator.add_argument("--reference", default=None,
                           help="joint trajectory CSV (default: surrogate)")
    simulator.add_argument("--output", required=True)
    simulator.add_argument("--dt", type=float, default=None)

    p = sub.add_parser("metrics", parents=[recording], help="tracking-quality stability report")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("reconstruct", parents=[recording], help="segment orientation series")
    p.add_argument("--segment", required=True, help="a frames.Segment name, such as Body")
    p.add_argument("--window-ms", default=None, metavar="A:B", type=_window_s)
    p.add_argument("--relative-to-body", action="store_true")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("scale", help="time-scale a trajectory")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--target-duration", type=float, required=True)
    p.add_argument("--step-metrics", action="store_true")
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("simulate", parents=[simulator], help="run the free-floating simulator")
    p.add_argument("--mode", choices=["prescribed", "pd"], default="prescribed")
    p.set_defaults(func=cmd_simulate, resolution=None)

    p = sub.add_parser("sweep", parents=[simulator], help="objective weight sweep")
    p.add_argument("--resolution", type=int, default=4)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("demo", help="synth -> simulate -> sweep chain")
    p.add_argument("--output-dir", default="demo_out")
    p.add_argument("--resolution", type=int, default=4)
    p.add_argument("--dt", type=float, default=None)
    p.set_defaults(func=cmd_demo, config=None, reference=None)
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):  # argparse reads -5:10 as an option
        option = argv[i - 1]  # --window-ms or a prefix argparse expands to it
        if len(option) > 2 and "--window-ms".startswith(option) and argv[i][:2] != "--":
            argv[i - 1:i + 1] = [f"{option}={argv[i]}"]
    try:  # a --window-ms that is not two finite numbers fails in parse_args
        args = build_parser().parse_args(argv)
        with _Run() as args.run:  # closes every input and removes what is still staged
            args.func(args)
            args.run.commit(args.command)
        return 0
    except (BiorightError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, BiorightError) else 2


if __name__ == "__main__":
    sys.exit(main())
