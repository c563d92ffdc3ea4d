"""Benchmark of the bioright pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload recording|maneuver|replay \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds `src/bioright`. It makes
the workload's inputs from the seed, times `setup_s` over several fresh
interpreters, then runs the workload for S seconds in a fresh worker
process and checks every output. With --trace 0 it reports the
end-to-end metrics, with --trace 1 the per-layer metrics. The last line
of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See perfbench/README.md for the metrics and workloads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import gen  # noqa: E402  numpy only; the package under test is not imported
from hostspeed import REFERENCE_S, around  # noqa: E402
from tracing import PER_LAYER_UNITS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"   # scratch inputs and span files

SETUP_PROBES = 7
TIME_LIMIT_S = 170.0   # a run must end within 180 s
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                  "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PROBE = ("import json, time; start = time.perf_counter(); import bioright.cli; "
         "print(json.dumps([time.perf_counter() - start, bioright.__file__]))")


def _env():
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.update({name: "1" for name in PINNED_THREADS})
    return env


def _probe_setup(env):
    """Wall time from process start until `bioright.cli` is imported, and
    the import alone, in a fresh interpreter."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"import failed:\n{done.stderr}")
    import_s, path = json.loads(done.stdout)
    if SRC.resolve() not in Path(path).resolve().parents:
        raise RuntimeError(f"bioright imported from {path}, not {SRC}")
    return wall, import_s


def _spread(values):
    """(median, first quartile, third quartile) of the values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def _scaled(times, loops):
    """Times scaled to the reference host speed (see hostspeed.py)."""
    return [t * REFERENCE_S / loop for t, loop in zip(times, loops)]


def _line(name, values, unit):
    median, q1, q3 = _spread(values)
    print(f"{name}: median {median:.6g} {unit} "
          f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("recording", "maneuver", "replay"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bioright" / "__init__.py").is_file():
        print(f"error: no bioright package under {SRC}", file=sys.stderr)
        return 2
    began = time.perf_counter()
    env = _env()
    RUN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUN_DIR) as tmp:
        inputs = Path(tmp) / "inputs"
        inputs.mkdir()
        gen.GENERATORS[args.workload](inputs, args.seed)
        probes = [around(lambda: _probe_setup(env))
                  for _ in range(SETUP_PROBES)]
        spans = RUN_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
        budget = TIME_LIMIT_S - (time.perf_counter() - began)
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"),
             "--workload", args.workload, "--inputs", str(inputs),
             "--work", str(Path(tmp) / "work"), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--src", str(SRC),
             "--spans", str(spans)],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(budget, 1.0))
    if not any(RUN_DIR.iterdir()):
        RUN_DIR.rmdir()
    if done.returncode != 0:
        print(f"error: worker failed:\n{done.stderr}", file=sys.stderr)
        return 1
    sys.stderr.write(done.stderr)
    worker = json.loads(done.stdout.splitlines()[-1])

    walls = _scaled(worker["walls"], worker["loops"])
    setups = _scaled([wall for (wall, _), _ in probes],
                     [loop for _, loop in probes])
    attempted, failed = worker["attempted"], worker["failed"]
    correct = failed == 0
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    _line("wall_s", walls, "s")
    _line("  unscaled wall time", worker["walls"], "s")
    _line("  host-speed loop", worker["loops"], "s")
    for message in worker["errors"]:
        print(f"  failure: {message}", file=sys.stderr)

    if args.trace:
        traced = _scaled(worker["traced_walls"], worker["traced_loops"])
        _line("traced wall_s", traced, "s")
        speed = [REFERENCE_S / loop for loop in worker["traced_loops"]]
        power = {"s": 1, "1/s": -1}
        metrics = {name: {"value": statistics.median(
                       rep[name] * f ** power.get(unit, 0)
                       for rep, f in zip(worker["layers"], speed)),
                   "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()
                   if name in worker["layers"][0]}
        overhead = statistics.median(traced) - statistics.median(walls)
        metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["cli.import.s"] = {"value": statistics.median(_scaled(
            [imp for (_, imp), _ in probes], [loop for _, loop in probes])),
            "unit": "s"}
        if args.workload == "maneuver":
            # The cli span covers the whole command, so the self times of
            # all layers must add up to the wall time, within the overhead.
            gap = statistics.median(_scaled(worker["self_sums"],
                                            worker["traced_loops"])) - \
                statistics.median(walls)
            if abs(gap) > abs(overhead) + 1e-3:
                print(f"error: self times sum to {gap:+.4f} s off wall_s, "
                      f"more than the overhead {overhead:.4f} s",
                      file=sys.stderr)
                correct = False
        spans_by_time = sorted(
            (m for m in metrics.items() if m[0].endswith(".s")
             and m[0] in worker["layers"][0]), key=lambda m: -m[1]["value"])
        for name, metric in spans_by_time[:6]:
            print(f"  {name}: {metric['value']:.6g} s")
    else:
        _line("setup_s", setups, "s")
        print(f"peak_rss_mib: {worker['peak_rss_kib'] / 1024:.2f} MiB")
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": worker["peak_rss_kib"] / 1024,
                             "unit": "MiB"},
        }
    print(f"error_rate: {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} operations)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
