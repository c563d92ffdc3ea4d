"""Record the benchmark of one checkout into a committed BENCH_<n>.json.

    python tools/bench_record.py N [--checkout DIR]

For each workload of BENCHMARK.json it runs `perfbench/run.py` of the
checkout (default: this repository) one run at a time on seed SEED: RUNS
untraced runs (`--trace 0`) and one traced run (`--trace 1`), each for the
file's `run_seconds`. It writes BENCH_<N>.json at the root of this
repository:

- the checkout's git sha, the Python and numpy versions and the CPU count;
- per workload, the median of the runs' host-speed loop times;
- per end-to-end metric, the median, the quartiles, n and the values;
- the traced run's per-layer values, and the operations attempted and failed.

A run that exits non-zero, or whose outputs fail run.py's own checks
(`"correct": false`), stops the recording. So does `__pycache__` bytecode
under the checkout's `src/`, before any run: run.py times `import
bioright.cli` in fresh interpreters, and cached bytecode lowers that
`setup_s` by about 15 %, so only bytecode-free checkouts are recorded, and
every run has PYTHONDONTWRITEBYTECODE=1 so that none is written.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RUNS = 5
SEED = 11
LOOP_LINE = re.compile(r"^\s*host-speed loop: median (\S+) s")


def _spread(values):
    """The values with their median, first and third quartile, as run.py takes them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def _run(checkout, workload, seconds, trace):
    """(result object, host-speed loop median) of one run.py run."""
    done = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if done.returncode != 0:
        sys.exit(f"{workload} --trace {trace} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} --trace {trace} failed its checks:\n{done.stdout}")
    loop = next(float(m.group(1)) for m in map(LOOP_LINE.match, lines) if m)
    return result, loop


def record(checkout):
    if cached := sorted((checkout / "src").rglob("__pycache__")):
        sys.exit("remove the bytecode under src/ first, it lowers setup_s:\n"
                 + "\n".join(map(str, cached)))
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                         capture_output=True, text=True, check=True).stdout.strip()
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_run(checkout, workload, seconds, trace)
                for trace in [0] * RUNS + [1]]
        untraced, (traced, _) = runs[:-1], runs[-1]
        print(f"{workload}: {RUNS} + 1 runs done", file=sys.stderr)
        workloads[workload] = {
            "host_speed_loop_s": statistics.median(loop for _, loop in runs),
            "end_to_end": {
                m["name"]: {"unit": m["unit"], **_spread(
                    [r["metrics"][m["name"]]["value"] for r, _ in untraced])}
                for m in spec["end_to_end"]},
            "per_layer": {name: metric["value"] for name, metric in traced["metrics"].items()},
            "attempted": sum(r["attempted"] for r, _ in runs),
            "failed": sum(r["failed"] for r, _ in runs),
        }
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": np.__version__, "cpu_count": os.cpu_count(),
            "seed": SEED, "run_seconds": seconds, "workloads": workloads}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("number", type=int)
    parser.add_argument("--checkout", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    output = ROOT / f"BENCH_{args.number}.json"
    result = record(args.checkout.resolve())
    output.write_text(json.dumps(result, indent=1) + "\n")
    print(output)


if __name__ == "__main__":
    main()
