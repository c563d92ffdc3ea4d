"""Run one workload again and again in this process for a fixed time and
print what was measured as one JSON line.

Started by run.py in a fresh interpreter with `src` on PYTHONPATH and
BLAS/OpenMP threads pinned to 1:

    python3 perfbench/worker.py --workload NAME --inputs DIR --work DIR \\
        --seconds S --trace 0|1 --src SRC [--spans FILE]

With --trace 1 it alternates untraced and traced repetitions, so the
tracing overhead is measured in the same process and period.
"""

import argparse
import json
import resource
import shutil
import sys
import time
from collections import defaultdict
from pathlib import Path

import bioright

from hostspeed import around
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS


def _capture(workload, captured):
    """Keep the return value of the functions a check needs to see."""
    for module_name, fname in workload.captures:
        module = sys.modules[f"bioright.{module_name}"]
        func = getattr(module, fname)

        def keeper(*args, _func=func, _key=f"{module_name}.{fname}", **kw):
            captured[_key] = result = _func(*args, **kw)
            return result
        setattr(module, fname, keeper)


def _repetition(workload, rep_dir, tracer, captured):
    """One run of the workload. Returns its wall time, the host-speed loop
    time around it, the failed operation count, failure messages and, when
    traced, the per-layer metrics and summed self time."""
    results, errors = {}, []

    def attempt():
        try:
            workload.run(rep_dir, results)
        except Exception as exc:  # the operation failed; keep measuring
            errors.append(f"{type(exc).__name__}: {exc}")

    captured.clear()
    traced = None
    if tracer is None:
        def timed():
            start = time.perf_counter()
            attempt()
            return time.perf_counter() - start
        wall, loop = around(timed)
    else:
        counts = defaultdict(float)
        (wall, first, last), loop = around(lambda: tracer.run(attempt, counts))
        inclusive, self_by_module = tracer.summarize(first, last)
        traced = (layer_metrics(inclusive, self_by_module, counts),
                  sum(self_by_module.values()))
    done = [op for op in workload.plan if op in results]
    try:
        bad = set(workload.check(results, captured))
    except Exception as exc:  # an output could not be read at all
        errors.append(f"check: {type(exc).__name__}: {exc}")
        bad = set(done)
    failed = len(workload.plan) - len(done) + len(bad & set(done))
    if bad:
        errors.append(f"wrong output: {sorted(bad)}")
    return wall, loop, failed, errors, traced


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    if args.src.resolve() not in Path(bioright.__file__).resolve().parents:
        sys.exit(f"bioright imported from {bioright.__file__}, not {args.src}")
    workload = WORKLOADS[args.workload](args.inputs)
    captured = {}
    _capture(workload, captured)
    tracer = Tracer() if args.trace else None

    walls, traced_walls, layers, self_sums = [], [], [], []
    loops, traced_loops = [], []
    attempted = failed = 0
    errors = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = tracer is not None and len(walls) > len(traced_walls)
        rep_dir = args.work / f"rep{len(walls) + len(traced_walls)}"
        rep_dir.mkdir(parents=True)
        rep_start = time.perf_counter()
        wall, loop, rep_failed, rep_errors, trace = _repetition(
            workload, rep_dir, tracer if traced else None, captured)
        shutil.rmtree(rep_dir)
        attempted += len(workload.plan)
        failed += rep_failed
        errors += rep_errors
        if traced:
            traced_walls.append(wall)
            traced_loops.append(loop)
            layers.append(trace[0])
            self_sums.append(trace[1])
        else:
            walls.append(wall)
            loops.append(loop)
        longest = max(longest, time.perf_counter() - rep_start)
        enough = walls and (tracer is None or traced_walls)
        if enough and time.perf_counter() - start + longest > args.seconds:
            break
    if tracer is not None and args.spans is not None:
        tracer.write(args.spans)
    print(json.dumps({
        "walls": walls, "traced_walls": traced_walls, "loops": loops,
        "traced_loops": traced_loops, "layers": layers,
        "self_sums": self_sums, "attempted": attempted, "failed": failed,
        "errors": errors[:20],
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))


if __name__ == "__main__":
    main()
