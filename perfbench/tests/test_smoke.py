"""Harness smoke test: every workload runs clean at tiny sizes, and run.py
prints the metrics BENCHMARK.json declares. No timing bounds.

    python -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "recording": {"frames": 400, "window": (0.20, 0.35)},
    "maneuver": {"resolution": 4},
    "replay": {},
}


def _env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
                OPENBLAS_NUM_THREADS="1")


def _result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
def test_workload_runs_clean_at_tiny_size(tmp_path, workload):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    gen.GENERATORS[workload](inputs, 7, **TINY[workload])
    result = _result(subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--inputs", str(inputs), "--work", str(tmp_path / "work"),
         "--seconds", "0", "--trace", "1", "--src", str(ROOT / "src")],
        env=_env(), capture_output=True, text=True, timeout=170))
    assert result["failed"] == 0, result["errors"]
    assert len(result["walls"]) == 1 and len(result["traced_walls"]) == 1
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(result["layers"][0]) == declared - {"trace_overhead_s",
                                                   "cli.import.s"}


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_declared_metrics(trace):
    result = _result(subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "replay",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
