"""Self-tests of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/test_perfbench.py -q

They check that each run prints exactly the metrics BENCHMARK.json names,
that a corrupted golden value fails the run, and that a directory holding
only the benchmark refuses to run.  About a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# oracle_sweep is runnable though BENCHMARK.json leaves it out
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["oracle_sweep"]


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--seed", "3", "--seconds", "1", *args],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=cwd,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metric_names_match_benchmark_json(workload, trace):
    proc, result = bench("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_corrupted_golden_value_fails(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(HERE / "golden", golden)
    path = golden / "serve_estimate.json"
    doc = json.loads(path.read_text())
    # the warm-up operation of seed 3 runs in every run with that seed
    entry = doc["entries"]["gamma5|noise_uniform|2000|1|ridge"]
    entry["f"][5] *= 1.0 + 1e-6
    path.write_text(json.dumps(doc))
    proc, result = bench("--workload", "serve_estimate", "--trace", "0", "--golden", str(golden))
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert "GOLDEN CHECK FAILED" in proc.stderr


def test_bare_directory_refuses_to_run(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = bench(
        "--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path, script=tmp_path / HERE.name / "run.py"
    )
    assert proc.returncode != 0
    assert result is None
