"""Output contract of the benchmark harness: every ``perfbench/run.py``
workload run ends its standard output with one JSON result line that
reports a correct run and every metric ``BENCHMARK.json`` declares for its
mode: the end-to-end metrics untraced, and exactly the per-layer metrics,
with their units, traced.  The harness is only run here, never changed."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(workload, *options):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seconds", "0.5", *options],
        capture_output=True, text=True, timeout=120, check=False, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_ends_with_result_line(workload):
    result = run_bench(workload)
    assert {m["name"] for m in BENCHMARK["end_to_end"]} <= result["metrics"].keys()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    result = run_bench(workload, "--trace", "1")
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
