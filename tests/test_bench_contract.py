"""Output contract of the benchmark harness: every ``perfbench/run.py``
workload run ends its standard output with one JSON result line that
reports a correct run and every end-to-end metric ``BENCHMARK.json``
declares.  The harness is only run here, never changed."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_run_ends_with_result_line(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seconds", "0.5"],
        capture_output=True, text=True, timeout=120, check=False, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert {m["name"] for m in BENCHMARK["end_to_end"]} <= result["metrics"].keys()
