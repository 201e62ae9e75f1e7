"""Stored answers for the first instances of each workload at the default seed.

    python3 perfbench/expectations.py     # rewrites expected.json

Verdicts and optima come from ``oracle.brute_force``, never from scopdd.
The benchmark compares every answer it gets for these instances against
the file, and ``tests/test_perfbench.py`` recomputes it.
"""

from __future__ import annotations

import json
from pathlib import Path

from oracle import brute_force
from workloads import DEFAULT_SEED, WORKLOADS

PATH = Path(__file__).resolve().parent / "expected.json"
COUNTS = {"opt-search": 40, "sat-prune": 30, "compile-dense": 8, "sparse-large": 10}


def compute(name: str, seed: int = DEFAULT_SEED) -> list[list]:
    workload = WORKLOADS[name]
    return [list(brute_force(workload.instance(seed, i))) for i in range(COUNTS[name])]


def main() -> None:
    parts = [f'"seed": {DEFAULT_SEED}']
    for name in WORKLOADS:
        rows = ",\n  ".join(json.dumps(row) for row in compute(name))
        parts.append(f'"{name}": [\n  {rows}\n ]')
    PATH.write_text("{\n " + ",\n ".join(parts) + "\n}\n")


if __name__ == "__main__":
    main()
