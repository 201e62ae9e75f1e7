"""Same answers on the benchmark's workloads: the search counters of the
first 120 instances of each workload at seed 1, summed.  The instances come
from ``perfbench/workloads.py``, imported read-only; a change to a workload
re-pins its row."""

import importlib
import sys
from pathlib import Path

import pytest

import scopdd as sc

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
COUNTERS = ["nodes_expanded", "backtracks", "propagator_calls", "node_visits", "incumbents"]


def load_workloads():
    sys.path.insert(0, str(BENCH))  # workloads.py imports its sibling oracle.py
    try:
        return importlib.import_module("workloads").WORKLOADS
    finally:
        sys.path.remove(str(BENCH))


# totals of COUNTERS per workload
PINNED = {
    "opt-search": [1_327, 1_327, 4_368, 353_038, 218],
    "sat-prune": [770, 330, 1_881, 262_489, 0],
    "compile-dense": [0, 0, 120, 304_835, 0],
    "sparse-large": [0, 0, 240, 42_315, 0],
}


@pytest.mark.parametrize("workload", PINNED)
def test_search_counters(workload):
    generator = load_workloads()[workload]
    found = dict.fromkeys(COUNTERS, 0)
    for index in range(120):
        instance = generator.instance(1, index)
        problem = sc.build_problem(sc.parse_network(instance.text))
        if instance.maximize:
            _, _, stats = sc.solve_opt(problem)
        else:
            _, stats = sc.solve_sat(problem)
        for name in COUNTERS:
            found[name] += getattr(stats, name)
    assert found == dict(zip(COUNTERS, PINNED[workload]))
