"""Same answers on the benchmark's workloads: the search counters of the
first 120 instances of each workload at seed 1, summed, and one SHA-256 of
their compiled diagrams.  The instances come from ``perfbench/workloads.py``,
imported read-only; a change to a workload re-pins its row."""

import hashlib
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
    "opt-search": [1_327, 1_327, 4_368, 334_255, 218],
    "sat-prune": [770, 330, 1_881, 231_515, 0],
    "compile-dense": [0, 0, 120, 273_570, 0],
    "sparse-large": [0, 0, 240, 38_375, 0],
}

# SHA-256 over each instance's variable order and probabilities, then the
# ``dump_obdd`` text of each of its queries' diagrams
DIAGRAMS = {
    "opt-search": "d7e11d0f0a20d76ef8725869605695cf39381b279326d650d465f3ac97ed66bd",
    "sat-prune": "e0be535ddd83ba1d02bed76beb5380d52ae34e266dbfa3e12d80dcc5936a319b",
    "compile-dense": "3b9c4cdb6215fa151cb93e824c4ae0f601b0470e5a9e47ba671a385fef6ea7a0",
    "sparse-large": "3baf3f6206742fb26da357f81205036e31ac647869260b3fd0f236b4d2894734",
}


@pytest.mark.parametrize("workload", PINNED)
def test_search_counters(workload):
    generator = load_workloads()[workload]
    found = dict.fromkeys(COUNTERS, 0)
    digest = hashlib.sha256()
    for index in range(120):
        instance = generator.instance(1, index)
        problem = sc.build_problem(sc.parse_network(instance.text))
        digest.update(repr((problem.vars.order(), [info.prob for info in problem.vars])).encode())
        terms = problem.objective if instance.maximize else problem.constraints[0].terms
        for term in terms:
            digest.update(sc.dump_obdd(term.obdd).encode())
        if instance.maximize:
            _, _, stats = sc.solve_opt(problem)
        else:
            _, stats = sc.solve_sat(problem)
        for name in COUNTERS:
            found[name] += getattr(stats, name)
    assert found == dict(zip(COUNTERS, PINNED[workload]))
    assert digest.hexdigest() == DIAGRAMS[workload]
