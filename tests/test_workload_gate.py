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
    "opt-search": [1_327, 1_327, 4_368, 353_038, 218],
    "sat-prune": [770, 330, 1_881, 262_489, 0],
    "compile-dense": [0, 0, 120, 304_835, 0],
    "sparse-large": [0, 0, 240, 42_315, 0],
}

# SHA-256 over each instance's variable order and probabilities, then the
# ``dump_obdd`` text of each of its queries' diagrams
DIAGRAMS = {
    "opt-search": "adbad9b32ea709c7de77f37877e3f1734407e646b594ca6f1505552279d700b4",
    "sat-prune": "c3ded7881797ee9e460946c9dad9e37519a2b565264099a58cd47f76b985b59b",
    "compile-dense": "1c13095d00e475558cae844d7548d5c8fd6b34dba9eeab466c4b9516377cef65",
    "sparse-large": "c3699003b779b9b66c2e4e91318a684eb3df4014a0b87840e66ff464ab87c527",
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
