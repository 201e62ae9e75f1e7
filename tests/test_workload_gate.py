"""Same answers on the benchmark's workloads: the search counters of the
first 120 instances of each workload at seed 1, summed, and two SHA-256s of
their compiled diagrams, one with the variable order and one without.  The
instances come from ``perfbench/workloads.py``, imported read-only; a change
to a workload re-pins its row."""

import hashlib

import pytest

import scopdd as sc

from conftest import load_workloads, unordered_dump

COUNTERS = ["nodes_expanded", "backtracks", "propagator_calls", "node_visits", "incumbents"]


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
    "sparse-large": "96579d24307d6ae8aa62793dcd24b5aaeef4c148e860c45297df25f9edbea805",
}

# SHA-256 over each query's ``dump_obdd`` text without its ``order`` line and
# each instance's ``CompileRecord.paths``: the diagrams up to the levels of
# the variables no diagram reads
DIAGRAMS_UNORDERED = {
    "opt-search": "2774f10aac0a613dd3a229c2b800e041736d7b3eea03b7d6f09f47e4e77c431c",
    "sat-prune": "7611ec98fc70a9ac8b6b5df09e357fc244149d0070fb9d852ce131b864778511",
    "compile-dense": "2527634f508960c16a9ea3c6d7e9b27c3f3668d20b51ffbdf19598933ea62394",
    "sparse-large": "fbcefa1bad9ae1d6e6238dcf5d60294a5bc1f96febca1fa03547835d0adf1ad4",
}

@pytest.mark.parametrize("workload", PINNED)
def test_search_counters(workload):
    generator = load_workloads()[workload]
    found = dict.fromkeys(COUNTERS, 0)
    digest, unordered = hashlib.sha256(), hashlib.sha256()
    for index in range(120):
        instance = generator.instance(1, index)
        problem = sc.build_problem(sc.parse_network(instance.text))
        digest.update(repr((problem.vars.order(), [info.prob for info in problem.vars])).encode())
        terms = problem.objective if instance.maximize else problem.constraints[0].terms
        for term in terms:
            digest.update(sc.dump_obdd(term.obdd).encode())
            unordered.update(unordered_dump(term.obdd).encode())
        unordered.update(repr([record.paths for record in problem.compiled]).encode())
        if instance.maximize:
            _, _, stats = sc.solve_opt(problem)
        else:
            _, stats = sc.solve_sat(problem)
        for name in COUNTERS:
            found[name] += getattr(stats, name)
    assert found == dict(zip(COUNTERS, PINNED[workload]))
    assert digest.hexdigest() == DIAGRAMS[workload]
    assert unordered.hexdigest() == DIAGRAMS_UNORDERED[workload]
