"""The paper's comparison inside a search: domain consistency on the diagram
never costs a search node against interval propagation on the circuit
decomposition.

Both propagators run under ``static_search``, the same static branching
order, on the first 20 instances at seed 1 of the benchmark's sat-prune
and opt-search workloads (``perfbench/workloads.py``, imported read-only).
``bounds_propagate`` is sound and ``dc_propagate`` removes every
unsupported value of a threshold constraint, so each domain-consistent
fixpoint is at least as tight as the interval one; fixing a variable never
raises the true count plus the free labelled variables, so a node closes
no later.  The domain-consistent search tree is therefore a subtree of the
interval one, and both meet the same incumbents in the same order.
"""

import pytest

import scopdd as sc

from conftest import load_workloads, static_search

# problems of the 20 where domain consistency expands strictly fewer nodes
FEWER = {"sat-prune": 5, "opt-search": 20}


def dc_propagator(terms, domains, theta):
    return sc.dc_propagate(terms, domains, theta)


def interval_propagator():
    """``bounds_propagate`` over ``decompose``, each constraint decomposed
    once: only the system's threshold depends on the call."""
    systems = {}

    def propagate(terms, domains, theta):
        system = systems.get(id(terms))
        if system is None:
            system = systems[id(terms)] = sc.decompose(terms, theta)
        system.theta = theta
        return sc.bounds_propagate(system, domains).result

    return propagate


@pytest.mark.parametrize("workload", FEWER)
def test_domain_consistency_never_costs_a_node(workload):
    generator = load_workloads()[workload]
    fewer = 0
    for index in range(20):
        instance = generator.instance(1, index)
        problem = sc.build_problem(sc.parse_network(instance.text))
        strategy, value, nodes = static_search(problem, dc_propagator)
        ref_strategy, ref_value, ref_nodes = static_search(problem, interval_propagator())
        assert (strategy is None) == (ref_strategy is None)
        if instance.maximize:
            assert value == pytest.approx(ref_value, abs=2 * sc.THRESHOLD_EPS)
            assert value == pytest.approx(sc.solve_opt(problem)[1], abs=2 * sc.THRESHOLD_EPS)
        else:
            assert (strategy is None) == (sc.solve_sat(problem)[0] is None)
            if strategy is not None:
                terms = problem.constraints[0].terms
                assert sc.strategy_value(terms, problem.vars, strategy) >= (
                    problem.constraints[0].theta - sc.THRESHOLD_EPS)
        assert nodes <= ref_nodes
        fewer += nodes < ref_nodes
    assert fewer == FEWER[workload]
