"""Shared fixtures and seeded random-instance generators.

The two hand-built fixtures appear throughout the suite:

* ``forced_choice.obdd`` -- a six-node diagram over two decision variables
  whose threshold constraint forces y=1 at the root of search;
* ``four_node.scop`` -- a five-edge network with two connectivity queries,
  a cardinality bound of two, and a maximization objective.

Random instances are monotone DNFs over mixed decision/stochastic variable
tables; thresholds are drawn between achievable constraint values so the
1e-9 comparison slack in the propagators can never flip a verdict.

The oracles at the end (``validate``, ``cube_node``, ``or_reference``,
``format_model``, ``reference_rule_edge_order``, ``static_search`` and the
small accessors) are built only on the package's public surface --
``mk_node``, ``lo``, ``hi``, ``level``, ``var_of``, the propagators and the
parsed model's fields -- so they share no code with the code they check.
"""

from __future__ import annotations

import importlib
import itertools
import math
import random
import sys
from heapq import heappop, heappush
from pathlib import Path
from types import SimpleNamespace

import pytest

import scopdd as sc

DATA = Path(__file__).parent / "data"
BENCH = Path(__file__).resolve().parent.parent / "perfbench"

# order that keeps each edge's stochastic/decision pair adjacent, with the
# edges of the a->c event's short routes near the root
PATH_ORDER = [
    "t_cd", "d_cd", "d_ac", "t_ac", "t_ad",
    "d_ad", "d_bd", "t_bd", "t_ab", "d_ab",
]


@pytest.fixture
def choice():
    dd = sc.load_obdd((DATA / "forced_choice.obdd").read_text())
    vt = dd.vars
    return SimpleNamespace(dd=dd, vt=vt, x=vt.index("x"), y=vt.index("y"))


@pytest.fixture
def four_node_text():
    return (DATA / "four_node.scop").read_text()


@pytest.fixture
def net_model(four_node_text):
    return sc.parse_network(four_node_text)


@pytest.fixture
def ordered_model(net_model):
    return sc.with_order(net_model, PATH_ORDER)


@pytest.fixture
def path_dd(ordered_model):
    """The a->c connectivity event compiled under PATH_ORDER (12 nodes)."""
    query = ordered_model.queries[0]
    return sc.from_dnf(ordered_model.vars, sc.st_path_dnf(ordered_model, query))


# -- random instance generators -----------------------------------------


def make_table(rng: random.Random, n_dec: int, n_sto: int) -> sc.VariableTable:
    kinds = ["d"] * n_dec + ["t"] * n_sto
    rng.shuffle(kinds)
    table = sc.VariableTable()
    for i, kind in enumerate(kinds):
        if kind == "d":
            table.add_decision(f"d{i}")
        else:
            table.add_stochastic(f"t{i}", rng.uniform(0.05, 0.95))
    return table


def random_cubes(rng: random.Random, table: sc.VariableTable, max_cubes: int = 6):
    total = len(table)
    return [
        sc.Cube.positive(rng.sample(range(total), rng.randint(1, min(4, total))))
        for _ in range(rng.randint(1, max_cubes))
    ]


def random_instance(
    rng: random.Random,
    max_dec: int = 10,
    max_sto: int = 10,
    n_terms: int = 1,
    max_cubes: int = 6,
):
    """A variable table plus ``n_terms`` monotone diagram terms over it."""
    table = make_table(rng, rng.randint(1, max_dec), rng.randint(1, max_sto))
    terms = [
        sc.ConstraintTerm(
            sc.from_dnf(table, random_cubes(rng, table, max_cubes)),
            rng.choice([1.0, 1.0, 1.0, 2.5]),
        )
        for _ in range(n_terms)
    ]
    return table, terms


def random_domains(rng: random.Random, table: sc.VariableTable, p_free: float = 0.55):
    domains = sc.DomainState(table)
    for var in table.decision_ids():
        r = rng.random()
        if r >= p_free:
            domains.fix(var, r < p_free + (1 - p_free) / 2)
    return domains


def score_table(table, terms, domains):
    """Constraint value of every completion of the free variables."""
    free = domains.free_vars()
    scores = {}
    for bits in itertools.product([False, True], repeat=len(free)):
        completion = domains.copy()
        for var, value in zip(free, bits):
            completion.fix(var, value)
        scores[bits] = sum(
            t.reward * sc.evaluate(t.obdd, completion) for t in terms
        )
    return free, scores


def pick_theta(rng: random.Random, scores) -> float:
    """Threshold kept > 1e-6 away from every achievable value."""
    values = sorted(set(scores.values()))
    mode = rng.random()
    if mode < 0.15:
        return values[0] - 0.1
    if mode < 0.3:
        return values[-1] + 0.1
    gaps = [(a, b) for a, b in zip(values, values[1:]) if b - a > 1e-6]
    if not gaps:
        return values[0] - 0.1
    lo, hi = rng.choice(gaps)
    return (lo + hi) / 2.0


def all_strategies(table: sc.VariableTable):
    dec = table.decision_ids()
    for bits in itertools.product([False, True], repeat=len(dec)):
        yield dict(zip(dec, bits))


def complete_graph_text(n: int) -> str:
    """Problem file of the complete graph on v0 .. v(n-1), one query v0 -> v1."""
    names = [f"v{i}" for i in range(n)]
    lines = [f"node {name}" for name in names]
    lines += [f"edge {u} {v} 0.5" for u, v in itertools.combinations(names, 2)]
    lines += ["query v0 v1", "objective maximize"]
    return "\n".join(lines) + "\n"


def dnf_truth(cubes, assignment) -> bool:
    return any(
        all(assignment[v] for v in cube.vars)
        for cube in cubes
    )


def enumerate_event_probability(dd: sc.Obdd, decisions: dict) -> float:
    """Sum of model probabilities over all stochastic assignments."""
    sto = stochastic_ids(dd.vars)
    total = 0.0
    for bits in itertools.product([False, True], repeat=len(sto)):
        assignment = dict(decisions)
        assignment.update(zip(sto, bits))
        total += sc.model_probability(dd, assignment)
    return total


# -- oracles on the public accessors -------------------------------------


def stochastic_ids(table: sc.VariableTable) -> list[int]:
    return [info.index for info in table if info.kind == sc.STOCHASTIC]


def fixed_items(domains: sc.DomainState) -> list[tuple[int, bool]]:
    """(variable, value) of each fixed decision variable, by index."""
    return [
        (var, domains.domain(var) == sc.TRUE_ONLY)
        for var in domains.vars.decision_ids() if not domains.is_free(var)
    ]


def validate(dd: sc.Obdd) -> None:
    """Full-scan check of the reduced / ordered / unique invariants."""
    triples = set()
    for node in dd.internal_nodes():
        var, lo, hi = dd.var_of(node), dd.lo(node), dd.hi(node)
        assert lo != hi, f"node {node} is not reduced (lo == hi)"
        assert dd.level(node) < min(dd.level(lo), dd.level(hi)), \
            f"node {node} violates the variable order"
        assert (var, lo, hi) not in triples, f"node {node} duplicates another (var, lo, hi)"
        triples.add((var, lo, hi))


def cube_node(dd: sc.Obdd, cube: sc.Cube) -> int:
    """Diagram of one monotone conjunction, chained deepest level first."""
    node = sc.TRUE_NODE
    for var in sorted(cube.vars, key=dd.vars.level, reverse=True):
        node = dd.mk_node(var, sc.FALSE_NODE, node)
    return node


def or_reference(dd: sc.Obdd, a: int, b: int, memo: dict) -> int:
    """(a OR b) by Shannon expansion on the variable of the smaller level
    of the two roots; ``memo`` holds the results of earlier calls on the
    same store."""
    if a == b or b == sc.FALSE_NODE:
        return a
    if a == sc.FALSE_NODE:
        return b
    if sc.TRUE_NODE in (a, b):
        return sc.TRUE_NODE
    key = (min(a, b), max(a, b))
    if key not in memo:
        level = min(dd.level(a), dd.level(b))
        var = dd.var_of(a if dd.level(a) == level else b)
        a_lo, a_hi = (dd.lo(a), dd.hi(a)) if dd.level(a) == level else (a, a)
        b_lo, b_hi = (dd.lo(b), dd.hi(b)) if dd.level(b) == level else (b, b)
        memo[key] = dd.mk_node(var, or_reference(dd, a_lo, b_lo, memo),
                               or_reference(dd, a_hi, b_hi, memo))
    return memo[key]


def fold_dump(table: sc.VariableTable, cubes) -> str:
    """Reference compile: OR the cubes into the growing disjunction one at a
    time, in a fresh store, through ``or_reference``."""
    dd, memo = sc.Obdd(table), {}
    for cube in cubes:
        dd.root = or_reference(dd, dd.root, cube_node(dd, cube), memo)
    return sc.dump_obdd(dd)


def format_model(model: sc.ParsedModel) -> str:
    """Canonical problem file text; parse(format_model(parse(x))) == parse(x)."""
    lines = [f"node {name}" for name in model.network.nodes]
    lines += [f"edge {e.u} {e.v} {e.prob!r}" for e in model.network.edges]
    lines += [
        f"query {q.source} {q.target} reward {q.reward!r}" for q in model.queries
    ]
    if model.cardinality is not None:
        lines.append(f"cardinality <= {model.cardinality}")
    lines.append("objective maximize" if model.maximize else f"constraint >= {model.theta!r}")
    if model.order is not None:
        lines.append("order " + " ".join(model.order))
    return "\n".join(lines) + "\n"


def unordered_dump(dd: sc.Obdd) -> str:
    """``dump_obdd`` without its ``order`` line: the diagram, up to the
    levels of the variables it does not read."""
    return "".join(line for line in sc.dump_obdd(dd).splitlines(keepends=True)
                   if not line.startswith("order "))


def load_workloads() -> dict:
    """The benchmark's workload generators, imported read-only from
    ``perfbench/workloads.py``."""
    sys.path.insert(0, str(BENCH))  # workloads.py imports its sibling oracle.py
    try:
        return importlib.import_module("workloads").WORKLOADS
    finally:
        sys.path.remove(str(BENCH))


def reference_rule_edge_order(model: sc.ParsedModel) -> list[int]:
    """The order rule over the whole network: a maximum-adjacency ranking
    from the first query's source, each next node the unranked one with the
    most ranked neighbours, then the fewest neighbours, then declared first;
    edges sorted by (earlier rank, later rank, declaration index), and the
    edges between unranked nodes last, as declared."""
    adjacency = model.adjacency
    names = list(adjacency)
    edges = model.network.edges
    shift = len(names).bit_length()
    mask = (1 << shift) - 1
    step = 1 << 2 * shift
    keys = {name: len(names) * step | len(links) << shift | k
            for k, (name, links) in enumerate(adjacency.items())}
    width = len(edges).bit_length()
    keyed: list[int] = []
    ranked = 0
    heap = [keys[model.queries[0].source]]
    while heap:
        key = heappop(heap)
        at = names[key & mask]
        if keys[at] != key:
            continue
        keys[at] = ~ranked
        for neighbor, i in adjacency[at]:
            key = keys[neighbor]
            if key >= 0:
                keys[neighbor] = key = key - step
                heappush(heap, key)
            else:
                keyed.append((~key << shift | ranked) << width | i)
        ranked += 1
    keyed.sort()
    low = (1 << width) - 1
    order = [key & low for key in keyed]
    if ranked < len(names):
        order += [i for i, (u, _, _) in enumerate(edges) if keys[u] >= 0]
    return order


def static_search(problem: sc.Problem, propagate, delta: float = 1e-9):
    """Reference depth-first search with a static branching order.

    It branches, true first, on the lowest-index free decision variable
    that a diagram node reads, and runs the cardinality propagator and
    ``propagate(terms, domains, theta)`` on every constraint to a joint
    fixpoint at each node.  A node closes by the search's own rule: with
    no bound, or with its true count plus free labelled variables within
    it, the optimistic completion (free labelled variables true, every other
    free variable false) is the best strategy below it.  An objective is a
    constraint whose threshold rises past each incumbent to its value +
    max(delta, THRESHOLD_EPS) + THRESHOLD_EPS.  Returns the strategy (None
    when none exists), its objective value (None without an objective) and
    the nodes expanded."""
    goals = [[c.terms, c.theta] for c in problem.constraints]
    if problem.objective is not None:
        goals.append([problem.objective, -math.inf])
    decisions = problem.vars.decision_ids()
    labelled = sorted({term.obdd.var_of(node) for terms, _ in goals for term in terms
                       for node in term.obdd.internal_nodes()} & set(decisions))
    bound = problem.cardinality
    found = {"strategy": None, "value": None, "nodes": 0}

    def fixpoint(domains: sc.DomainState) -> bool:
        while True:
            free = len(domains.free_vars())
            if bound is not None and not sc.cardinality_propagate(domains, bound).ok:
                return False
            for terms, theta in goals:
                if not propagate(terms, domains, theta).ok:
                    return False
            if len(domains.free_vars()) == free:
                return True

    def visit(domains: sc.DomainState) -> bool:
        """True once a satisfaction problem is solved."""
        if not fixpoint(domains):
            return False
        free = [var for var in labelled if domains.is_free(var)]
        if bound is None or domains.true_count() + len(free) <= bound:
            strategy = {var: var in free or domains.domain(var) == sc.TRUE_ONLY
                        for var in decisions}
            found["strategy"] = strategy
            if problem.objective is None:
                return True
            found["value"] = value = sc.strategy_value(problem.objective, problem.vars,
                                                       strategy)
            goals[-1][1] = value + max(delta, sc.THRESHOLD_EPS) + sc.THRESHOLD_EPS
            return False
        for value in (True, False):
            child = domains.copy()
            child.fix(free[0], value)
            found["nodes"] += 1
            if visit(child):
                return True
        return False

    visit(sc.DomainState(problem.vars))
    return found["strategy"], found["value"], found["nodes"]
