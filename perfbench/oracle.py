"""Answers computed without scopdd: two-terminal reliability by factoring.

The benchmark uses these to draw sat-prune thresholds, to cross-check the
value of every strategy the solver returns, and (in its tests) to confirm
the stored expectations by cardinality-bounded brute force.
"""

from __future__ import annotations

import itertools

# The solver accepts a strategy whose value reaches theta - 1e-9
# (scopdd.propagate.THRESHOLD_EPS); the oracle judges verdicts the same way.
THRESHOLD_EPS = 1e-9


def st_reliability(edges, source: str, target: str) -> float:
    """Probability that ``source`` reaches ``target`` when each undirected
    edge ``(u, v, p)`` is present independently with probability p.

    Contraction-deletion on an edge at the source, memoised on the
    remaining graph; edges outside the source's component are dropped.
    """
    memo: dict[tuple, float] = {}

    def solve(graph: tuple) -> float:
        reach = {source}
        grew = True
        while grew:
            grew = False
            for u, v, _ in graph:
                if (u in reach) != (v in reach):
                    reach.add(v if u in reach else u)
                    grew = True
        if target not in reach:
            return 0.0
        graph = tuple(e for e in graph if e[0] in reach)
        found = memo.get(graph)
        if found is not None:
            return found
        u, v, p = next(e for e in graph if source in (e[0], e[1]))
        other = v if u == source else u
        rest = list(graph)
        rest.remove((u, v, p))
        if other == target:
            contracted = 1.0
        else:
            merged = []
            for a, b, q in rest:
                a = source if a == other else a
                b = source if b == other else b
                if a != b:
                    merged.append((min(a, b), max(a, b), q))
            contracted = solve(tuple(sorted(merged)))
        result = p * contracted + (1.0 - p) * solve(tuple(rest))
        memo[graph] = result
        return result

    if source == target:
        return 1.0
    return solve(tuple(sorted((min(u, v), max(u, v), p) for u, v, p in edges)))


def objective_value(instance, selected) -> float:
    """Reward-weighted reliability of the queries over the selected edges
    (indices into ``instance.edges``)."""
    kept = [instance.edges[i] for i in selected]
    return sum(reward * st_reliability(kept, s, t) for s, t, reward in instance.queries)


def brute_force(instance) -> tuple[str, float | None]:
    """Verdict and optimum by enumerating cardinality-bounded strategies.

    The value is monotone in the selected edges, so only strategies that
    select exactly min(bound, edges) edges are scored.  Returns
    ("sat", optimum) for maximisation, ("sat" | "unsat", None) otherwise.
    """
    m = len(instance.edges)
    size = m if instance.cardinality is None else min(instance.cardinality, m)
    if not instance.maximize and instance.theta <= 0.0:
        return "sat", None  # every strategy has a nonnegative value
    best = None
    for selected in itertools.combinations(range(m), size):
        value = objective_value(instance, selected)
        if instance.maximize:
            best = value if best is None else max(best, value)
        elif value >= instance.theta - THRESHOLD_EPS:
            return "sat", None
    if instance.maximize:
        return "sat", best
    return "unsat", None
