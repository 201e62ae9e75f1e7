"""Seeded problem generators for the benchmark's four workloads.

Instance ``i`` of a workload under seed ``s`` is drawn from
``random.Random(f"{name}:{s}:{i}")``.  Its size, number of queries and (for
sat-prune) band of threshold cycle through the workload's lists, so every run
sees the same mix of the properties that set an instance's cost most; the
seed draws the rest.  The random network recipe is a copy of
``scopdd.cli.random_model_text``, kept here so that no change to the program
can change a workload; the program only ever receives the generated problem
text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from oracle import st_reliability

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Instance:
    """One generated problem: its text plus what the checks need to know."""

    text: str
    edges: tuple[tuple[str, str, float], ...]
    queries: tuple[tuple[str, str, float], ...]
    cardinality: int | None
    maximize: bool
    theta: float | None = None


def random_network(rng: random.Random, n_edges: int, n_queries: int | None = None):
    """Random connected network with ``n_edges`` edges; the recipe of
    ``scopdd.cli.random_model_text``, which draws one or two queries
    unless ``n_queries`` fixes the count."""
    k = 2
    while k * (k - 1) // 2 < n_edges:
        k += 1
    nodes = [f"v{i}" for i in range(k)]
    pairs = [(nodes[rng.randrange(i)], nodes[i]) for i in range(1, k)]
    pool = [
        (nodes[i], nodes[j])
        for i in range(k)
        for j in range(i + 1, k)
        if (nodes[i], nodes[j]) not in pairs and (nodes[j], nodes[i]) not in pairs
    ]
    extra = n_edges - len(pairs)
    if extra > 0:
        pairs.extend(rng.sample(pool, extra))
    edges = [(u, v, rng.uniform(0.05, 0.95)) for u, v in pairs]
    queries = []
    if n_queries is None:
        n_queries = rng.randint(1, 2)
    for _ in range(n_queries):
        s, t = rng.sample(nodes, 2)
        queries.append((s, t, 1.0))
    return nodes, edges, queries


def tree_with_chords(rng: random.Random, n_edges: int, chords: int, n_queries: int):
    """Random recursive tree plus ``chords`` extra edges."""
    k = n_edges - chords + 1
    nodes = [f"v{i}" for i in range(k)]
    pairs = [(nodes[rng.randrange(i)], nodes[i]) for i in range(1, k)]
    present = {frozenset(pair) for pair in pairs}
    while len(pairs) < n_edges:
        u, v = rng.sample(nodes, 2)
        if frozenset((u, v)) not in present:
            present.add(frozenset((u, v)))
            pairs.append((u, v))
    edges = [(u, v, rng.uniform(0.05, 0.95)) for u, v in pairs]
    queries = [(*rng.sample(nodes, 2), 1.0) for _ in range(n_queries)]
    return nodes, edges, queries


def problem_text(nodes, edges, queries, cardinality, goal: str) -> str:
    lines = [f"node {n}" for n in nodes]
    lines += [f"edge {u} {v} {p!r}" for u, v, p in edges]
    lines += [f"query {s} {t} reward {r:g}" for s, t, r in queries]
    if cardinality is not None:
        lines.append(f"cardinality <= {cardinality}")
    lines.append(goal)
    return "\n".join(lines) + "\n"


def opt_search(rng: random.Random, n: int, q: int | None = None, band=(0, 1)) -> Instance:
    nodes, edges, queries = random_network(rng, n, q)
    card = n // 3
    text = problem_text(nodes, edges, queries, card, "objective maximize")
    return Instance(text, tuple(edges), tuple(queries), card, True)


def sat_prune(rng: random.Random, n: int, q: int | None = None, band=(0, 1)) -> Instance:
    """Threshold drawn from U(0.3, 0.8) x the optimistic bound, within
    band ``band[0]`` of ``band[1]`` equal bands of that range."""
    nodes, edges, queries = random_network(rng, n, q)
    optimistic = sum(r * st_reliability(edges, s, t) for s, t, r in queries)
    theta = (0.3 + 0.5 * (band[0] + rng.random()) / band[1]) * optimistic
    card = n // 3
    text = problem_text(nodes, edges, queries, card, f"constraint >= {theta!r}")
    return Instance(text, tuple(edges), tuple(queries), card, False, theta)


def compile_dense(rng: random.Random, n: int, q: int | None = None, band=(0, 1)) -> Instance:
    nodes, edges, queries = random_network(rng, n, q)
    text = problem_text(nodes, edges, queries, None, "constraint >= 0")
    return Instance(text, tuple(edges), tuple(queries), None, False, 0.0)


def sparse_large(rng: random.Random, n: int, q: int = 2, band=(0, 1)) -> Instance:
    nodes, edges, queries = tree_with_chords(rng, n, 2, q)
    card = n // 2
    text = problem_text(nodes, edges, queries, card, "constraint >= 0")
    return Instance(text, tuple(edges), tuple(queries), card, False, 0.0)


@dataclass(frozen=True)
class Workload:
    """A generator plus the run shape the benchmark uses for it.

    A traced run repeats the first ``trace_count`` instances.  ``tail_pct``
    is the percentile reported as the latency tail: the highest rung of
    99/95/90/75 that keeps well over ten samples beyond it at the instance
    count of one run, so that runs of the same code report the same rung;
    sat-prune takes 75, because its p90 spread twice as much between runs.
    Instances cycle through sizes first, then query counts, then
    ``bands`` bands of the threshold range.
    """

    name: str
    why: str
    make: Callable[[random.Random, int, int, tuple[int, int]], Instance]
    sizes: tuple[int, ...]
    queries: tuple[int, ...]
    trace_count: int
    tail_pct: int
    bands: int = 1

    def instance(self, seed: int, index: int) -> Instance:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        size = self.sizes[index % len(self.sizes)]
        queries = self.queries[index // len(self.sizes) % len(self.queries)]
        band = index // (len(self.sizes) * len(self.queries)) % self.bands
        return self.make(rng, size, queries, (band, self.bands))


# Sizes are kept small enough that one run completes hundreds of instances
# (about a hundred for the last two), which keeps run-to-run spread low.
# In the two search workloads two of every three instances have two queries,
# so the median falls inside one group instead of on the edge between the
# one- and two-query groups.  sat-prune also cycles five bands of its
# threshold range and stops at 13 edges: its 14-edge two-query instances
# made up most of the spread that the instance mix gave between seeds.
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "opt-search",
            "maximize under a cardinality bound on 10-11 edges: search, "
            "apply_fix and ramp restarts dominate, compile is a few percent",
            opt_search, (10, 11), (1, 2, 2), 24, 90,
        ),
        Workload(
            "sat-prune",
            "threshold at 0.3-0.8 of the optimistic bound on 12-13 edges: one "
            "search per instance, root fixes, compile a quarter of the time",
            sat_prune, (12, 13), (1, 2, 2), 30, 75, bands=5,
        ),
        Workload(
            "compile-dense",
            "threshold 0, no bound, 19-21 edges: path enumeration and apply "
            "dominate, stores of 15k-40k nodes, search idle",
            compile_dense, (19, 20, 21), (1,), 3, 75,
        ),
        Workload(
            "sparse-large",
            "trees of 200-800 edges with two chords: quadratic parse and edge "
            "scans, deep searches over variables absent from the diagrams",
            sparse_large, (200, 350, 500, 650, 800), (2,), 5, 75,
        ),
    ]
}
