"""Problem file ingestion: probabilistic networks, queries, directives.

The problem file format is line oriented (``#`` starts a comment):

    node <name>
    edge <u> <v> <p>            # undirected, p in [0, 1]
    query <s> <t> [reward <r>]  # reward defaults to 1
    cardinality <= <N>          # optional
    objective maximize          # exactly one of these
    constraint >= <theta>       #   two directives is required
    order <varname> ...         # optional variable-order override

Each edge (u, v) contributes a stochastic variable ``t_uv`` carrying the
edge probability and a decision variable ``d_uv`` that selects the edge.
They are registered interleaved, t before d, in edge declaration order, so
edge i's variables have indices 2i and 2i + 1; the model keeps no other
map from edges to variables.  The variable table takes the list of names,
the list of probabilities (None for a decision variable) and the order
rule's level permutation as they are built, one pass each.  Two edge lines
between the same endpoints, in either direction, are rejected as
duplicates.

The model peels its network once: it strips nodes with at most one
neighbour left, repeatedly, but never an endpoint of a query.  The nodes
left are the kept part; each stripped node records the neighbour it hung
from.  A stripped node lies on no simple path between two kept nodes, so
the queries' paths use only edges between kept nodes.

The diagram levels follow an ``order`` line naming each variable once;
without one they follow the order rule, a maximum-adjacency ranking
(maximum cardinality search, Tarjan & Yannakakis 1984) of the kept part.
The first query's source ranks first; each next node is the unranked kept
node with the most ranked neighbours, a tie going to the one with fewer
neighbours in the whole network and then to the one declared first.  Kept
nodes the source does not reach stay unranked.  The edges between ranked
nodes are sorted by (rank of the earlier endpoint, rank of the later
endpoint, declaration index); every other edge, one between unranked
nodes or with a stripped endpoint, goes last, as declared; each edge's t
sits just above its d.  This keeps few edges open between the levels
visited and the levels to come, and with them the diagrams small.
Ranking the whole network would rank a stripped node only after the node
it hangs from, and a stripped node adds to no kept node's count, so the
kept edges keep the relative order that ranking the whole network would
give them, and every diagram is the one it would give.

A query s -> t compiles into one cube per simple path between the
endpoints: the conjunction of d_e and t_e over the path's edges, edges
usable in either direction.  The walk keeps to the kept part and the
hang-from chains of the query's own endpoints, which may be stripped when
the query is not one of the model's.  A query may have at most
``PATH_CAP`` (10,000) simple paths; one with more raises CapacityError,
which the command line reports with exit code 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from typing import NamedTuple

from .errors import CapacityError, ParseError
from .obdd import DECISION, STOCHASTIC, Cube, VariableTable, from_dnf
from .propagate import ConstraintTerm
from .solver import Constraint, Problem

PATH_CAP = 10000  # simple paths per query


class Edge(NamedTuple):
    u: str
    v: str
    prob: float

    def key(self) -> frozenset:
        return frozenset((self.u, self.v))


@dataclass
class ProbNetwork:
    """Undirected network with per-edge probabilities."""

    nodes: list[str]
    edges: list[Edge]


@dataclass(frozen=True)
class Query:
    """Connectivity event between two distinct network nodes."""

    source: str
    target: str
    reward: float = 1.0


@dataclass
class ParsedModel:
    """Everything a problem file declares.  The adjacency, the kept part
    and the variable table are derived from it on construction, so
    ``replace`` derives them again."""

    network: ProbNetwork
    queries: list[Query]
    cardinality: int | None = None
    maximize: bool = False
    theta: float | None = None
    order: list[str] | None = None  # the file's order line, if any
    vars: VariableTable = field(init=False)
    # node -> (neighbour, edge index) pairs in edge declaration order
    adjacency: dict[str, list[tuple[str, int]]] = field(init=False, compare=False, repr=False)
    # kept node -> how many neighbours it has in the kept part, in declaration order
    kept: dict[str, int] = field(init=False, compare=False, repr=False)
    # stripped node -> its link to the neighbour it hung from, or None
    hang: dict[str, tuple[str, int] | None] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        """Register the edge variables, edge i's at indices 2i and 2i + 1,
        with levels from the order if there is one and from the order rule
        if not, after peeling the network down to its kept part."""
        edges = self.network.edges
        self.adjacency = adjacency = {name: [] for name in self.network.nodes}
        for i, (u, v, _) in enumerate(edges):
            adjacency[u].append((v, i))
            adjacency[v].append((u, i))
        self.kept, self.hang = _peel(adjacency, self.queries)
        names: list[str] = [""] * (2 * len(edges))
        names[::2] = [f"t_{u}{v}" for u, v, _ in edges]
        names[1::2] = [f"d_{u}{v}" for u, v, _ in edges]
        probs: list[float | None] = [None] * len(names)  # None for each d
        probs[::2] = edge_probs = [prob for _, _, prob in edges]
        try:
            if self.order is None and None not in edge_probs:
                by_level = [0] * len(names)  # each edge's t just above its d
                by_level[::2] = t_vars = [2 * i for i in _rule_edge_order(self)]
                by_level[1::2] = [var + 1 for var in t_vars]
                self.vars = VariableTable._from_levels(names, probs, by_level)
            else:  # an order line, or a t without a probability, which this rejects
                kinds = [STOCHASTIC, DECISION] * len(edges)
                self.vars = VariableTable(list(zip(names, kinds, probs)), self.order, noun="edge")
        except ValueError as exc:
            raise ParseError(str(exc)) from None


def _peel(adjacency: dict[str, list[tuple[str, int]]],
          queries: list[Query]) -> tuple[dict[str, int], dict[str, tuple[str, int] | None]]:
    """The kept part, each kept node with its count of neighbours in it, in
    declaration order, and the hang-from map: each stripped node's link
    (neighbour, edge index) to the neighbour it hung from, or None for the
    last node of a stripped tree.  Strips nodes with at most one neighbour
    left, repeatedly, but never a query's endpoint."""
    if not queries:
        raise ParseError("no query declared")
    ends = set()
    for query in queries:
        for name in (query.source, query.target):
            if name not in adjacency:
                raise ParseError(f"unknown node {name!r}")
            ends.add(name)
    kept = {name: len(links) for name, links in adjacency.items()}
    leaves = [name for name, degree in kept.items() if degree <= 1 and name not in ends]
    hang: dict[str, tuple[str, int] | None] = {}
    while leaves:
        leaf = leaves.pop()
        del kept[leaf]
        for link in adjacency[leaf]:
            neighbor = link[0]
            if neighbor in kept:  # the one neighbour left
                hang[leaf] = link
                kept[neighbor] = degree = kept[neighbor] - 1
                if degree == 1 and neighbor not in ends:
                    leaves.append(neighbor)
                break
        else:
            hang[leaf] = None
    return kept, hang


def parse_network(text: str) -> ParsedModel:
    """Parse a problem file; raises ParseError with a line number on bad input."""
    nodes: list[str] = []  # declaration order
    node_set: set[str] = set()
    edges: list[Edge] = []
    edge_keys: set[tuple[str, str]] = set()  # each edge's endpoints, the smaller first
    joined: set[str] = set()  # u + v of every edge, the stem of its variable names
    queries: list[Query] = []
    cardinality: int | None = None
    maximize = False
    theta: float | None = None
    order: list[str] | None = None
    order_line = None
    goal_seen = False
    new_tuple = tuple.__new__  # makes an Edge without NamedTuple's Python-level __new__

    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        keyword = tokens[0]
        if keyword == "node":
            if len(tokens) != 2:
                raise ParseError("expected 'node <name>'", lineno)
            if tokens[1] in node_set:
                raise ParseError(f"duplicate node {tokens[1]!r}", lineno)
            nodes.append(tokens[1])
            node_set.add(tokens[1])
        elif keyword == "edge":
            if len(tokens) != 4:
                raise ParseError("expected 'edge <u> <v> <p>'", lineno)
            _, u, v, p = tokens
            if u not in node_set or v not in node_set:
                raise ParseError(f"unknown node {u if u not in node_set else v!r}", lineno)
            if u == v:
                raise ParseError(f"self-loop on {u!r}", lineno)
            try:
                prob = float(p)
            except ValueError:
                raise ParseError(f"bad probability {p!r}", lineno) from None
            if not 0.0 <= prob <= 1.0:
                raise ParseError(f"probability outside [0, 1]: {prob}", lineno)
            key = (u, v) if u < v else (v, u)
            if key in edge_keys:
                raise ParseError(f"duplicate edge {u!r}-{v!r}", lineno)
            stem = u + v
            if stem in joined:  # e.g. edges a-bc and ab-c both make t_abc
                raise ParseError("edge variable names collide; rename the network nodes",
                                 lineno)
            edges.append(new_tuple(Edge, (u, v, prob)))
            edge_keys.add(key)
            joined.add(stem)
        elif keyword == "query":
            if len(tokens) not in (3, 5) or (len(tokens) == 5 and tokens[3] != "reward"):
                raise ParseError("expected 'query <s> <t> [reward <r>]'", lineno)
            s, t = tokens[1], tokens[2]
            for name in (s, t):
                if name not in node_set:
                    raise ParseError(f"unknown node {name!r}", lineno)
            if s == t:
                raise ParseError("query source and target must differ", lineno)
            reward = 1.0
            if len(tokens) == 5:
                try:
                    reward = float(tokens[4])
                except ValueError:
                    raise ParseError(f"bad reward {tokens[4]!r}", lineno) from None
                if not 0.0 <= reward < math.inf:
                    raise ParseError(f"reward must be finite and nonnegative: {reward}", lineno)
            queries.append(Query(s, t, reward))
        elif keyword == "cardinality":
            if len(tokens) != 3 or tokens[1] != "<=":
                raise ParseError("expected 'cardinality <= <N>'", lineno)
            if cardinality is not None:
                raise ParseError("duplicate cardinality directive", lineno)
            try:
                cardinality = int(tokens[2])
            except ValueError:
                raise ParseError(f"bad bound {tokens[2]!r}", lineno) from None
            if cardinality < 0:
                raise ParseError("cardinality bound must be nonnegative", lineno)
        elif keyword == "objective":
            if len(tokens) != 2 or tokens[1] != "maximize":
                raise ParseError("expected 'objective maximize'", lineno)
            if goal_seen:
                raise ParseError("duplicate objective/constraint directive", lineno)
            maximize, goal_seen = True, True
        elif keyword == "constraint":
            if len(tokens) != 3 or tokens[1] != ">=":
                raise ParseError("expected 'constraint >= <theta>'", lineno)
            if goal_seen:
                raise ParseError("duplicate objective/constraint directive", lineno)
            try:
                theta = float(tokens[2])
            except ValueError:
                raise ParseError(f"bad threshold {tokens[2]!r}", lineno) from None
            if not math.isfinite(theta):
                raise ParseError(f"threshold must be finite: {theta}", lineno)
            goal_seen = True
        elif keyword == "order":
            if order is not None:
                raise ParseError("duplicate order line", lineno)
            order, order_line = tokens[1:], lineno
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno)

    if not nodes:
        raise ParseError("no nodes declared")
    if not goal_seen:
        raise ParseError("need exactly one 'objective maximize' or 'constraint >= <theta>'")
    if not queries:
        raise ParseError("no query declared")

    try:
        return ParsedModel(ProbNetwork(nodes, edges), queries, cardinality, maximize, theta, order)
    except ParseError as exc:  # only an order line can fail here
        raise ParseError(str(exc), order_line) from None


def with_order(model: ParsedModel, order: list[str]) -> ParsedModel:
    """Copy of the model whose variables take their levels from the given
    order; their indices stay in declaration order."""
    return replace(model, order=list(order))


def _rule_edge_order(model: ParsedModel) -> list[int]:
    """Edge indices sorted by the order rule of the module docstring."""
    adjacency, kept = model.adjacency, model.kept
    names = list(kept)  # declaration order
    # an unranked node's heap key packs (-ranked neighbours, neighbours,
    # position) into one int; a ranked node's key is ~rank, below 0
    shift = len(adjacency).bit_length()
    mask = (1 << shift) - 1
    step = 1 << 2 * shift  # one more ranked neighbour
    keys = {name: len(names) * step | len(adjacency[name]) << shift | k
            for k, name in enumerate(names)}
    width = len(model.network.edges).bit_length()
    keyed: list[int] = []  # (earlier rank, later rank, edge index), packed
    ranked = 0
    heap = [keys[model.queries[0].source]]
    while heap:
        key = heappop(heap)
        at = names[key & mask]
        if keys[at] != key:  # the node was ranked, or has a smaller key since
            continue
        keys[at] = ~ranked
        for neighbor, i in adjacency[at]:
            key = keys.get(neighbor)
            if key is None:  # a stripped node: its edge goes last
                continue
            if key >= 0:
                keys[neighbor] = key = key - step
                heappush(heap, key)
            else:
                keyed.append((~key << shift | ranked) << width | i)
        ranked += 1
    keyed.sort()
    low = (1 << width) - 1
    order = [key & low for key in keyed]
    if len(order) < len(model.network.edges):  # every other edge goes last, as declared
        # an edge with a stripped endpoint is the hang-from link of the endpoint
        # stripped first
        others = [link[1] for link in model.hang.values() if link]
        if ranked < len(names):  # edges between kept nodes the source does not reach
            others += {i for name, key in keys.items() if key >= 0
                       for neighbor, i in adjacency[name] if neighbor in keys}
        order += sorted(others)
    return order


def st_path_dnf(model: ParsedModel, query: Query) -> list[Cube]:
    """One cube (d_e and t_e over the path's edges) per simple source-target
    path.  Disconnected endpoints yield an empty list (a constant-false
    event); more than ``PATH_CAP`` paths raises CapacityError.

    The walk keeps to the kept part and the hang-from chains of the
    endpoints.  In there, a node other than the endpoints with at most one
    neighbour left lies on no simple path between them, so such dead ends
    are dropped, repeatedly, before the walk; the paths and their order are
    those of the walk over the whole network."""
    adjacency, hang = model.adjacency, model.hang
    source, target = query.source, query.target
    for name in (source, target):
        if name not in adjacency:
            raise ValueError(f"unknown node {name!r}")
    # the nodes the walk may use, each with its count of neighbours among
    # them: the kept part, and the hang-from chain of a stripped endpoint
    degree = model.kept
    if source in hang or target in hang:
        degree = dict(degree)
        chains = []
        for name in (source, target):
            while name in hang and name not in degree:
                degree[name] = 0
                chains.append(name)
                link = hang[name]
                name = link[0] if link else None
        for name in chains:
            degree[name] = sum(neighbor in degree for neighbor, _ in adjacency[name])
            link = hang[name]
            if link and link[0] in model.kept:
                degree[link[0]] += 1
    ends = {source, target}
    # the nodes the walk may still enter: not a dead end, and not on the path
    free = {name for name, links in degree.items() if links > 1 or name in ends}
    dead_ends = [name for name in degree if name not in free] if len(free) < len(degree) else []
    left: dict[str, int] = {}  # neighbours left, once a node has lost one
    while dead_ends:
        for neighbor, _ in adjacency[dead_ends.pop()]:
            if neighbor in free and neighbor not in ends:
                left[neighbor] = left.get(neighbor, degree[neighbor]) - 1
                if left[neighbor] == 1:
                    free.discard(neighbor)
                    dead_ends.append(neighbor)
    free.discard(source)
    cubes: list[Cube] = []
    path: list[int] = []  # edge indices
    # depth-first over simple paths; each frame holds a path node and the
    # iterator over its remaining neighbours, in edge declaration order
    stack = [(source, iter(adjacency[source]))]
    while stack:
        at, neighbors = stack[-1]
        if at == target:
            if len(cubes) >= PATH_CAP:
                raise CapacityError(f"more than {PATH_CAP} simple paths from "
                                    f"{source!r} to {target!r}")
            # a simple path's edges are distinct, so its variables are too
            cubes.append(Cube._sorted(tuple(
                var for i in sorted(path) for var in (2 * i, 2 * i + 1))))
            neighbors = ()  # a path ends at the target
        for neighbor, i in neighbors:
            if neighbor in free:
                free.remove(neighbor)
                path.append(i)
                stack.append((neighbor, iter(adjacency[neighbor])))
                break
        else:
            stack.pop()
            free.add(at)
            if path:
                path.pop()
    return cubes


class CompileRecord(NamedTuple):
    """One query's compile counters: its simple paths, and the internal
    nodes of its diagram, each reachable from the root."""

    query: Query
    paths: int
    nodes: int


def build_problem(model: ParsedModel) -> Problem:
    """Compile every query and assemble the instance, with one
    ``CompileRecord`` per query, in query order, as ``Problem.compiled``."""
    terms, compiled = [], []
    for query in model.queries:
        cubes = st_path_dnf(model, query)
        dd = from_dnf(model.vars, cubes)  # a compact store: its nodes are the reachable ones
        terms.append(ConstraintTerm(dd, query.reward))
        compiled.append(CompileRecord(query, len(cubes), len(dd) - 2))
    if model.maximize:
        return Problem(model.vars, [], model.cardinality, objective=terms, compiled=compiled)
    return Problem(
        model.vars, [Constraint(terms, model.theta)], model.cardinality, compiled=compiled
    )
