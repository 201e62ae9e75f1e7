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
duplicates.  The diagram levels follow an ``order`` line naming each
variable once; without one they follow the order rule, a maximum-adjacency
ranking (maximum cardinality search, Tarjan & Yannakakis 1984).  The first
query's source ranks first; each next node is the unranked one with the
most ranked neighbours, a tie going to the one with fewer neighbours and
then to the one declared first.  Nodes the source does not reach stay
unranked.  The edges are sorted by (rank of the earlier endpoint, rank of
the later endpoint, declaration index), and edges between unranked nodes
go last, as declared; each edge's t sits just above its d.  This keeps few
edges open between the levels visited and the levels to come, and with
them the diagrams small.

A query s -> t compiles into one cube per simple path between the
endpoints: the conjunction of d_e and t_e over the path's edges, edges
usable in either direction.  A query may have at most ``PATH_CAP`` (10,000)
simple paths; one with more raises CapacityError, which the command line
reports with exit code 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from typing import NamedTuple

from .errors import CapacityError, ParseError
from .obdd import DECISION, STOCHASTIC, Cube, VariableTable, _content_lines, from_dnf
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
    """Everything a problem file declares.  The variable table and the
    adjacency are derived from it on construction, so ``replace`` derives
    them again."""

    network: ProbNetwork
    queries: list[Query]
    cardinality: int | None = None
    maximize: bool = False
    theta: float | None = None
    order: list[str] | None = None  # the file's order line, if any
    vars: VariableTable = field(init=False)
    # node -> (neighbour, edge index) pairs in edge declaration order
    adjacency: dict[str, list[tuple[str, int]]] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        """Register the edge variables, edge i's at indices 2i and 2i + 1,
        with levels from the order if there is one and from the order rule
        if not."""
        edges = self.network.edges
        self.adjacency = adjacency = {name: [] for name in self.network.nodes}
        for i, (u, v, _) in enumerate(edges):
            adjacency[u].append((v, i))
            adjacency[v].append((u, i))
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

    for lineno, tokens in _content_lines(text):
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
            if u + v in joined:  # e.g. edges a-bc and ab-c both make t_abc
                raise ParseError("edge variable names collide; rename the network nodes",
                                 lineno)
            edges.append(Edge(u, v, prob))
            edge_keys.add(key)
            joined.add(u + v)
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
    adjacency = model.adjacency
    names = list(adjacency)  # declaration order
    edges = model.network.edges
    # an unranked node's heap key packs (-ranked neighbours, neighbours,
    # position) into one int; a ranked node's key is ~rank, below 0
    shift = len(names).bit_length()
    mask = (1 << shift) - 1
    step = 1 << 2 * shift  # one more ranked neighbour
    keys = {name: len(names) * step | len(links) << shift | k
            for k, (name, links) in enumerate(adjacency.items())}
    width = len(edges).bit_length()
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
    if ranked < len(names):  # edges between unranked nodes go last, as declared
        order += [i for i, (u, _, _) in enumerate(edges) if keys[u] >= 0]
    return order


def st_path_dnf(model: ParsedModel, query: Query) -> list[Cube]:
    """One cube (d_e and t_e over the path's edges) per simple source-target
    path.  Disconnected endpoints yield an empty list (a constant-false
    event); more than ``PATH_CAP`` paths raises CapacityError.

    A node other than the endpoints with at most one neighbour left lies on
    no simple path between them, so such dead ends are dropped, repeatedly,
    before the walk; the paths and their order are those of the walk over
    the whole network."""
    adjacency = model.adjacency
    ends = {query.source, query.target}
    for name in ends:
        if name not in adjacency:
            raise ValueError(f"unknown node {name!r}")
    # the dead ends start out visited, so the walk never enters them
    visited = {name for name, links in adjacency.items()
               if len(links) <= 1 and name not in ends}
    dead_ends = list(visited)
    degree: dict[str, int] = {}  # neighbours left, once a node has lost one
    while dead_ends:
        for neighbor, _ in adjacency[dead_ends.pop()]:
            if neighbor not in visited and neighbor not in ends:
                degree[neighbor] = degree.get(neighbor, len(adjacency[neighbor])) - 1
                if degree[neighbor] == 1:
                    visited.add(neighbor)
                    dead_ends.append(neighbor)
    visited.add(query.source)
    cubes: list[Cube] = []
    path: list[int] = []  # edge indices
    # depth-first over simple paths; each frame holds a path node and the
    # iterator over its remaining neighbours, in edge declaration order
    stack = [(query.source, iter(adjacency[query.source]))]
    while stack:
        at, neighbors = stack[-1]
        if at == query.target:
            if len(cubes) >= PATH_CAP:
                raise CapacityError(f"more than {PATH_CAP} simple paths from "
                                    f"{query.source!r} to {query.target!r}")
            # a simple path's edges are distinct, so its variables are too
            cubes.append(Cube._sorted(tuple(
                var for i in sorted(path) for var in (2 * i, 2 * i + 1))))
            neighbors = ()  # a path ends at the target
        for neighbor, i in neighbors:
            if neighbor not in visited:
                visited.add(neighbor)
                path.append(i)
                stack.append((neighbor, iter(adjacency[neighbor])))
                break
        else:
            stack.pop()
            visited.discard(at)
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
