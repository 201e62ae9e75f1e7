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
By default they are registered interleaved, t before d, in edge declaration
order; an ``order`` line naming each of them once overrides this.  A query
s -> t compiles into one cube per simple path between the endpoints: the
conjunction of d_e and t_e over the path's edges, edges usable in either
direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import CapacityError, ParseError
from .obdd import DECISION, STOCHASTIC, Cube, VariableTable, _content_lines, from_dnf
from .propagate import ConstraintTerm
from .solver import Constraint, Problem

DEFAULT_PATH_CAP = 10000


@dataclass(frozen=True)
class Edge:
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
    """Everything a problem file declares, with variables registered."""

    network: ProbNetwork
    vars: VariableTable
    queries: list[Query]
    cardinality: int | None = None
    maximize: bool = False
    theta: float | None = None
    order: list[str] | None = None
    stoch_var: dict[frozenset, int] = field(default_factory=dict, compare=False)
    decision_var: dict[frozenset, int] = field(default_factory=dict, compare=False)


def edge_var_names(u: str, v: str) -> tuple[str, str]:
    """(stochastic, decision) variable names for edge (u, v)."""
    return f"t_{u}{v}", f"d_{u}{v}"


def parse_network(text: str) -> ParsedModel:
    """Parse a problem file; raises ParseError with a line number on bad input."""
    nodes: list[str] = []  # declaration order, for format_model
    node_set: set[str] = set()
    edges: list[Edge] = []
    edge_keys: set[frozenset] = set()
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
            u, v = tokens[1], tokens[2]
            for name in (u, v):
                if name not in node_set:
                    raise ParseError(f"unknown node {name!r}", lineno)
            if u == v:
                raise ParseError(f"self-loop on {u!r}", lineno)
            try:
                prob = float(tokens[3])
            except ValueError:
                raise ParseError(f"bad probability {tokens[3]!r}", lineno) from None
            if not 0.0 <= prob <= 1.0:
                raise ParseError(f"probability outside [0, 1]: {prob}", lineno)
            edge = Edge(u, v, prob)
            key = edge.key()
            if key in edge_keys:
                raise ParseError(f"duplicate edge {u!r}-{v!r}", lineno)
            if u + v in joined:  # e.g. edges a-bc and ab-c both make t_abc
                raise ParseError("edge variable names collide; rename the network nodes",
                                 lineno)
            edges.append(edge)
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

    model = ParsedModel(ProbNetwork(nodes, edges), VariableTable(), queries,
                        cardinality, maximize, theta, order)
    return _with_edge_variables(model, order_line)


def with_order(model: ParsedModel, order: list[str]) -> ParsedModel:
    """Copy of the model with its variables re-registered in the given order."""
    return _with_edge_variables(replace(model, order=list(order)))


def _with_edge_variables(model: ParsedModel, order_line: int | None = None) -> ParsedModel:
    """Register the model's edge variables, in its order if it has one, and
    map each edge to them; returns the model."""
    declared: list[tuple[str, str, float | None]] = []
    for edge in model.network.edges:
        t_name, d_name = edge_var_names(edge.u, edge.v)
        declared.append((t_name, STOCHASTIC, edge.prob))
        declared.append((d_name, DECISION, None))
    try:
        table = model.vars = VariableTable(declared, model.order, noun="edge")
    except ValueError as exc:
        raise ParseError(str(exc), order_line) from None
    model.stoch_var, model.decision_var = {}, {}
    for edge in model.network.edges:
        t_name, d_name = edge_var_names(edge.u, edge.v)
        key = edge.key()
        model.stoch_var[key] = table.index(t_name)
        model.decision_var[key] = table.index(d_name)
    return model


def st_path_dnf(
    model: ParsedModel, query: Query, cap: int = DEFAULT_PATH_CAP
) -> list[Cube]:
    """One cube (d_e and t_e over the path's edges) per simple source-target
    path.  Disconnected endpoints yield an empty list (a constant-false
    event); more than ``cap`` paths raises CapacityError."""
    network = model.network
    adjacency: dict[str, list[tuple[str, Edge]]] = {name: [] for name in network.nodes}
    for edge in network.edges:
        adjacency[edge.u].append((edge.v, edge))
        adjacency[edge.v].append((edge.u, edge))
    for name in (query.source, query.target):
        if name not in adjacency:
            raise ValueError(f"unknown node {name!r}")
    cubes: list[Cube] = []
    visited = {query.source}
    path_edges: list[Edge] = []
    # depth-first over simple paths; each frame holds a path node and the
    # iterator over its remaining neighbours, in edge declaration order
    stack = [(query.source, iter(adjacency[query.source]))]
    while stack:
        at, neighbors = stack[-1]
        if at == query.target:
            if len(cubes) >= cap:
                raise CapacityError(
                    f"more than {cap} simple paths from {query.source!r} to "
                    f"{query.target!r}; use a smaller instance or raise the cap"
                )
            literals = []
            for edge in path_edges:
                literals.append((model.decision_var[edge.key()], True))
                literals.append((model.stoch_var[edge.key()], True))
            cubes.append(Cube(tuple(literals)))
            neighbors = ()  # a path ends at the target
        for neighbor, edge in neighbors:
            if neighbor not in visited:
                visited.add(neighbor)
                path_edges.append(edge)
                stack.append((neighbor, iter(adjacency[neighbor])))
                break
        else:
            stack.pop()
            visited.discard(at)
            if path_edges:
                path_edges.pop()
    return cubes


def build_problem(model: ParsedModel) -> Problem:
    """Compile every query and assemble the instance."""
    terms = [
        ConstraintTerm(from_dnf(model.vars, st_path_dnf(model, query)), query.reward)
        for query in model.queries
    ]
    if model.maximize:
        return Problem(model.vars, [], model.cardinality, objective=terms)
    return Problem(
        model.vars, [Constraint(terms, model.theta)], model.cardinality
    )


def format_model(model: ParsedModel) -> str:
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
