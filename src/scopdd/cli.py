"""Command line interface: compile, propagate, solve, bench.

Exit codes are a stable contract: 0 for success (including sat/optimal),
2 for unsat or a propagation-failure report, 1 for usage or parse errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
import time
from dataclasses import asdict
from pathlib import Path

from .baseline import bounds_propagate, decompose
from .errors import ScopddError
from .evaluate import DomainState
from .model_io import build_problem, parse_network, with_order
from .obdd import dump_dot, dump_obdd, load_obdd
from .propagate import (THRESHOLD_EPS, ConstraintTerm, constraint_scratch, dc_propagate,
                        incremental_fix, naive_propagate)
from .solver import solve_opt, solve_sat, strategy_value

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNSAT = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved for unsat here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="scopdd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", parents=[], help="compile a problem file's queries into diagram files")
    p.add_argument("problem", help="problem file")
    p.add_argument("--out-dir", default=".", help="directory for the diagram files")
    p.add_argument("--order-file", help="file listing variable names, overrides the order")
    p.add_argument("--dot", action="store_true", help="also write Graphviz renderings")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("propagate", help="one-shot propagation report on diagram files")
    p.add_argument("obdd", nargs="+", help="diagram file(s), one term each")
    p.add_argument("--theta", type=float, required=True, help="constraint threshold")
    p.add_argument("--rewards", help="comma-separated term rewards (default all 1)")
    p.add_argument("--fix", action="append", default=[], metavar="NAME=0|1",
                   help="fix a decision variable before propagating (repeatable)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("solve", help="solve a problem file")
    p.add_argument("problem", help="problem file")
    p.add_argument("--delta", type=float,
                   help="least improvement over the incumbent (objective problems; finite, >= 0)")
    p.add_argument("--theta", type=float, help="override the constraint threshold")
    p.add_argument("--cardinality", type=int, help="override the cardinality bound")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="compare propagators on random instances (CSV)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", default="5,10,20",
                   help="comma-separated decision-variable counts")
    p.add_argument("--count", type=int, default=5, help="instances per size")
    p.add_argument("--no-timing", action="store_true",
                   help="omit the wall-time column (byte-identical reruns)")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScopddError as exc:
        print(f"scopdd: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"scopdd: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _goal_terms(problem):
    """The objective's terms, or else the first constraint's."""
    return problem.objective if problem.objective else problem.constraints[0].terms


def _check_theta(theta, terms):
    max_reward = sum(t.reward for t in terms)
    if not 0.0 <= theta <= max_reward:
        raise ScopddError(f"theta must lie in [0, {max_reward:g}]")


# -- compile -----------------------------------------------------------


def cmd_compile(args) -> int:
    model = parse_network(Path(args.problem).read_text())
    if args.order_file:
        model = with_order(model, Path(args.order_file).read_text().split())
    problem = build_problem(model)
    terms = _goal_terms(problem)
    stems: list[str] = []
    for query, _, _ in problem.compiled:
        stem = f"{query.source}-{query.target}"
        if "/" in stem or "\0" in stem:  # a path, not a name: it could leave --out-dir
            raise ScopddError(f"query {query.source}->{query.target} gives no plain file name")
        if stem in stems:  # first free suffix, so no file is written twice
            suffix = len(stems)
            while f"{stem}-{suffix}" in stems:
                suffix += 1
            stem = f"{stem}-{suffix}"
        stems.append(stem)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for (query, _, nodes), term, stem in zip(problem.compiled, terms, stems):
        path = out_dir / f"{stem}.obdd"
        path.write_text(dump_obdd(term.obdd))
        if args.dot:
            (out_dir / f"{stem}.dot").write_text(dump_dot(term.obdd))
        print(f"query {query.source}->{query.target}: {nodes} internal nodes -> {path}")
    return EXIT_OK


# -- propagate ---------------------------------------------------------


def _load_terms(paths, rewards_arg):
    diagrams = [load_obdd(Path(p).read_text()) for p in paths]
    for dd in diagrams[1:]:
        if dd.vars != diagrams[0].vars:
            raise ScopddError("diagram files declare different variable blocks")
    if rewards_arg:
        try:
            rewards = [float(tok) for tok in rewards_arg.split(",")]
        except ValueError:
            raise ScopddError(f"bad --rewards {rewards_arg!r}") from None
        if len(rewards) != len(diagrams):
            raise ScopddError("need one reward per diagram file")
    else:
        rewards = [1.0] * len(diagrams)
    try:
        return [ConstraintTerm(dd, r) for dd, r in zip(diagrams, rewards)]
    except ValueError as exc:  # a negative or non-finite reward
        raise ScopddError(str(exc)) from None


def _parse_fixes(fix_args, table):
    fixed = {}
    for item in fix_args:
        for part in item.split(","):
            name, _, value = part.partition("=")
            if value not in ("0", "1", "true", "false"):
                raise ScopddError(f"bad fix {part!r}, expected NAME=0|1")
            if not table.has(name):
                raise ScopddError(f"unknown variable {name!r}")
            var = table.index(name)
            if not table.is_decision(var):
                raise ScopddError(f"{name!r} is not a decision variable")
            flag = value in ("1", "true")
            if fixed.setdefault(var, flag) != flag:
                raise ScopddError(f"conflicting values for {name!r} in --fix")
    return fixed


def cmd_propagate(args) -> int:
    terms = _load_terms(args.obdd, args.rewards)
    table = terms[0].obdd.vars
    _check_theta(args.theta, terms)
    fixed = _parse_fixes(args.fix, table)
    initial = DomainState(table, fixed=fixed)

    dc_result = dc_propagate(terms, initial.copy(), args.theta)
    # per-variable bound drops under the initial domains
    drops = dict.fromkeys(initial.free_vars(), 0.0)
    drops.update(dc_result.drops)
    # a negative drop proves that the distribution is not monotone
    rising = [table.name(v) for v, d in sorted(drops.items()) if d < -THRESHOLD_EPS]
    if rising:
        raise ScopddError("diagrams are not monotone in the decisions: fixing "
                          f"{', '.join(rising)} to 0 raises the bound")
    system = decompose(terms, args.theta)
    base = bounds_propagate(system, initial.copy())

    def fixes_text(fixes):
        return " ".join(f"{table.name(v)}={int(val)}" for v, val in fixes) or "(none)"

    if args.json:
        record = {
            "theta": args.theta,
            "bound": dc_result.bound,
            "drops": {table.name(v): d for v, d in sorted(drops.items())},
            "dc": {
                "status": dc_result.status,
                "fixed": {table.name(v): int(val) for v, val in dc_result.fixed},
                "visits": dc_result.visits,
            },
            "baseline": {
                "status": base.result.status,
                "fixed": {table.name(v): int(val) for v, val in base.result.fixed},
                "visits": base.result.visits,
                "intervals": {
                    system.var_names[k]: list(b) for k, b in sorted(base.intervals.items())
                },
                "root_interval": list(base.root_interval),
            },
        }
        print(json.dumps(record))
    else:
        print(f"F = {dc_result.bound:.6f} (theta = {args.theta:g})")
        for var, drop in sorted(drops.items()):
            print(f"delta {table.name(var)} = {drop:.6f}")
        print(f"dc:       status={dc_result.status} fixed: {fixes_text(dc_result.fixed)}")
        print(f"baseline: status={base.result.status} fixed: {fixes_text(base.result.fixed)}")
        for key, (lo, hi) in sorted(base.intervals.items()):
            print(f"          {system.var_names[key]} in [{lo:.6f}, {hi:.6f}]")
    return EXIT_OK if dc_result.ok else EXIT_UNSAT


# -- solve -------------------------------------------------------------


def cmd_solve(args) -> int:
    model = parse_network(Path(args.problem).read_text())
    problem = build_problem(model)
    if args.cardinality is not None:
        if args.cardinality < 0:
            raise ScopddError("cardinality bound must be nonnegative")
        problem.cardinality = args.cardinality
    goal_terms = _goal_terms(problem)
    if args.theta is not None:
        if problem.objective is not None:
            raise ScopddError("--theta only applies to constraint-mode problems")
        _check_theta(args.theta, goal_terms)
        problem.constraints[0].theta = args.theta
    if args.delta is not None and problem.objective is None:
        raise ScopddError("--delta only applies to objective problems")

    if problem.objective is not None:
        options = {} if args.delta is None else {"delta": args.delta}
        try:
            strategy, value, stats = solve_opt(problem, **options)
        except ValueError as exc:
            raise ScopddError(str(exc)) from None
    else:
        strategy, stats = solve_sat(problem)
        value = None
        if strategy is not None:
            value = strategy_value(goal_terms, problem.vars, strategy)

    status = "sat" if strategy is not None else "unsat"
    names = [problem.vars.name(v) for v in problem.vars.decision_ids()]
    if args.json:
        record = {
            "status": status,
            "strategy": None
            if strategy is None
            else {
                problem.vars.name(v): int(val) for v, val in sorted(strategy.items())
            },
            "value": value,
            "stats": asdict(stats),
            "compile": [
                {"source": r.query.source, "target": r.query.target,
                 "paths": r.paths, "nodes": r.nodes}
                for r in problem.compiled
            ],
        }
        print(json.dumps(record))
    else:
        print(f"status: {status}")
        if strategy is not None:
            text = " ".join(
                f"{name}={int(strategy[problem.vars.index(name)])}" for name in names
            )
            print(f"strategy: {text}")
            print(f"value: {value:.9f}")
        for key, val in asdict(stats).items():
            if key == "wall_time":
                print(f"{key}: {val:.6f}")
            else:
                print(f"{key}: {val}")
    return EXIT_OK if strategy is not None else EXIT_UNSAT


# -- bench -------------------------------------------------------------


def random_model_text(rng: random.Random, n_edges: int) -> str:
    """Deterministic random connected network with ``n_edges`` edges, one or
    two queries, edge probabilities uniform in [0.05, 0.95]."""
    k = 2
    while k * (k - 1) // 2 < n_edges:
        k += 1
    nodes = [f"v{i}" for i in range(k)]
    edges = []
    for i in range(1, k):
        edges.append((nodes[rng.randrange(i)], nodes[i]))
    pool = [
        (nodes[i], nodes[j])
        for i in range(k)
        for j in range(i + 1, k)
        if (nodes[i], nodes[j]) not in edges and (nodes[j], nodes[i]) not in edges
    ]
    extra = n_edges - len(edges)
    if extra > 0:
        edges.extend(rng.sample(pool, extra))
    lines = [f"node {n}" for n in nodes]
    lines += [f"edge {u} {v} {rng.uniform(0.05, 0.95)!r}" for u, v in edges]
    for _ in range(rng.randint(1, 2)):
        s, t = rng.sample(nodes, 2)
        lines.append(f"query {s} {t} reward 1")
    lines.append("constraint >= 0")
    return "\n".join(lines) + "\n"


def bench_instance(seed: int, n_edges: int, index: int) -> list[dict]:
    """Rows comparing the four propagators on one random instance."""
    rng = random.Random(f"{seed}:{n_edges}:{index}")
    model = parse_network(random_model_text(rng, n_edges))
    problem = build_problem(model)
    terms = problem.constraints[0].terms
    table = model.vars
    domains = DomainState(table)
    scratch = constraint_scratch(terms, domains)
    theta = rng.uniform(0.3, 0.9) * scratch.root_value()
    obdd_nodes = sum(len(t.obdd.internal_nodes()) for t in terms)
    name = f"s{seed}-n{n_edges}-i{index}"
    rows = []

    def row(propagator, fixed, visits, wall):
        rows.append(
            {
                "instance": name,
                "propagator": propagator,
                "decision_vars": len(table.decision_ids()),
                "obdd_nodes": obdd_nodes,
                "fixed": fixed,
                "visits": visits,
                "wall_s": f"{wall:.6f}",
            }
        )

    start = time.perf_counter()
    res = naive_propagate(terms, DomainState(table), theta)
    row("naive", len(res.fixed), res.visits, time.perf_counter() - start)

    start = time.perf_counter()
    res = dc_propagate(terms, DomainState(table), theta)
    row("derivative", len(res.fixed), res.visits, time.perf_counter() - start)

    free = domains.free_vars()
    start = time.perf_counter()
    before = scratch.visits
    if free:
        incremental_fix(scratch, free[0], False)
    res = dc_propagate(terms, domains, theta, scratch=scratch)
    row("incremental", len(res.fixed), scratch.visits - before, time.perf_counter() - start)

    start = time.perf_counter()
    base = bounds_propagate(decompose(terms, theta), DomainState(table))
    row("baseline", len(base.result.fixed), base.result.visits, time.perf_counter() - start)
    return rows


def cmd_bench(args) -> int:
    try:
        sizes = [int(tok) for tok in args.size.split(",") if tok]
    except ValueError:
        sizes = []
    if not sizes or min(sizes) < 1:
        raise ScopddError(f"bad --size {args.size!r}: want counts of at least 1")
    if args.count < 1:
        raise ScopddError(f"bad --count {args.count}: want at least 1")
    results = [bench_instance(args.seed, n, i) for n in sizes for i in range(args.count)]
    fields = ["instance", "propagator", "decision_vars", "obdd_nodes", "fixed", "visits"]
    if not args.no_timing:
        fields.append("wall_s")
    writer = csv.DictWriter(sys.stdout, fieldnames=fields, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    for rows in results:
        for r in rows:
            writer.writerow(r)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
