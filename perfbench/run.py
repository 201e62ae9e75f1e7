"""Seeded end-to-end benchmark: parse -> compile -> solve -> check.

    python3 perfbench/run.py --workload opt-search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One workload runs in one process as a closed loop with a single client:
instance i is generated from the seed, then parsed, compiled, solved and
checked before instance i + 1 is generated.  ``--workload all`` runs every
workload in a fresh interpreter, one after another.

With ``--trace 0`` the run loops for ``--seconds`` and reports the
end-to-end metrics; ``setup_s`` is the median over instances of the time
spent in ``parse_network`` + ``build_problem``.  With ``--trace 1`` it
repeats the workload's first instances for ``--seconds``, alternating plain
rounds with rounds that record spans around every layer boundary (see
``tracing.py``), and reports per-layer totals per round: counts from one
round, times as the median round.

Every answer is checked: the strategy is complete and within the
cardinality bound, its value (recomputed by scopdd and, for at most six
selected edges, by ``oracle.py``) matches the reported optimum or meets the
threshold, and at the default seed the verdict and optimum match
``expected.json``.  An instance that raises or fails a check counts as
failed; none is skipped.

The program is imported from ``src/`` next to this directory and from
nowhere else.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

from oracle import objective_value
from tracing import Tracer, reachable_internal
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
LADDER = (99, 95, 90, 75, 50)
CHECK_TOL = 1e-9
EXPECT_TOL = 1e-7  # solve_opt is optimal to within its ramp delta, 1e-9
clock = time.perf_counter


def import_program() -> SimpleNamespace:
    """The program's modules, imported from ``src/`` beside this directory."""
    sys.path.insert(0, str(SRC))
    try:
        import scopdd
    except ImportError as exc:
        raise SystemExit(f"run.py: cannot import scopdd from {SRC}: {exc}")
    if not Path(scopdd.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"run.py: scopdd was imported from {scopdd.__file__}, not {SRC}")
    return SimpleNamespace(**{
        name: importlib.import_module(f"scopdd.{name}")
        for name in ("model_io", "solver", "evaluate")
    })


# -- one instance -------------------------------------------------------


def check_answer(solver, inst, problem, strategy, value, expected) -> list[str]:
    """Reasons the answer is wrong; empty when every check holds."""
    verdict = "unsat" if strategy is None else "sat"
    errors = []
    if expected is not None and verdict != expected[0]:
        errors.append(f"verdict {verdict}, expected {expected[0]}")
    if strategy is None:
        if inst.maximize or inst.theta <= 0.0:
            errors.append("no strategy for a problem that always has one")
        return errors
    if set(strategy) != set(problem.vars.decision_ids()):
        return errors + ["strategy does not assign every decision variable"]
    edge_of = {f"d_{u}{v}": i for i, (u, v, _) in enumerate(inst.edges)}
    selected = [edge_of[problem.vars.name(var)] for var, on in strategy.items() if on]
    if inst.cardinality is not None and len(selected) > inst.cardinality:
        errors.append(f"{len(selected)} edges selected, bound {inst.cardinality}")
    terms = problem.objective if inst.maximize else problem.constraints[0].terms
    exact = solver.strategy_value(terms, problem.vars, strategy)
    if inst.maximize:
        if abs(exact - value) > CHECK_TOL:
            errors.append(f"reported value {value!r}, strategy value {exact!r}")
        if expected is not None and abs(value - expected[1]) > EXPECT_TOL:
            errors.append(f"optimum {value!r}, expected {expected[1]!r}")
    elif exact < inst.theta - CHECK_TOL:
        errors.append(f"strategy value {exact!r} misses theta {inst.theta!r}")
    if len(selected) <= 6:  # independent value, 2**6 edge states at most
        truth = objective_value(inst, selected)
        if abs(truth - exact) > CHECK_TOL:
            errors.append(f"strategy value {exact!r}, oracle {truth!r}")
    return errors


class Outcome(NamedTuple):
    latency: float  # parse -> compile -> solve -> check
    setup: float  # parse -> compile; inf when either raised
    ok: bool
    stats: object  # the solver's SearchStats, None when it did not return


class Runner:
    """Runs instances of one workload and keeps the failure count."""

    def __init__(self, program, workload, seed: int, expected: dict):
        self.model_io = program.model_io
        self.solver = program.solver
        self.workload = workload
        self.seed = seed
        self.expected = expected.get(workload.name, []) if seed == expected.get("seed") else []
        self.attempted = 0
        self.failed = 0

    def run(self, index: int, inst) -> Outcome:
        expected = self.expected[index] if index < len(self.expected) else None
        self.attempted += 1
        start = clock()
        setup, stats = math.inf, None
        try:
            problem = self.model_io.build_problem(self.model_io.parse_network(inst.text))
            setup = clock() - start
            if inst.maximize:
                strategy, value, stats = self.solver.solve_opt(problem)
            else:
                strategy, stats = self.solver.solve_sat(problem)
                value = None
            errors = check_answer(self.solver, inst, problem, strategy, value, expected)
        except Exception:  # any crash of the program is a failed instance
            errors = [traceback.format_exc(limit=-3)]
        latency = clock() - start
        if errors:
            self.failed += 1
            if self.failed <= 3:
                print(f"instance {index} failed: {'; '.join(errors)}", file=sys.stderr)
        return Outcome(latency, setup, not errors, stats)


# -- end-to-end run -----------------------------------------------------


def percentile(ordered: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile of a sorted list and the samples beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail(ordered: list[float], pct: int) -> tuple[float, int, int]:
    """The workload's tail percentile, or the highest lower rung of the
    ladder that still has ten samples beyond it."""
    for rung in [pct] + [p for p in LADDER if p < pct]:
        value, beyond = percentile(ordered, rung)
        if beyond >= 10:
            return value, rung, beyond
    value, beyond = percentile(ordered, 50)
    return value, 50, beyond


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    w, seed = runner.workload, runner.seed
    latencies, setups, ok_count, busy, index = [], [], 0, 0.0, 0
    deadline = clock() + seconds
    while not latencies or clock() < deadline:
        done = runner.run(index, w.instance(seed, index))
        # a failed instance counts as missing any latency limit
        latencies.append(done.latency if done.ok else math.inf)
        setups.append(done.setup)
        ok_count += done.ok
        busy += done.latency
        index += 1
    ordered = sorted(latencies)
    tail_s, tail_pct, beyond = tail(ordered, w.tail_pct)
    metrics = {
        "instances_per_s": (ok_count / busy, "1/s"),
        "latency_p50_s": (percentile(ordered, 50)[0], "s"),
        "latency_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (percentile(sorted(setups), 50)[0], "s"),
    }
    notes = [
        f"fail_rate {runner.failed / runner.attempted:.4g} ratio "
        f"({runner.failed} of {runner.attempted})",
        f"latency_tail_s is p{tail_pct}: {beyond} of {len(ordered)} samples beyond it",
        f"setup_s: median parse + compile time of {len(setups)} instances",
    ]
    return metrics, notes


# -- traced run ---------------------------------------------------------


STATS_FIELDS = {  # per-layer name: SearchStats attribute
    "solver.search_nodes": "nodes_expanded",
    "solver.backtracks": "backtracks",
    "solver.node_visits": "node_visits",
}


def sweep_seconds(program, dd) -> float:
    """Median time of one sweep_values pass over the diagram, all
    decisions free."""
    domains = program.evaluate.DomainState(dd.vars)
    times = []
    for _ in range(3):
        start = clock()
        program.evaluate.sweep_values(dd, domains)
        times.append(clock() - start)
    return statistics.median(times)


def traced_round(program, runner: Runner, suite, tracer) -> dict:
    """Run the suite once with the tracer installed; per-layer values."""
    counts: dict[str, int] = {}
    wall = attributed = 0.0
    store = reachable = 0
    sweep_s = sweep_nodes = 0.0
    tracer.paths = 0
    tracer.calls.clear()
    tracer.self_time.clear()
    tracer.false_fix_touched = tracer.false_fix_reachable = 0
    for index, inst in enumerate(suite):
        done = runner.run(index, inst)
        wall += done.latency
        attributed += tracer.fold()
        for key, field in STATS_FIELDS.items():
            if hasattr(done.stats, field):
                counts[key] = counts.get(key, 0) + getattr(done.stats, field)
        for dd in tracer.diagrams:
            try:
                nodes, size = reachable_internal(dd), len(dd)
            except (AttributeError, TypeError):  # no root / lo / hi / len any more
                continue
            store += size
            reachable += nodes
            if hasattr(program.evaluate, "sweep_values"):
                sweep_s += sweep_seconds(program, dd)
                sweep_nodes += nodes
        tracer.diagrams.clear()

    calls, own = tracer.calls, tracer.self_time
    absent = set(tracer.absent)
    out = {"trace.wall_s": (wall, "s"), "trace.unattributed_s": (wall - attributed, "s")}

    def put(name, value, unit, needs=()):
        if not any(n in absent for n in needs):
            out[name] = (value, unit)

    put("model_io.parse_s", own["model_io.parse_network"], "s", ["model_io.parse_network"])
    put("model_io.build_self_s", own["model_io.build_problem"], "s", ["model_io.build_problem"])
    put("model_io.paths_s", own["model_io.st_path_dnf"], "s", ["model_io.st_path_dnf"])
    put("model_io.paths", tracer.paths, "count", ["model_io.st_path_dnf"])
    put("obdd.from_dnf_s", own["obdd.from_dnf"], "s", ["obdd.from_dnf"])
    if store:
        out["obdd.store_nodes"] = (store, "count")
        out["obdd.reachable_nodes"] = (reachable, "count")
        out["obdd.reachable_ratio"] = (reachable / store, "ratio")
    if sweep_nodes:
        out["evaluate.sweep_ns_per_node"] = (sweep_s / sweep_nodes * 1e9, "ns")
    put("propagate.apply_fix_calls", calls["propagate.apply_fix"], "count", ["propagate.apply_fix"])
    put("propagate.apply_fix_s", own["propagate.apply_fix"], "s", ["propagate.apply_fix"])
    if "propagate.apply_fix" not in absent:
        # 0 when the round made no false-fix
        out["propagate.apply_fix_touched_ratio"] = (
            tracer.false_fix_touched / max(tracer.false_fix_reachable, 1), "ratio")
    put("propagate.undo_s", own["propagate.undo_to"], "s", ["propagate.undo_to"])
    put("propagate.rebuild_calls", calls["propagate.scratch_init"], "count", ["propagate.scratch_init"])
    put("propagate.rebuild_s", own["propagate.scratch_init"], "s", ["propagate.scratch_init"])
    put("propagate.dc_calls", calls["propagate.dc_propagate"], "count", ["propagate.dc_propagate"])
    put("propagate.dc_s", own["propagate.dc_propagate"], "s", ["propagate.dc_propagate"])
    for key, count in counts.items():
        out[key] = (count, "count")
    put("solver.ramp_restarts", calls["solver.solve_sat"] / len(suite), "count", ["solver.solve_sat"])
    put("solver.ramp_self_s", own["solver.solve_opt"], "s", ["solver.solve_opt"])
    put("solver.search_self_s", own["solver.solve_sat"], "s", ["solver.solve_sat"])
    put("solver.loop_self_s", own["solver.propagation_loop"], "s", ["solver.propagation_loop"])
    put("solver.cardinality_s", own["solver.cardinality_propagate"], "s",
        ["solver.cardinality_propagate"])
    return out


def per_layer(program, runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    w, seed = runner.workload, runner.seed
    suite = [w.instance(seed, i) for i in range(w.trace_count)]

    # plain and traced rounds alternate, so that a slow spell of the
    # machine weighs on both sides of the overhead ratio
    plain, traced = [], []
    tracer = Tracer()
    deadline = clock() + seconds
    while not traced or clock() < deadline:
        plain.append(sum(runner.run(i, inst).latency for i, inst in enumerate(suite)))
        tracer.install()
        try:
            traced.append(traced_round(program, runner, suite, tracer))
        finally:
            tracer.uninstall()

    first = traced[0]
    metrics = {}
    for name, (value, unit) in first.items():
        if unit == "s" or name == "evaluate.sweep_ns_per_node":
            value = statistics.median(r[name][0] for r in traced)
        metrics[name] = (value, unit)
    metrics["trace.overhead_ratio"] = (statistics.median(
        t["trace.wall_s"][0] / p for t, p in zip(traced, plain)), "ratio")
    notes = [
        f"per-layer values are per round of {len(suite)} instances: counts from one round, "
        f"times the median of {len(traced)} traced rounds ({len(plain)} plain rounds)",
    ]
    drift = [n for n, (v, u) in first.items() if u in ("count", "ratio") and any(
        r.get(n, (None,))[0] != v for r in traced[1:])]
    if drift:
        notes.append("counters differ between rounds: " + ", ".join(sorted(drift)))
    if tracer.absent:
        notes.append("absent (name not found in the program): " + ", ".join(tracer.absent))
    return metrics, notes


# -- command line -------------------------------------------------------


def run_one(args) -> int:
    program = import_program()
    expected = json.loads((HERE / "expected.json").read_text())
    workload = WORKLOADS[args.workload]
    runner = Runner(program, workload, args.seed, expected)
    if args.trace:
        metrics, notes = per_layer(program, runner, args.seconds)
    else:
        metrics, notes = end_to_end(runner, args.seconds)
    print(f"# workload {workload.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} python {platform.python_version()} "
          f"nproc {len(os.sched_getaffinity(0))}")
    print(f"# {workload.why}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34} {value:.6g} {unit}")
    for note in notes:
        print(f"# {note}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status |= subprocess.run(cmd, check=False).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
