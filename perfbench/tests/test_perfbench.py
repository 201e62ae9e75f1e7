"""The benchmark's own checks: stored answers, determinism, output shape."""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys

import pytest

import expectations
import run
from oracle import st_reliability
from tracing import Tracer, reachable_internal
from workloads import DEFAULT_SEED, WORKLOADS, opt_search

from conftest import BENCH

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
COUNTERS = ("solver.search_nodes", "solver.backtracks", "solver.node_visits",
            "solver.ramp_restarts", "model_io.paths", "obdd.store_nodes",
            "obdd.reachable_nodes")

# sha256 of the texts of each workload's trace suite at the default seed;
# a change here is a change of workload and needs a new baseline
TEXT_DIGESTS = {
    "opt-search": "701a5a01241f46150d1bae9ea838bcc55f2d17514bfa1dcc66f212ffebddbc6b",
    "sat-prune": "4f7d158f27c93a876d288ba7dac6be07b25ab989c4c47724514d7ddc659e9913",
    "compile-dense": "91c1637f1a27e5521424037fa3e745bae8a541234ab4c05a77331dc66773be59",
    "sparse-large": "8a776ea55b1beb8daf65b1e1c4f86e5196be74b20b81f2fa6f33aadd89ff5883",
}


@pytest.fixture(scope="module")
def program():
    return run.import_program()


def traced_counters(program, workload, seed, suite):
    runner = run.Runner(program, workload, seed, {})
    tracer = Tracer()
    tracer.install()
    try:
        metrics = run.traced_round(program, runner, suite, tracer)
    finally:
        tracer.uninstall()
    assert runner.failed == 0
    return {name: metrics[name][0] for name in COUNTERS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_stored_answers_match_brute_force(name):
    stored = json.loads(expectations.PATH.read_text())
    assert stored["seed"] == DEFAULT_SEED
    assert expectations.compute(name) == stored[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_texts_are_fixed(name):
    workload = WORKLOADS[name]
    digest = hashlib.sha256()
    for index in range(workload.trace_count):
        digest.update(workload.instance(DEFAULT_SEED, index).text.encode())
    assert digest.hexdigest() == TEXT_DIGESTS[name]


def test_sat_prune_mixes_verdicts():
    stored = json.loads(expectations.PATH.read_text())["sat-prune"]
    assert {"sat", "unsat"} == {verdict for verdict, _ in stored}


def test_reliability_of_series_and_parallel_edges():
    assert st_reliability([("a", "b", 0.5), ("b", "c", 0.4)], "a", "c") == pytest.approx(0.2)
    assert st_reliability([("a", "b", 0.5), ("a", "b", 0.4)], "a", "b") == pytest.approx(0.7)
    assert st_reliability([("a", "b", 0.5)], "a", "c") == 0.0


@pytest.mark.parametrize("n, nodes, visits, reachable", [
    (8, 82, 13_485, [38, 40]),
    (12, 40, 21_013, [116, 120]),
    (16, 373, 403_790, [388]),
])
def test_reproduces_the_roadmap_baseline(program, n, nodes, visits, reachable):
    inst = opt_search(random.Random(f"7:{n}"), n)
    counters = traced_counters(program, WORKLOADS["opt-search"], 0, [inst])
    assert counters["solver.search_nodes"] == nodes
    assert counters["solver.node_visits"] == visits
    assert counters["obdd.reachable_nodes"] == sum(reachable)
    problem = program.model_io.build_problem(program.model_io.parse_network(inst.text))
    assert [reachable_internal(t.obdd) for t in problem.objective] == reachable


@pytest.mark.parametrize("name", ["opt-search", "sat-prune"])
def test_same_seed_gives_identical_counters(program, name):
    workload = WORKLOADS[name]
    suite = [workload.instance(5, i) for i in range(4)]
    first = traced_counters(program, workload, 5, suite)
    again = [workload.instance(5, i) for i in range(4)]
    assert traced_counters(program, workload, 5, again) == first


def test_self_times_account_for_the_traced_wall(program):
    workload = WORKLOADS["opt-search"]
    runner = run.Runner(program, workload, DEFAULT_SEED, {})
    tracer = Tracer()
    tracer.install()
    try:
        metrics = run.traced_round(program, runner, [workload.instance(1, 0)], tracer)
    finally:
        tracer.uninstall()
    own = sum(tracer.self_time.values())
    wall = metrics["trace.wall_s"][0]
    assert own + metrics["trace.unattributed_s"][0] == pytest.approx(wall)
    assert 0 <= metrics["trace.unattributed_s"][0] < 0.2 * wall


def test_a_missing_name_is_reported_absent(monkeypatch):
    import tracing

    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [
        ("scopdd.solver", "no_such_function", "solver.no_such_function"),
        ("scopdd.no_such_module", "f", "gone.f"),
    ])
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["solver.no_such_function", "gone.f"]


def test_tail_steps_down_the_ladder():
    samples = [float(i) for i in range(1, 101)]
    assert run.tail(samples, 95) == (90.0, 90, 10)
    assert run.tail(samples[:40], 95) == (30.0, 75, 10)


def bench(*args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_prints_every_declared_metric(trace, section):
    done = bench("--workload", "opt-search", "--seed", "3", "--seconds", "1",
                 "--trace", trace, cwd=BENCH.parent)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "opt-search", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
