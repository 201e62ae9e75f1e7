"""Cardinality propagation, the propagation loop, and the two search modes."""

import math
import random
from dataclasses import asdict

import pytest

import scopdd as sc
from scopdd import solver as solver_module
from scopdd.cli import random_model_text

from conftest import (all_strategies, fixed_items, make_table, pick_theta, random_cubes,
                      random_domains, score_table)


def feasible_strategies(problem):
    for strategy in all_strategies(problem.vars):
        if (
            problem.cardinality is not None
            and sum(strategy.values()) > problem.cardinality
        ):
            continue
        yield strategy


def brute_sat(problem):
    for strategy in feasible_strategies(problem):
        if all(
            sc.strategy_value(c.terms, problem.vars, strategy) >= c.theta
            for c in problem.constraints
        ):
            return strategy
    return None


def brute_opt(problem):
    return max(
        sc.strategy_value(problem.objective, problem.vars, strategy)
        for strategy in feasible_strategies(problem)
    )


def ramp_opt(problem, delta=1e-9):
    """Optimization by threshold ramping, the path ``solve_opt`` replaced:
    re-solve satisfaction with the objective as a constraint raised past
    each incumbent, until unsatisfiable; the constraint sits one
    ``THRESHOLD_EPS`` above the exact threshold, which the common slack
    takes back off.  Returns the last strategy, its value, the incumbent
    count and the summed search nodes."""
    best, value, incumbents, nodes = None, None, 0, 0
    while True:
        theta = 0.0 if value is None else value + delta
        ramp = sc.Constraint(problem.objective, theta + sc.THRESHOLD_EPS)
        sub = sc.Problem(problem.vars, problem.constraints + [ramp], problem.cardinality)
        strategy, stats = sc.solve_sat(sub)
        nodes += stats.nodes_expanded
        if strategy is None:
            return best, value, incumbents, nodes
        best, incumbents = strategy, incumbents + 1
        value = sc.strategy_value(problem.objective, problem.vars, strategy)


def star_problem(goal, leaves=1100):
    """Hub ``h`` joined to ``leaves`` nodes, one query to the first: only
    ``d_hx0`` labels a diagram node, every other edge variable is unread."""
    lines = ["node h"] + [f"node x{i}" for i in range(leaves)]
    lines += [f"edge h x{i} 0.5" for i in range(leaves)]
    lines += ["query h x0", goal]
    return sc.build_problem(sc.parse_network("\n".join(lines) + "\n"))


@pytest.fixture(scope="module")
def hub():
    """Hub ``h`` joined to 1,100 leaves, one term ``d_hxi and t_hxi`` per
    leaf: every edge variable is labelled, so under a bound of 1,099 the
    search fixes one edge per level, deeper than Python's default recursion
    limit of 1,000.  Built through the table, without parsing or path
    enumeration, and shared by the tests that use it."""
    table = sc.VariableTable()
    for i in range(1100):
        table.add_stochastic(f"t_hx{i}", 0.5)
        table.add_decision(f"d_hx{i}")
    terms = [
        sc.ConstraintTerm(sc.from_dnf(table, [sc.Cube.positive([2 * i, 2 * i + 1])]))
        for i in range(1100)
    ]
    return table, terms


def random_problem(rng, table_terms=None):
    """A random sat or opt problem over ``table_terms`` (default: drawn by
    ``_random_terms``); returns it and whether it maximizes."""
    table, terms = table_terms or _random_terms(rng)
    maximize = rng.random() < 0.5
    cardinality = (
        rng.randint(0, len(table.decision_ids())) if rng.random() < 0.5 else None
    )
    if maximize:
        return sc.Problem(table, [], cardinality, objective=terms), True
    domains = sc.DomainState(table)
    _, scores = score_table(table, terms, domains)
    if cardinality is not None:
        scores = {
            bits: v for bits, v in scores.items() if sum(bits) <= cardinality
        }
    theta = pick_theta(rng, scores)
    return (
        sc.Problem(table, [sc.Constraint(terms, theta)], cardinality),
        False,
    )


def _random_terms(rng):
    table = make_table(rng, rng.randint(1, 7), rng.randint(1, 5))
    n_terms = rng.choice([1, 1, 2])
    terms = [
        sc.ConstraintTerm(
            sc.from_dnf(table, random_cubes(rng, table, max_cubes=5)),
            rng.choice([1.0, 1.0, 2.0]),
        )
        for _ in range(n_terms)
    ]
    return table, terms


def _unlabelled_terms(rng):
    """Like ``_random_terms``, but one to three decision variables of the
    table appear in no cube."""
    table = make_table(rng, rng.randint(2, 8), rng.randint(1, 4))
    decisions = table.decision_ids()
    spare = set(rng.sample(decisions, rng.randint(1, min(3, len(decisions) - 1))))
    used = [v for v in range(len(table)) if v not in spare]
    terms = [
        sc.ConstraintTerm(
            sc.from_dnf(table, [
                sc.Cube.positive(rng.sample(used, rng.randint(1, min(4, len(used)))))
                for _ in range(rng.randint(1, 5))
            ]),
            rng.choice([1.0, 1.0, 2.0]),
        )
        for _ in range(rng.choice([1, 1, 2]))
    ]
    return table, terms


class TestCardinalityPropagate:
    def test_saturated_bound_removes_true(self):
        table = sc.VariableTable()
        for i in range(5):
            table.add_decision(f"d{i}")
        domains = sc.DomainState(table, fixed={0: True, 1: True})
        result = sc.cardinality_propagate(domains, 2)
        assert result.ok
        assert result.fixed == [(2, False), (3, False), (4, False)]

    def test_generous_bound_is_noop(self):
        table = sc.VariableTable()
        for i in range(3):
            table.add_decision(f"d{i}")
        result = sc.cardinality_propagate(sc.DomainState(table), 3)
        assert result.ok and result.fixed == []

    def test_exceeded_bound_fails(self):
        table = sc.VariableTable()
        table.add_decision("d0")
        domains = sc.DomainState(table, fixed={0: True})
        assert sc.cardinality_propagate(domains, 0).status == sc.FAILED


def rerun_until_unchanged(domains, problem):
    """The propagation loop before the one-round rule: every propagator runs
    again after any round that changed a domain.  Returns (status, fixes)."""
    fixed = []
    while True:
        changed = False
        if problem.cardinality is not None:
            result = sc.cardinality_propagate(domains, problem.cardinality)
            if not result.ok:
                return sc.FAILED, fixed
            changed |= bool(result.fixed)
            fixed += result.fixed
        for constraint in problem.constraints:
            result = sc.dc_propagate(constraint.terms, domains, constraint.theta)
            if not result.ok:
                return sc.FAILED, fixed
            changed |= bool(result.fixed)
            fixed += result.fixed
        if not changed:
            return sc.OK, fixed


def run_loop(domains, problem):
    """``propagation_loop`` on fresh scratches of ``domains`` and a fresh
    ``SearchStats``; returns the result and the stats."""
    scratches = [sc.constraint_scratch(c.terms, domains) for c in problem.constraints]
    stats = sc.SearchStats()
    return sc.propagation_loop(domains, problem, scratches, stats), stats


def loop_corpus():
    """The seed-83 ``random_problem`` corpus, objectives recast as threshold
    constraints, then compiled networks under a cardinality bound."""
    rng = random.Random(83)
    for _ in range(120):
        problem, maximize = random_problem(rng)
        if maximize:
            top = sum(t.reward for t in problem.objective)
            problem = sc.Problem(problem.vars, [sc.Constraint(problem.objective,
                                                              rng.uniform(0, top))],
                                 problem.cardinality)
        yield rng, problem
    for _ in range(40):
        problem = sc.build_problem(sc.parse_network(random_model_text(rng, rng.randint(3, 8))))
        problem.cardinality = rng.randint(0, len(problem.vars.decision_ids()))
        problem.constraints[0].theta = rng.uniform(0, 0.8 * len(problem.constraints[0].terms))
        yield rng, problem


def drop_corpus():
    """``loop_corpus``, every other problem with a second constraint over
    the same table, so that drops are summed over constraints."""
    for i, (rng, problem) in enumerate(loop_corpus()):
        if i % 2:
            term = sc.ConstraintTerm(sc.from_dnf(problem.vars, random_cubes(rng, problem.vars, 4)))
            problem = sc.Problem(problem.vars, problem.constraints
                                 + [sc.Constraint([term], rng.uniform(0, 0.5))],
                                 problem.cardinality)
        yield rng, problem


def fresh_drops(problem, domains):
    """Reward-weighted drops summed over every constraint's terms, from
    fresh sweeps of each term's diagram, for each free variable that labels
    a node: the oracle for ``propagation_loop``'s ``drops``."""
    total = {}
    for constraint in problem.constraints:
        for term in constraint.terms:
            dd = term.obdd
            labelled = {dd.var_of(node) for node in dd.internal_nodes()}
            drops = sc.compute_derivatives(dd, sc.compute_path_weights(dd, domains),
                                           sc.compute_values(dd, domains), domains)
            for var in labelled.intersection(drops):
                total[var] = total.get(var, 0.0) + term.reward * drops[var]
    return total


def seeded_optimisation(n):
    """``random_model_text`` at seed ``7:n``, maximized under the bound
    ``n // 3``."""
    text = random_model_text(random.Random(f"7:{n}"), n).replace(
        "constraint >= 0", f"cardinality <= {n // 3}\nobjective maximize")
    return sc.build_problem(sc.parse_network(text))


def seeded_satisfaction(n):
    """``random_model_text`` at seed ``7:n`` under the bound ``n // 3``,
    its threshold 0.8 times the optimistic bound at the root."""
    text = random_model_text(random.Random(f"7:{n}"), n).replace(
        "constraint >= 0", f"cardinality <= {n // 3}\nconstraint >= 0")
    problem = sc.build_problem(sc.parse_network(text))
    constraint = problem.constraints[0]
    scratch = sc.constraint_scratch(constraint.terms, sc.DomainState(problem.vars))
    constraint.theta = 0.8 * scratch.root_value()
    return problem


def counters(stats):
    """Every ``SearchStats`` field but ``wall_time``, in field order."""
    return tuple(value for key, value in asdict(stats).items() if key != "wall_time")


class TestSearchCounters:
    """The search's deterministic counters on seeded instances, pinned."""

    @pytest.mark.parametrize("n, expected", [
        (12, (13, 13, 46, 4985, 4)),
        (16, (14, 14, 49, 5926, 2)),
        (20, (70, 70, 183, 181077, 4)),
    ])
    def test_optimisation(self, n, expected):
        _, _, stats = sc.solve_opt(seeded_optimisation(n))
        assert counters(stats) == expected

    @pytest.mark.parametrize("n, status, expected", [
        (12, "unsat", (12, 12, 29, 4017, 0)),
        (16, "sat", (6, 1, 14, 1965, 0)),
        (20, "sat", (6, 0, 14, 10628, 0)),
    ])
    def test_satisfaction(self, n, status, expected):
        strategy, stats = sc.solve_sat(seeded_satisfaction(n))
        assert ("unsat" if strategy is None else "sat") == status
        assert counters(stats) == expected

    def test_node_visits_are_the_scratches_visits(self, monkeypatch):
        scratches = []
        constraint_scratch = solver_module.constraint_scratch

        def keeping_constraint_scratch(*args):
            scratches.append(constraint_scratch(*args))
            return scratches[-1]

        monkeypatch.setattr(solver_module, "constraint_scratch", keeping_constraint_scratch)
        _, _, stats = sc.solve_opt(seeded_optimisation(16))
        assert scratches and stats.nodes_expanded > 0
        assert stats.node_visits == sum(s.visits for s in scratches)


class TestFixpointDrops:
    """``propagation_loop`` sums the drops its last round read, so the
    search branches on them without another pass."""

    def test_drops_match_fresh_derivatives(self):
        checked = summed = 0
        for rng, problem in drop_corpus():
            for _ in range(3):  # random fix sequences, each from the root
                domains = sc.DomainState(problem.vars)
                scratches = [sc.constraint_scratch(c.terms, domains)
                             for c in problem.constraints]
                result = sc.propagation_loop(domains, problem, scratches, sc.SearchStats())
                while result.ok:
                    expected = fresh_drops(problem, domains)
                    assert set(result.drops) == set(expected)
                    for var, amount in expected.items():
                        assert result.drops[var] == pytest.approx(amount, abs=1e-12)
                    checked += 1
                    summed += len(problem.constraints) > 1 and bool(expected)
                    free = domains.free_vars()
                    if not free:
                        break
                    var, value = rng.choice(free), rng.random() < 0.5
                    domains.fix(var, value)
                    if not value:
                        for scratch in scratches:
                            scratch.apply_fix(var, False)
                    result = sc.propagation_loop(domains, problem, scratches,
                                                 sc.SearchStats())
        assert checked > 1000 and summed > 250

    def test_search_reads_drops_once_per_threshold_call(self, monkeypatch):
        calls = {"dc_propagate": 0, "drops": 0}
        dc_propagate, drops = solver_module.dc_propagate, sc.PropagationScratch.drops

        def counting_dc_propagate(*args, **kwargs):
            calls["dc_propagate"] += 1
            return dc_propagate(*args, **kwargs)

        def counting_drops(scratch):
            calls["drops"] += 1
            return drops(scratch)

        monkeypatch.setattr(solver_module, "dc_propagate", counting_dc_propagate)
        monkeypatch.setattr(sc.PropagationScratch, "drops", counting_drops)
        _, _, stats = sc.solve_opt(seeded_optimisation(16))
        assert stats.nodes_expanded > 0
        assert calls["drops"] == calls["dc_propagate"] > 0


class TestPropagationLoop:
    def test_one_round_matches_rerun_until_unchanged(self):
        reacted = 0  # runs where the bound answered true-fixes in a second round
        for rng, problem in loop_corpus():
            for _ in range(3):
                start = random_domains(rng, problem.vars, p_free=0.8)
                expected = start.copy()
                status, fixes = rerun_until_unchanged(expected, problem)
                domains = start.copy()
                result, _ = run_loop(domains, problem)
                assert result.status == status
                if result.ok:
                    assert result.fixed == fixes
                assert repr(domains) == repr(expected)
                values = [value for _, value in fixes]
                # threshold fixes are true-fixes, so a false-fix after one
                # came from the bound
                reacted += status == sc.OK and True in values and values[-1] is False
        assert reacted > 10

    def test_one_round_without_bound(self, choice):
        problem = sc.Problem(
            choice.vt, [sc.Constraint([sc.ConstraintTerm(choice.dd)], 0.4)]
        )
        result, stats = run_loop(sc.DomainState(choice.vt), problem)
        assert result.fixed == [(choice.y, True)]
        assert stats.propagator_calls == 1

    def test_fixes_before_search(self, choice):
        problem = sc.Problem(
            choice.vt, [sc.Constraint([sc.ConstraintTerm(choice.dd)], 0.4)]
        )
        domains = sc.DomainState(choice.vt)
        result, _ = run_loop(domains, problem)
        assert result.ok
        assert (choice.y, True) in result.fixed
        assert domains.is_free(choice.x)

    def test_interleaves_to_complete_assignment(self, choice):
        # threshold forces y true; the saturated cardinality bound then
        # forces x false, completing the assignment with no branching
        problem = sc.Problem(
            choice.vt,
            [sc.Constraint([sc.ConstraintTerm(choice.dd)], 0.4)],
            cardinality=1,
        )
        domains = sc.DomainState(choice.vt)
        result, _ = run_loop(domains, problem)
        assert result.ok
        assert dict(result.fixed) == {choice.y: True, choice.x: False}
        assert dict(fixed_items(domains)) == {choice.x: False, choice.y: True}

    def test_no_constraints_is_noop(self, choice):
        problem = sc.Problem(
            choice.vt, [], objective=[sc.ConstraintTerm(choice.dd)]
        )
        domains = sc.DomainState(choice.vt)
        result, _ = run_loop(domains, problem)
        assert result.ok and result.fixed == []

    def test_fixes_never_contradict_a_solution(self):
        rng = random.Random(83)
        checked = 0
        for _ in range(120):
            problem, maximize = random_problem(rng)
            if maximize:
                continue
            checked += 1
            solutions = [
                s
                for s in feasible_strategies(problem)
                if all(
                    sc.strategy_value(c.terms, problem.vars, s) >= c.theta
                    for c in problem.constraints
                )
            ]
            domains = sc.DomainState(problem.vars)
            result, _ = run_loop(domains, problem)
            if not result.ok:
                assert solutions == []  # root failure only on unsatisfiable
            else:
                for var, value in result.fixed:
                    assert all(s[var] == value for s in solutions)
        assert checked > 30


class TestStrategyValue:
    TRIANGLE = ("node a\nnode b\nnode c\nedge a b 0.5\nedge b c 0.5\nedge a c 0.5\n"
                "query a c\nconstraint >= 0\n")

    def test_incomplete_strategy_rejected(self):
        # with every edge free, the a -> c value would be the bound .5 + .5 * .25
        problem = sc.build_problem(sc.parse_network(self.TRIANGLE))
        terms, table = problem.constraints[0].terms, problem.vars
        with pytest.raises(ValueError, match="free: d_ab, d_bc, d_ac"):
            sc.strategy_value(terms, table, {})
        ac = table.index("d_ac")
        with pytest.raises(ValueError, match="free: d_ab, d_bc$"):
            sc.strategy_value(terms, table, {ac: True})
        only_ac = {var: var == ac for var in table.decision_ids()}
        assert sc.strategy_value(terms, table, only_ac) == pytest.approx(0.5, abs=1e-12)
        every = dict.fromkeys(table.decision_ids(), True)
        assert sc.strategy_value(terms, table, every) == pytest.approx(0.625, abs=1e-12)


class TestSolveSat:
    def test_choice_sat_deterministic_tie(self, choice):
        problem = sc.Problem(
            choice.vt, [sc.Constraint([sc.ConstraintTerm(choice.dd)], 0.4)]
        )
        strategy, stats = sc.solve_sat(problem)
        assert strategy == {choice.x: True, choice.y: True}
        assert stats.backtracks <= stats.nodes_expanded

    def test_choice_unsat(self, choice):
        problem = sc.Problem(
            choice.vt, [sc.Constraint([sc.ConstraintTerm(choice.dd)], 0.7)]
        )
        strategy, stats = sc.solve_sat(problem)
        assert strategy is None

    def test_network_unsat_above_optimum(self, net_model):
        problem = sc.build_problem(net_model)
        hard = sc.Problem(
            net_model.vars,
            [sc.Constraint(problem.objective, 1.4)],
        )
        strategy, _ = sc.solve_sat(hard)
        assert strategy is None

    def test_verdicts_match_brute_force(self):
        rng = random.Random(61)
        checked = 0
        for _ in range(120):
            problem, maximize = random_problem(rng)
            if maximize:
                continue
            checked += 1
            witness = brute_sat(problem)
            strategy, stats = sc.solve_sat(problem)
            assert (strategy is None) == (witness is None)
            if strategy is not None:
                for c in problem.constraints:
                    value = sc.strategy_value(c.terms, problem.vars, strategy)
                    assert value >= c.theta - 1e-9
                if problem.cardinality is not None:
                    assert sum(strategy.values()) <= problem.cardinality
            assert stats.backtracks <= stats.nodes_expanded
        assert checked > 30


class TestSolveOpt:
    def test_four_node_instance(self, net_model):
        problem = sc.build_problem(net_model)
        strategy, value, stats = sc.solve_opt(problem)
        assert strategy is not None
        best = brute_opt(problem)
        assert value == pytest.approx(best, abs=1e-9)
        assert sum(strategy.values()) <= 2
        assert value == pytest.approx(
            sc.strategy_value(problem.objective, problem.vars, strategy), abs=1e-12
        )

    def test_monotone_objective_without_cardinality(self):
        rng = random.Random(67)
        table, terms = _random_terms(rng)
        problem = sc.Problem(table, [], objective=terms)
        strategy, value, _ = sc.solve_opt(problem)
        all_true = {v: True for v in table.decision_ids()}
        assert value == pytest.approx(
            sc.strategy_value(terms, table, all_true), abs=1e-9
        )

    def test_constant_false_objective(self):
        table = sc.VariableTable()
        table.add_decision("d0")
        term = sc.ConstraintTerm(sc.from_dnf(table, []))
        strategy, value, _ = sc.solve_opt(sc.Problem(table, [], objective=[term]))
        assert strategy is not None
        assert value == 0.0

    def test_infeasible_constraints(self, choice):
        problem = sc.Problem(
            choice.vt,
            [sc.Constraint([sc.ConstraintTerm(choice.dd)], 0.9)],
            objective=[sc.ConstraintTerm(choice.dd)],
        )
        strategy, value, _ = sc.solve_opt(problem)
        assert strategy is None and value is None

    def test_values_match_brute_force(self):
        rng = random.Random(71)
        checked = 0
        for _ in range(120):
            problem, maximize = random_problem(rng)
            if not maximize:
                continue
            checked += 1
            strategy, value, _ = sc.solve_opt(problem)
            assert strategy is not None
            assert value == pytest.approx(brute_opt(problem), abs=1e-9)
            if problem.cardinality is not None:
                assert sum(strategy.values()) <= problem.cardinality
        assert checked > 30

    def test_matches_threshold_ramp(self, net_model):
        rng = random.Random(71)
        problems = [sc.build_problem(net_model)]
        for _ in range(120):
            problem, maximize = random_problem(rng)
            if maximize:
                problems.append(problem)
        assert len(problems) > 30
        for problem in problems:
            ref, ref_value, ref_incumbents, ref_nodes = ramp_opt(problem)
            strategy, value, stats = sc.solve_opt(problem)
            assert strategy == ref
            assert value == pytest.approx(ref_value, abs=1e-12)
            assert stats.incumbents == ref_incumbents
            assert stats.nodes_expanded <= ref_nodes

    def test_zero_delta_reaches_optimum(self, net_model):
        problem = sc.build_problem(net_model)
        strategy, value, _ = sc.solve_opt(problem, delta=0.0)
        assert value == pytest.approx(brute_opt(problem), abs=1e-12)
        assert value == sc.strategy_value(problem.objective, problem.vars, strategy)
        assert (strategy, value) == sc.solve_opt(problem)[:2]

    @pytest.mark.parametrize("delta", [-0.1, math.nan, math.inf])
    def test_invalid_delta_rejected(self, net_model, delta):
        with pytest.raises(ValueError, match="delta must be finite and nonnegative"):
            sc.solve_opt(sc.build_problem(net_model), delta=delta)


class TestCompiledTwoQueryOracle:
    """Path diagrams whose two queries share sub-diagrams, so each
    constraint's scratch is a merged store."""

    def _problems(self):
        rng = random.Random(97)
        found = 0
        while found < 30:
            model = sc.parse_network(random_model_text(rng, rng.randint(5, 8)))
            if len(model.queries) != 2:
                continue
            found += 1
            model.cardinality = rng.randint(1, 4)
            yield rng, sc.build_problem(model)

    def test_opt_values_match_brute_force(self):
        for _, problem in self._problems():
            terms = problem.constraints[0].terms
            opt = sc.Problem(problem.vars, [], problem.cardinality, objective=terms)
            strategy, value, _ = sc.solve_opt(opt)
            assert value == pytest.approx(brute_opt(opt), abs=1e-9)
            assert sum(strategy.values()) <= problem.cardinality

    def test_sat_verdicts_match_brute_force(self):
        verdicts = set()
        for rng, problem in self._problems():
            constraint = problem.constraints[0]
            _, scores = score_table(problem.vars, constraint.terms,
                                    sc.DomainState(problem.vars))
            constraint.theta = pick_theta(rng, {
                bits: v for bits, v in scores.items() if sum(bits) <= problem.cardinality
            })
            strategy, _ = sc.solve_sat(problem)
            assert (strategy is None) == (brute_sat(problem) is None)
            verdicts.add(strategy is None)
        assert verdicts == {True, False}


class TestDeepSearch:
    def test_sat_deeper_than_recursion_limit(self, hub):
        table, terms = hub
        problem = sc.Problem(table, [sc.Constraint(terms, 0.4)], cardinality=1099)
        strategy, stats = sc.solve_sat(problem)
        last = table.index("d_hx1099")  # the bound, once met, fixes it false
        assert strategy == {v: v != last for v in table.decision_ids()}
        assert (stats.nodes_expanded, stats.backtracks) == (1099, 0)

    def test_opt_deeper_than_recursion_limit(self, hub):
        table, terms = hub
        problem = sc.Problem(table, [], cardinality=1099, objective=terms)
        strategy, value, stats = sc.solve_opt(problem)
        last = table.index("d_hx1099")
        assert strategy == {v: v != last for v in table.decision_ids()}
        assert value == pytest.approx(549.5, abs=1e-9)
        assert (stats.nodes_expanded, stats.backtracks, stats.incumbents) == (1099, 1099, 1)

    def test_scratch_dc_visits_independent_of_unlabelled_variables(self):
        visits = []
        for leaves in (50, 1100):
            problem = star_problem("constraint >= 0.4", leaves)
            terms = problem.constraints[0].terms
            domains = sc.DomainState(problem.vars)
            scratch = sc.constraint_scratch(terms, domains)
            plain = sc.dc_propagate(terms, domains.copy(), 0.4)
            backed = sc.dc_propagate(terms, domains, 0.4, scratch=scratch)
            assert backed.status == plain.status == sc.OK
            assert backed.fixed == plain.fixed == [(problem.vars.index("d_hx0"), True)]
            assert backed.bound == plain.bound
            visits.append(backed.visits)
        assert visits[0] == visits[1]


def series_model(probs, goal, cardinality):
    """Edges v0-v1-...-vn in series, declared from the target end, so that
    the order rule's levels, which follow the path from the source, reverse
    the declaration levels; one query from end to end."""
    nodes = [f"v{i}" for i in range(len(probs) + 1)]
    lines = [f"node {v}" for v in nodes]
    lines += [f"edge {nodes[i]} {nodes[i + 1]} {probs[i]}" for i in reversed(range(len(probs)))]
    lines += [f"query v0 {nodes[-1]}", f"cardinality <= {cardinality}", goal]
    return sc.parse_network("\n".join(lines) + "\n")


def both_orders(model):
    """The model under its order-rule levels and under declaration levels,
    which must differ."""
    plain = sc.with_order(model, [info.name for info in model.vars])
    assert model.vars.order() != plain.vars.order()
    return model, plain


class TestLargestDropBranching:
    """The search branches on the largest summed drop; drops within
    ``THRESHOLD_EPS`` of it tie, and the lowest index wins.  So drops that
    are equal in exact arithmetic tie however the level order rounds them,
    and the counts pinned here hold under any level order."""

    @pytest.mark.parametrize("p0, p1, chosen", [(0.1, 0.9, "d1"), (0.5, 0.5, "d0")])
    def test_first_completion_is_the_optimum(self, p0, p1, chosen):
        # two edges ``d_i and t_i`` worth p0 and p1, at most one selected
        table = sc.VariableTable()
        for i, p in enumerate((p0, p1)):
            table.add_stochastic(f"t{i}", p)
            table.add_decision(f"d{i}")
        terms = [sc.ConstraintTerm(sc.from_dnf(table, [sc.Cube.positive([2 * i, 2 * i + 1])]))
                 for i in range(2)]
        problem = sc.Problem(table, [], cardinality=1, objective=terms)
        strategy, value, stats = sc.solve_opt(problem)
        assert strategy == {v: table.name(v) == chosen for v in table.decision_ids()}
        assert value == pytest.approx(max(p0, p1), abs=1e-12)
        # the raised threshold then forces the chosen edge true, which
        # prunes its false branch unexpanded
        assert (stats.nodes_expanded, stats.incumbents) == (1, 1)

    @pytest.mark.parametrize("probs", [(0.82, 0.6), (0.82, 0.6, 0.35)])
    def test_series_tie_goes_to_lowest_index(self, probs):
        # every edge of a series is a bridge, so their drops are all the
        # bound; the first edge declared has the lowest index
        for model in both_orders(series_model(probs, "constraint >= 0", 1)):
            strategy, stats = sc.solve_sat(sc.build_problem(model))
            assert strategy == {v: v == 1 for v in model.vars.decision_ids()}
            assert stats.nodes_expanded == 1

    def test_zero_delta_bridge_tie(self):
        # the bridge s-a leads to a choice of a-t or a-b-t; with delta 0 the
        # optimum ties the bound left once the bridge is false, and the
        # common slack, not rounding, decides the bridge's forcing test
        model = sc.parse_network(
            "node s\nnode a\nnode b\nnode t\nedge b t 0.81\nedge a b 0.38\n"
            "edge a t 0.77\nedge s a 0.5\nquery s t\ncardinality <= 2\nobjective maximize\n")
        for m in both_orders(model):
            strategy, value, stats = sc.solve_opt(sc.build_problem(m), delta=0.0)
            assert strategy == {1: False, 3: False, 5: True, 7: True}
            assert value == pytest.approx(0.5 * 0.77, abs=1e-12)
            assert (stats.nodes_expanded, stats.incumbents) == (2, 1)

    def test_zero_delta_series_keeps_a_strategy(self):
        # one edge of three in series connects nothing, so every strategy
        # is worth 0; a goal that could force bridges by rounding would
        # overrun the cardinality bound and report no strategy at all
        model = series_model((0.82, 0.6, 0.35), "objective maximize", 1)
        for m in both_orders(model):
            strategy, value, stats = sc.solve_opt(sc.build_problem(m), delta=0.0)
            assert strategy == {v: v == 1 for v in m.vars.decision_ids()}
            assert value == 0.0
            assert stats.incumbents == 1

    @pytest.mark.parametrize("n, nodes, optimum", [
        (16, 14, 0.6662715122959944),
        (20, 70, 1.9057673950937453),
    ])
    def test_seeded_optimisation(self, n, nodes, optimum):
        strategy, value, stats = sc.solve_opt(seeded_optimisation(n))
        assert value == pytest.approx(optimum, abs=1e-12)
        assert sum(strategy.values()) <= n // 3
        assert stats.nodes_expanded == nodes


class TestUnlabelledVariables:
    """Decision variables that label no diagram node are never branched on
    and come out false."""

    def test_random_problems_match_brute_force(self):
        rng = random.Random(89)
        seen = set()
        for _ in range(150):
            problem, maximize = random_problem(rng, _unlabelled_terms(rng))
            terms = problem.objective if maximize else problem.constraints[0].terms
            decisions = problem.vars.decision_ids()
            labelled = {t.obdd.var_of(n) for t in terms for n in t.obdd.internal_nodes()}
            unlabelled = [v for v in decisions if v not in labelled]
            assert unlabelled
            if maximize:
                strategy, value, stats = sc.solve_opt(problem)
                assert value == pytest.approx(brute_opt(problem), abs=1e-9)
                assert value == pytest.approx(
                    sc.strategy_value(terms, problem.vars, strategy), abs=1e-12)
            else:
                strategy, stats = sc.solve_sat(problem)
                assert (strategy is None) == (brute_sat(problem) is None)
                if strategy is not None:
                    value = sc.strategy_value(terms, problem.vars, strategy)
                    assert value >= problem.constraints[0].theta - 1e-9
            if strategy is not None:
                assert set(strategy) == set(decisions)
                assert not any(strategy[v] for v in unlabelled)
                if problem.cardinality is not None:
                    assert sum(strategy.values()) <= problem.cardinality
            bound = problem.cardinality
            if bound is None or bound >= len(decisions) - len(unlabelled):
                assert stats.nodes_expanded == 0
            seen.add((maximize, stats.nodes_expanded == 0))
        assert seen == {(False, False), (False, True), (True, False), (True, True)}

    def test_star_closes_at_the_root(self):
        problem = star_problem("constraint >= 0.4")
        strategy, stats = sc.solve_sat(problem)
        hx0 = problem.vars.index("d_hx0")  # forced true by the threshold
        assert strategy == {v: v == hx0 for v in problem.vars.decision_ids()}
        assert stats.nodes_expanded == 0


class TestProblemValidation:
    def test_needs_constraint_or_objective(self, choice):
        with pytest.raises(ValueError):
            sc.Problem(choice.vt, [])

    def test_negative_cardinality_rejected(self, choice):
        with pytest.raises(ValueError):
            sc.Problem(
                choice.vt,
                [sc.Constraint([sc.ConstraintTerm(choice.dd)], 0.1)],
                cardinality=-1,
            )

    def test_negative_reward_rejected(self, choice):
        with pytest.raises(ValueError):
            sc.ConstraintTerm(choice.dd, reward=-0.5)

    @pytest.mark.parametrize("reward", [math.nan, math.inf])
    def test_non_finite_reward_rejected(self, choice, reward):
        with pytest.raises(ValueError, match="reward must be finite"):
            sc.ConstraintTerm(choice.dd, reward=reward)

    def test_nan_threshold_rejected(self, choice):
        terms = [sc.ConstraintTerm(choice.dd)]
        with pytest.raises(ValueError, match="NaN"):
            sc.Constraint(terms, math.nan)
        assert sc.Constraint(terms, -math.inf).theta == -math.inf  # the goal's start
