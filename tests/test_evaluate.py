"""Weighted model counting and domain-state behavior."""

import random

import pytest

import scopdd as sc

from conftest import (
    enumerate_event_probability,
    fixed_items,
    make_table,
    random_cubes,
    random_domains,
)


class TestEvaluate:
    def test_strategy_table(self, choice):
        # hand check: root = .9 * v(x) + .1 * v(y1), v(s) = .6, v(t) = .3,
        # so the (x=1, y=0) strategy is .9 * .3 = .27
        expected = {
            (False, False): 0.0,
            (True, False): 0.27,
            (False, True): 0.6,
            (True, True): 0.6,
        }
        for (xv, yv), want in expected.items():
            domains = sc.DomainState(choice.vt, fixed={choice.x: xv, choice.y: yv})
            assert sc.evaluate(choice.dd, domains) == pytest.approx(want, abs=1e-12)

    def test_terminal_roots(self):
        table = sc.VariableTable()
        table.add_decision("a")
        dd = sc.Obdd(table)
        dd.root = 1
        assert sc.evaluate(dd, sc.DomainState(table)) == 1.0
        dd2 = sc.Obdd(table)
        assert sc.evaluate(dd2, sc.DomainState(table)) == 0.0

    def test_all_selected_matches_enumeration(self, path_dd):
        vt = path_dd.vars
        decisions = {v: True for v in vt.decision_ids()}
        domains = sc.DomainState(vt, fixed=decisions)
        got = sc.evaluate(path_dd, domains)
        oracle = enumerate_event_probability(path_dd, decisions)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(0.4522, abs=1e-12)

    def test_free_as_true_exact(self):
        rng = random.Random(7)
        for _ in range(60):
            table = make_table(rng, 5, 5)
            dd = sc.from_dnf(table, random_cubes(rng, table))
            domains = random_domains(rng, table)
            free = domains.free_vars()
            if not free:
                continue
            var = rng.choice(free)
            fixed_true = domains.copy()
            fixed_true.fix(var, True)
            assert sc.evaluate(dd, domains) == sc.evaluate(dd, fixed_true)

    def test_monotone_in_decisions(self):
        rng = random.Random(17)
        for _ in range(80):
            table = make_table(rng, 6, 6)
            dd = sc.from_dnf(table, random_cubes(rng, table))
            domains = random_domains(rng, table, p_free=0.3)
            false_vars = [
                v for v, val in fixed_items(domains) if not val
            ]
            if not false_vars:
                continue
            lower = sc.evaluate(dd, domains)
            flipped = sc.DomainState(table)
            for v, val in fixed_items(domains):
                flipped.fix(v, True if v == false_vars[0] else val)
            assert sc.evaluate(dd, flipped) >= lower

    def test_range(self):
        rng = random.Random(27)
        for _ in range(60):
            table = make_table(rng, 5, 5)
            dd = sc.from_dnf(table, random_cubes(rng, table))
            value = sc.evaluate(dd, random_domains(rng, table))
            assert 0.0 <= value <= 1.0

    def test_rejects_foreign_domains(self, choice):
        other = sc.VariableTable()
        other.add_decision("z")
        with pytest.raises(ValueError):
            sc.evaluate(choice.dd, sc.DomainState(other))


class TestModelProbability:
    def test_worked_model(self, ordered_model):
        # one a->c model: only the direct edge's stochastic variable is on,
        # all edges selected; its mass is .4 * .2 * .9 * .5 * .3
        vt = ordered_model.vars
        dd = sc.from_dnf(
            ordered_model.vars,
            sc.st_path_dnf(ordered_model, ordered_model.queries[0]),
        )
        assignment = {v: True for v in vt.decision_ids()}
        for name in ("t_ab", "t_ad", "t_bd", "t_cd"):
            assignment[vt.index(name)] = False
        assignment[vt.index("t_ac")] = True
        expected = 0.4 * (1 - 0.8) * (1 - 0.1) * (1 - 0.5) * (1 - 0.7)
        assert sc.model_probability(dd, assignment) == pytest.approx(
            expected, abs=1e-12
        )

    def test_falsifying_assignment_is_zero(self, choice):
        vt = choice.vt
        assignment = {i.index: False for i in vt}
        assert sc.model_probability(choice.dd, assignment) == 0.0

    def test_enumeration_equals_evaluate(self):
        rng = random.Random(37)
        for _ in range(25):
            table = make_table(rng, rng.randint(1, 4), rng.randint(1, 6))
            dd = sc.from_dnf(table, random_cubes(rng, table))
            decisions = {v: rng.random() < 0.5 for v in table.decision_ids()}
            domains = sc.DomainState(table, fixed=decisions)
            assert enumerate_event_probability(dd, decisions) == pytest.approx(
                sc.evaluate(dd, domains), abs=1e-12
            )

    def test_unassigned_variable_raises(self, choice):
        with pytest.raises(ValueError, match="unassigned"):
            sc.model_probability(choice.dd, {choice.x: True})


class TestDomainState:
    def test_fix_and_undo(self, choice):
        domains = sc.DomainState(choice.vt)
        mark = domains.mark()
        domains.fix(choice.x, True)
        domains.fix(choice.y, False)
        assert domains.true_count() == 1
        assert domains.domain(choice.x) == sc.TRUE_ONLY
        domains.undo_to(mark)
        assert domains.is_free(choice.x) and domains.is_free(choice.y)
        assert domains.true_count() == 0

    def test_fixing_fixed_raises(self, choice):
        domains = sc.DomainState(choice.vt)
        domains.fix(choice.x, True)
        with pytest.raises(ValueError):
            domains.fix(choice.x, False)

    def test_covers_only_decisions(self, choice):
        domains = sc.DomainState(choice.vt)
        stochastic = choice.vt.index("r")
        with pytest.raises(ValueError):
            domains.fix(stochastic, True)
        with pytest.raises(ValueError):
            domains.domain(stochastic)

    def test_fixed_items_lists_only_fixed(self, choice):
        domains = sc.DomainState(choice.vt, fixed={choice.x: True})
        assert fixed_items(domains) == [(choice.x, True)]
        domains.fix(choice.y, False)
        assert dict(fixed_items(domains)) == {choice.x: True, choice.y: False}

    def test_bulk_fill_matches_fix_calls(self):
        rng = random.Random(53)
        for _ in range(100):
            table = make_table(rng, rng.randint(1, 8), rng.randint(0, 5))
            decisions = table.decision_ids()
            fixed = {var: rng.random() < 0.5
                     for var in rng.sample(decisions, rng.randint(0, len(decisions)))}
            bulk = sc.DomainState(table, fixed=fixed)
            by_fix = sc.DomainState(table)
            for var, value in fixed.items():
                by_fix.fix(var, value)
            assert bulk._dom == by_fix._dom
            assert bulk.true_count() == by_fix.true_count() == sum(fixed.values())
            assert bulk.mark() == by_fix.mark() == len(fixed)
            bulk.undo_to(0)
            assert bulk.free_vars() == decisions
            assert bulk.true_count() == 0

    def test_bulk_fill_rejects_non_decisions(self, choice):
        for var in (choice.vt.index("r"), -1, len(choice.vt)):
            with pytest.raises(ValueError, match=f"variable index {var} is not a decision"):
                sc.DomainState(choice.vt, fixed={choice.x: True, var: False})
