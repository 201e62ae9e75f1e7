"""Path weights, node values, derivatives, the three propagation modes."""

import math
import random

import pytest

import scopdd as sc
from scopdd.cli import random_model_text
from scopdd.propagate import PropagationScratch, sweep_path_weights
from scopdd.evaluate import sweep_values

from conftest import (
    fixed_items,
    make_table,
    pick_theta,
    random_cubes,
    random_domains,
    random_instance,
    score_table,
)


def fresh_scratch(dd):
    domains = sc.DomainState(dd.vars)
    return domains, PropagationScratch(dd, domains)


class TestPathWeights:
    def test_root_weight_is_one(self):
        rng = random.Random(2)
        for _ in range(40):
            table = make_table(rng, 4, 4)
            dd = sc.from_dnf(table, random_cubes(rng, table))
            pw = sc.compute_path_weights(dd, random_domains(rng, table))
            assert pw[dd.root] == 1.0
            assert all(w >= 0.0 for w in pw.values())

    def test_selected_edges_weight(self, path_dd):
        vt = path_dd.vars
        domains = sc.DomainState(
            vt, fixed={vt.index("d_cd"): True, vt.index("d_ac"): True}
        )
        pw = sc.compute_path_weights(path_dd, domains)
        nodes = [
            n for n in path_dd.internal_nodes()
            if vt.name(path_dd.var_of(n)) == "t_ad"
        ]
        assert len(nodes) == 1
        assert pw[nodes[0]] == pytest.approx(0.06, abs=1e-12)

    def test_terminal_root_has_empty_internal_map(self):
        table = sc.VariableTable()
        table.add_decision("a")
        dd = sc.from_dnf(table, [])
        pw = sc.compute_path_weights(dd, sc.DomainState(table))
        assert pw == {0: 1.0}


class TestValues:
    def test_terminal_values(self, choice):
        values = sc.compute_values(choice.dd, sc.DomainState(choice.vt))
        assert values[0] == 0.0 and values[1] == 1.0

    def test_all_free_root_value(self, choice):
        values = sc.compute_values(choice.dd, sc.DomainState(choice.vt))
        assert values[choice.dd.root] == pytest.approx(0.6, abs=1e-12)

    def test_matches_recursive_oracle(self):
        rng = random.Random(9)
        for _ in range(50):
            table = make_table(rng, 5, 5)
            dd = sc.from_dnf(table, random_cubes(rng, table))
            domains = random_domains(rng, table)
            values = sc.compute_values(dd, domains)

            memo = {0: 0.0, 1: 1.0}

            def rec(node):
                if node not in memo:
                    var = dd.var_of(node)
                    info = dd.vars.info(var)
                    if info.kind == sc.DECISION:
                        take_hi = domains.domain(var) != sc.FALSE_ONLY
                        memo[node] = rec(dd.hi(node)) if take_hi else rec(dd.lo(node))
                    else:
                        memo[node] = info.prob * rec(dd.hi(node)) + (
                            1 - info.prob
                        ) * rec(dd.lo(node))
                return memo[node]

            for node in dd.topo_order():
                assert values[node] == pytest.approx(rec(node), abs=1e-12)
            assert values[dd.root] == sc.evaluate(dd, domains)


class TestDerivatives:
    def test_absent_variable_is_zero(self):
        table = sc.VariableTable()
        used = table.add_decision("used")
        table.add_decision("unused")
        table.add_stochastic("t", 0.5)
        dd = sc.from_dnf(table, [sc.Cube.positive([used, 2])])
        domains = sc.DomainState(table)
        deltas = sc.compute_derivatives(
            dd,
            sc.compute_path_weights(dd, domains),
            sc.compute_values(dd, domains),
            domains,
        )
        assert deltas[table.index("unused")] == 0.0

    def test_choice_deltas(self, choice):
        # finite differences by hand: .6 - .27 and .6 - .6
        domains = sc.DomainState(choice.vt)
        deltas = sc.compute_derivatives(
            choice.dd,
            sc.compute_path_weights(choice.dd, domains),
            sc.compute_values(choice.dd, domains),
            domains,
        )
        assert deltas[choice.y] == pytest.approx(0.33, abs=1e-12)
        assert deltas[choice.x] == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_difference(self):
        rng = random.Random(19)
        for _ in range(150):
            table, terms = random_instance(rng, max_dec=8, max_sto=8)
            dd = terms[0].obdd
            domains = random_domains(rng, table)
            deltas = sc.compute_derivatives(
                dd,
                sc.compute_path_weights(dd, domains),
                sc.compute_values(dd, domains),
                domains,
            )
            base = sc.evaluate(dd, domains)
            for var in domains.free_vars():
                with_false = domains.copy()
                with_false.fix(var, False)
                diff = base - sc.evaluate(dd, with_false)
                assert deltas[var] == pytest.approx(diff, abs=1e-12)
                assert deltas[var] >= -1e-15


class TestDcPropagate:
    def test_forces_y_leaves_x_free(self, choice):
        domains = sc.DomainState(choice.vt)
        result = sc.dc_propagate([sc.ConstraintTerm(choice.dd)], domains, 0.4)
        assert result.ok
        assert result.fixed == [(choice.y, True)]
        assert domains.is_free(choice.x)
        assert result.bound == pytest.approx(0.6, abs=1e-12)

    def test_theta_zero_is_vacuous(self, choice):
        domains = sc.DomainState(choice.vt)
        result = sc.dc_propagate([sc.ConstraintTerm(choice.dd)], domains, 0.0)
        assert result.ok and result.fixed == []

    def test_unreachable_threshold_fails_without_fixing(self, choice):
        domains = sc.DomainState(choice.vt)
        result = sc.dc_propagate([sc.ConstraintTerm(choice.dd)], domains, 0.7)
        assert result.status == sc.FAILED
        assert result.fixed == []
        assert domains.is_free(choice.x) and domains.is_free(choice.y)

    def test_idempotent(self, choice):
        domains = sc.DomainState(choice.vt)
        terms = [sc.ConstraintTerm(choice.dd)]
        first = sc.dc_propagate(terms, domains, 0.4)
        second = sc.dc_propagate(terms, domains, 0.4)
        assert first.fixed and second.fixed == []
        assert second.bound == first.bound

    def test_reward_scales_linearly(self, choice):
        domains = sc.DomainState(choice.vt)
        plain = sc.dc_propagate([sc.ConstraintTerm(choice.dd)], domains.copy(), 0.0)
        scaled = sc.dc_propagate(
            [sc.ConstraintTerm(choice.dd, reward=2.5)], domains.copy(), 0.0
        )
        assert scaled.bound == pytest.approx(2.5 * plain.bound, abs=1e-12)

    def test_multi_term_sum(self, choice, path_dd):
        # same table is required across terms
        terms = [sc.ConstraintTerm(choice.dd), sc.ConstraintTerm(choice.dd, 2.0)]
        domains = sc.DomainState(choice.vt)
        result = sc.dc_propagate(terms, domains, 0.0)
        assert result.bound == pytest.approx(3 * 0.6, abs=1e-12)

    def test_matches_naive_on_random_instances(self):
        rng = random.Random(23)
        for _ in range(300):
            table, terms = random_instance(
                rng, max_dec=7, max_sto=6, n_terms=rng.choice([1, 1, 2])
            )
            base = random_domains(rng, table)
            _, scores = score_table(table, terms, base)
            theta = pick_theta(rng, scores)
            d1, d2 = base.copy(), base.copy()
            r1 = sc.dc_propagate(terms, d1, theta)
            r2 = sc.naive_propagate(terms, d2, theta)
            assert r1.status == r2.status
            assert sorted(r1.fixed) == sorted(r2.fixed)

    def test_scratch_over_another_domain_state_rejected(self, net_model):
        problem = sc.build_problem(net_model)
        terms = problem.objective
        d1, d2 = sc.DomainState(problem.vars), sc.DomainState(problem.vars)
        d2.fix(problem.vars.index("d_ab"), False)
        scratch = sc.constraint_scratch(terms, d1)
        # the scratch holds d1's bound, not d2's
        assert scratch.root_value() != pytest.approx(sc.dc_propagate(terms, d2.copy(), 0.0).bound)
        with pytest.raises(ValueError, match="different domain state"):
            sc.dc_propagate(terms, d2, 0.0, scratch=scratch)
        assert fixed_items(d2) == [(problem.vars.index("d_ab"), False)]

    @pytest.mark.parametrize("propagate", [sc.dc_propagate, sc.naive_propagate])
    def test_nan_theta_rejected(self, choice, propagate):
        with pytest.raises(ValueError, match="NaN"):
            propagate([sc.ConstraintTerm(choice.dd)], sc.DomainState(choice.vt), math.nan)


class TestNaivePropagate:
    def test_forces_y(self, choice):
        domains = sc.DomainState(choice.vt)
        result = sc.naive_propagate([sc.ConstraintTerm(choice.dd)], domains, 0.4)
        assert result.ok and result.fixed == [(choice.y, True)]

    def test_all_fixed_ok_empty(self, choice):
        domains = sc.DomainState(
            choice.vt, fixed={choice.x: True, choice.y: True}
        )
        result = sc.naive_propagate([sc.ConstraintTerm(choice.dd)], domains, 0.4)
        assert result.ok and result.fixed == []


class TestScratchIncremental:
    def test_fix_true_touches_nothing(self, path_dd):
        domains, scratch = fresh_scratch(path_dd)
        pi, val = list(scratch.pi), list(scratch.val)
        before = scratch.visits
        var = path_dd.vars.index("d_ac")
        sc.incremental_fix(scratch, var, True)
        assert scratch.visits == before
        assert scratch.pi == pi and scratch.val == val

    def _assert_matches_rebuild(self, dd, domains, scratch):
        pi = sweep_path_weights(dd, domains)
        val = sweep_values(dd, domains)
        for node in dd.topo_order():
            assert scratch.pi[node] == pi[node]
            assert scratch.val[node] == val[node]

    def test_fix_false_deepest_decision(self, path_dd):
        domains, scratch = fresh_scratch(path_dd)
        var = path_dd.vars.index("d_ab")  # deepest level
        level = path_dd.vars.level(var)
        pi_before = list(scratch.pi)
        val_before = list(scratch.val)
        sc.incremental_fix(scratch, var, False)
        self._assert_matches_rebuild(path_dd, domains, scratch)
        # path weights at or above the fixed level are untouched,
        # values strictly below it are untouched
        for node in path_dd.topo_order():
            if path_dd.level(node) <= level:
                assert scratch.pi[node] == pi_before[node]
            else:
                assert scratch.val[node] == val_before[node]

    def test_fix_false_rootmost_decision(self, path_dd):
        domains, scratch = fresh_scratch(path_dd)
        var = path_dd.vars.index("d_cd")  # closest decision to the root
        sc.incremental_fix(scratch, var, False)
        self._assert_matches_rebuild(path_dd, domains, scratch)

    def test_random_sequences_match_full_recompute(self):
        rng = random.Random(31)
        for _ in range(120):
            table, terms = random_instance(rng, max_dec=8, max_sto=8)
            dd = terms[0].obdd
            domains = sc.DomainState(table)
            scratch = PropagationScratch(dd, domains)
            order = table.decision_ids()
            rng.shuffle(order)
            for var in order[: rng.randint(0, len(order))]:
                sc.incremental_fix(scratch, var, rng.random() < 0.5)
                self._assert_matches_rebuild(dd, domains, scratch)

    def test_trail_undo_restores(self, path_dd):
        domains, scratch = fresh_scratch(path_dd)
        pi, val = list(scratch.pi), list(scratch.val)
        dmark, smark = domains.mark(), scratch.mark()
        assert smark[0] is scratch.pi and smark[1] is scratch.val  # the held pair
        sc.incremental_fix(scratch, path_dd.vars.index("d_cd"), False)
        sc.incremental_fix(scratch, path_dd.vars.index("d_ad"), False)
        assert scratch.pi is not smark[0] and scratch.val is not smark[1]
        domains.undo_to(dmark)
        scratch.undo_to(smark)
        assert scratch.pi is smark[0] and scratch.val is smark[1]
        assert scratch.pi == pi and scratch.val == val  # no repair edited the pair

    def test_fixed_variable_rejected(self, path_dd):
        domains, scratch = fresh_scratch(path_dd)
        var = path_dd.vars.index("d_cd")
        sc.incremental_fix(scratch, var, False)
        with pytest.raises(ValueError, match="^variable 'd_cd' is already fixed$"):
            sc.incremental_fix(scratch, var, True)

    @pytest.mark.parametrize("which", ["stochastic", "past-end", "negative"])
    def test_non_decision_index_rejected(self, path_dd, which):
        var = {"stochastic": path_dd.vars.index("t_cd"), "past-end": len(path_dd.vars),
               "negative": -1}[which]
        domains, scratch = fresh_scratch(path_dd)
        with pytest.raises(ValueError, match=f"^variable index {var} is not a decision variable$"):
            sc.incremental_fix(scratch, var, False)
        assert domains.free_vars() == path_dd.vars.decision_ids()

    def test_scratch_backed_dc_matches_fresh(self):
        rng = random.Random(41)
        for _ in range(80):
            table, terms = random_instance(rng, max_dec=6, max_sto=6)
            domains = sc.DomainState(table)
            scratch = sc.constraint_scratch(terms, domains)
            for var in table.decision_ids():
                if rng.random() < 0.4:
                    value = rng.random() < 0.5
                    domains.fix(var, value)
                    scratch.apply_fix(var, value)
            _, scores = score_table(table, terms, domains)
            theta = pick_theta(rng, scores)
            fresh = sc.dc_propagate(terms, domains.copy(), theta)
            incremental = sc.dc_propagate(terms, domains, theta, scratch=scratch)
            assert fresh.status == incremental.status
            assert sorted(fresh.fixed) == sorted(incremental.fixed)
            assert incremental.bound == pytest.approx(fresh.bound, abs=1e-12)

    def _differential_corpus(self):
        rng = random.Random(47)
        for _ in range(60):
            table, terms = random_instance(rng, max_dec=8, max_sto=8, n_terms=2)
            yield table, [t.obdd for t in terms]
        for _ in range(12):  # compiled networks, as in the opt-search family
            problem = sc.build_problem(
                sc.parse_network(random_model_text(rng, rng.randint(8, 10)))
            )
            yield problem.vars, [t.obdd for t in problem.constraints[0].terms]

    def test_fix_batch_undo_bit_exact(self):
        rng = random.Random(53)
        for table, dds in self._differential_corpus():
            domains = sc.DomainState(table)
            terms = [sc.ConstraintTerm(dd, reward) for dd, reward in zip(dds, (1.0, 2.5))]
            # one scratch per diagram, then the constraint's merged scratch
            scratches = [PropagationScratch(dd, domains) for dd in dds]
            scratches.append(sc.constraint_scratch(terms, domains))
            saved = []  # (domain mark, scratch marks, lists at the mark)
            for _ in range(12):
                free = domains.free_vars()
                step = rng.random()
                if saved and (step < 0.3 or not free):
                    dmark, marks, lists = saved.pop()
                    domains.undo_to(dmark)
                    for scratch, mark, (pi, val) in zip(scratches, marks, lists):
                        scratch.undo_to(mark)
                        assert scratch.pi == pi and scratch.val == val
                elif free:
                    saved.append((domains.mark(), [s.mark() for s in scratches],
                                  [(list(s.pi), list(s.val)) for s in scratches]))
                    size = 1 if step < 0.6 else rng.randint(1, len(free))
                    fixes = [(var, rng.random() < 0.3) for var in rng.sample(free, size)]
                    for var, value in fixes:
                        domains.fix(var, value)
                    for scratch in scratches:
                        if size == 1:
                            scratch.apply_fix(*fixes[0])
                        else:
                            scratch.apply_fixes(fixes)
                for dd, scratch in zip(dds, scratches):
                    self._assert_matches_rebuild(dd, domains, scratch)
                fresh = sc.constraint_scratch(terms, domains)
                assert scratches[-1].pi == fresh.pi and scratches[-1].val == fresh.val

    def test_batch_equals_fixes_one_at_a_time(self):
        rng = random.Random(59)
        for table, dds in self._differential_corpus():
            dd = dds[0]
            batched_domains = random_domains(rng, table, p_free=0.8)
            single_domains = batched_domains.copy()
            batched = PropagationScratch(dd, batched_domains)
            single = PropagationScratch(dd, single_domains)
            free = batched_domains.free_vars()
            fixes = [(var, rng.random() < 0.3)
                     for var in rng.sample(free, rng.randint(0, len(free)))]
            for var, value in fixes:
                batched_domains.fix(var, value)
                single_domains.fix(var, value)
                single.apply_fix(var, value)
            batched.apply_fixes(fixes)
            assert batched.pi == single.pi and batched.val == single.val

    def test_unlabelled_false_fix_pushes_nothing(self):
        table = sc.VariableTable()
        used = table.add_decision("used")
        unused = table.add_decision("unused")
        t = table.add_stochastic("t", 0.5)
        dd = sc.from_dnf(table, [sc.Cube.positive([used, t])])
        domains, scratch = fresh_scratch(dd)
        (pi, val), visits = scratch.mark(), scratch.visits
        domains.fix(unused, False)
        assert scratch.apply_fix(unused, False) == 0
        domains.fix(used, True)
        assert scratch.apply_fixes([(used, True)]) == 0
        assert scratch.pi is pi and scratch.val is val and scratch.visits == visits


class TestConstraintScratch:
    def _corpus(self):
        rng = random.Random(61)
        for _ in range(60):
            table, terms = random_instance(rng, max_dec=6, max_sto=6, n_terms=2)
            yield table, terms, random_domains(rng, table)
        for _ in range(20):  # two terms over one diagram
            table, (term,) = random_instance(rng, max_dec=6, max_sto=6)
            yield table, [term, sc.ConstraintTerm(term.obdd, 2.5)], random_domains(rng, table)
        found = 0
        while found < 20:  # compiled two-query networks
            problem = sc.build_problem(
                sc.parse_network(random_model_text(rng, rng.randint(5, 9)))
            )
            terms = problem.constraints[0].terms
            if len(terms) == 2:
                found += 1
                yield problem.vars, terms, random_domains(rng, problem.vars)

    def test_matches_per_term_reference(self):
        for _, terms, domains in self._corpus():
            scratch = sc.constraint_scratch(terms, domains)
            assert scratch.root_value() == sum(
                t.reward * sc.evaluate(t.obdd, domains) for t in terms
            )
            expected = dict.fromkeys(domains.free_vars(), 0.0)
            for t in terms:
                deltas = sc.compute_derivatives(
                    t.obdd,
                    sc.compute_path_weights(t.obdd, domains),
                    sc.compute_values(t.obdd, domains),
                    domains,
                )
                for var, delta in deltas.items():
                    expected[var] += t.reward * delta
            drops = scratch.drops()
            assert set(drops) <= set(expected)
            for var, delta in expected.items():
                assert drops.get(var, 0.0) == pytest.approx(delta, abs=1e-12)
            assert len(scratch.dd) <= sum(len(t.obdd) for t in terms)
            if terms[0].obdd is terms[1].obdd:
                assert scratch.dd is terms[0].obdd
            for (root, reward), t in zip(scratch.seeds, terms, strict=True):
                assert reward == t.reward
                assert sc.dump_obdd(scratch.dd._compact(root)) == sc.dump_obdd(t.obdd)


class TestVisitAudit:
    def test_dc_within_two_m_plus_n(self):
        rng = random.Random(43)
        for _ in range(80):
            table, terms = random_instance(rng, max_dec=8, max_sto=8)
            domains = random_domains(rng, table)
            m = sum(len(t.obdd.internal_nodes()) for t in terms) + 2
            n = len(table.decision_ids())
            result = sc.dc_propagate(terms, domains, 0.2)
            assert result.visits <= 2 * m + n

    def test_path_event_counts(self, path_dd):
        terms = [sc.ConstraintTerm(path_dd)]
        n_free = len(path_dd.vars.decision_ids())
        m_internal = len(path_dd.internal_nodes())
        dc = sc.dc_propagate(terms, sc.DomainState(path_dd.vars), 0.2)
        assert dc.visits == 2 * m_internal + n_free
        naive = sc.naive_propagate(terms, sc.DomainState(path_dd.vars), 0.2)
        assert naive.visits == (n_free + 1) * m_internal
        assert naive.visits > dc.visits  # n >= 3 here

    def test_scratch_counts_its_drop_reads(self, path_dd):
        terms = [sc.ConstraintTerm(path_dd)]
        domains = sc.DomainState(path_dd.vars)
        scratch = sc.constraint_scratch(terms, domains)
        while True:
            before = scratch.visits
            result = sc.dc_propagate(terms, domains, 0.0, scratch=scratch)
            assert result.visits == scratch.visits - before
            free = [var for var in scratch.var_nodes if domains.is_free(var)]
            if not free:
                assert result.visits == 0
                break
            assert result.visits > 0
            domains.fix(free[0], False)
            scratch.apply_fix(free[0], False)

    def test_incremental_visits_bounded_by_region(self, path_dd):
        domains, scratch = fresh_scratch(path_dd)
        var = path_dd.vars.index("d_cd")
        level = var
        below = sum(1 for n in path_dd.internal_nodes() if path_dd.level(n) > level)
        at_or_above = sum(
            1 for n in path_dd.internal_nodes() if path_dd.level(n) <= level
        )
        domains.fix(var, False)
        touched = scratch.apply_fix(var, False)
        assert touched <= below + 2 + at_or_above
