"""Circuit decomposition and its interval propagator."""

import itertools
import math
import random

import pytest

import scopdd as sc

from conftest import (
    pick_theta,
    random_domains,
    random_instance,
    score_table,
)


def choice_keys(choice):
    """Node keys of the x node and the two y nodes in the hand fixture."""
    dd = choice.dd
    x_node = next(
        n for n in dd.internal_nodes() if dd.var_of(n) == choice.x
    )
    y_nodes = [n for n in dd.internal_nodes() if dd.var_of(n) == choice.y]
    # y1 is the node whose lo child is the false terminal
    y1 = next(n for n in y_nodes if dd.lo(n) == 0)
    y2 = next(n for n in y_nodes if n != y1)
    return (0, x_node), (0, y1), (0, y2)


class TestDecompose:
    def test_choice_system_exact(self, choice):
        system = sc.decompose([sc.ConstraintTerm(choice.dd)], 0.4)
        kx, ky1, ky2 = choice_keys(choice)
        assert system.theta == 0.4
        # root inequality: .1 * v(y1) + .9 * v(x) >= .4
        assert system.root_expr.const == pytest.approx(0.0, abs=1e-12)
        coefs = dict(system.root_expr.coefs)
        assert coefs[ky1] == pytest.approx(0.1, abs=1e-12)
        assert coefs[kx] == pytest.approx(0.9, abs=1e-12)
        eqs = {eq.key: eq for eq in system.decision_eqs}
        # v(x) = (1-x) v(y1) + x v(y2)
        assert dict(eqs[kx].lo_expr.coefs) == {ky1: 1.0}
        assert dict(eqs[kx].hi_expr.coefs) == {ky2: 1.0}
        # v(y1) = .6 y ; v(y2) = .3 (1-y) + .6 y
        assert eqs[ky1].lo_expr == sc.Affine(0.0)
        assert eqs[ky1].hi_expr.const == pytest.approx(0.6, abs=1e-12)
        assert eqs[ky2].lo_expr.const == pytest.approx(0.3, abs=1e-12)
        assert eqs[ky2].hi_expr.const == pytest.approx(0.6, abs=1e-12)
        assert system.var_names[kx] == f"v(x#{kx[1]})"

    def test_nan_theta_rejected(self, choice):
        with pytest.raises(ValueError, match="NaN"):
            sc.decompose([sc.ConstraintTerm(choice.dd)], math.nan)

    def test_terminal_only_diagram(self):
        table = sc.VariableTable()
        table.add_decision("a")
        dd = sc.from_dnf(table, [])
        system = sc.decompose([sc.ConstraintTerm(dd)], 0.5)
        stochastic_rows = sum(w is not None for *_, w in dd.rows())
        assert len(system.decision_eqs) + stochastic_rows == 0
        assert system.decision_eqs == []
        assert system.root_expr == sc.Affine(0.0)

    def test_entry_count_equals_internal_nodes(self):
        rng = random.Random(3)
        for _ in range(30):
            table, terms = random_instance(rng, max_dec=6, max_sto=6, n_terms=2)
            system = sc.decompose(terms, 0.3)
            stochastic_rows = sum(w is not None for t in terms for *_, w in t.obdd.rows())
            assert len(system.decision_eqs) + stochastic_rows == sum(
                len(t.obdd.internal_nodes()) for t in terms
            )


class TestBoundsPropagate:
    def test_choice_weakness(self, choice):
        system = sc.decompose([sc.ConstraintTerm(choice.dd)], 0.4)
        domains = sc.DomainState(choice.vt)
        out = sc.bounds_propagate(system, domains)
        kx, ky1, ky2 = choice_keys(choice)
        assert out.result.ok
        assert out.result.fixed == []  # y is NOT fixed here
        assert domains.is_free(choice.x) and domains.is_free(choice.y)
        lo, hi = out.intervals[ky2]
        assert lo == pytest.approx(0.3, abs=1e-12)
        assert hi == pytest.approx(0.6, abs=1e-12)
        for key in (kx, ky1):
            lo, hi = out.intervals[key]
            assert -1e-12 <= lo <= hi <= 0.6 + 1e-12
        assert -1e-12 <= out.root_interval[0] <= out.root_interval[1] <= 0.6 + 1e-12
        assert out.converged

    def test_unreachable_threshold_fails(self, choice):
        system = sc.decompose([sc.ConstraintTerm(choice.dd)], 0.7)
        domains = sc.DomainState(choice.vt)
        out = sc.bounds_propagate(system, domains)
        assert out.result.status == sc.FAILED
        assert domains.is_free(choice.x) and domains.is_free(choice.y)

    def test_theta_zero_noop(self, choice):
        system = sc.decompose([sc.ConstraintTerm(choice.dd)], 0.0)
        out = sc.bounds_propagate(system, sc.DomainState(choice.vt))
        assert out.result.ok and out.result.fixed == []

    def test_rerun_is_fixpoint(self, choice):
        system = sc.decompose([sc.ConstraintTerm(choice.dd)], 0.4)
        domains = sc.DomainState(choice.vt)
        first = sc.bounds_propagate(system, domains)
        second = sc.bounds_propagate(system, domains)
        assert second.result.fixed == []
        for key, bounds in first.intervals.items():
            assert second.intervals[key] == pytest.approx(bounds, abs=1e-12)

    def test_can_fix_when_one_branch_is_impossible(self, choice):
        # with x already true, a threshold of .55 leaves only the hi branch
        # of the deeper y node feasible, so interval reasoning fixes y
        system = sc.decompose([sc.ConstraintTerm(choice.dd)], 0.55)
        domains = sc.DomainState(choice.vt, fixed={choice.x: True})
        out = sc.bounds_propagate(system, domains)
        assert out.result.ok
        assert out.result.fixed == [(choice.y, True)]

    def test_failure_rolls_back_fixes(self, choice):
        # same setup as above but with an unattainable threshold
        system = sc.decompose([sc.ConstraintTerm(choice.dd)], 0.65)
        domains = sc.DomainState(choice.vt, fixed={choice.x: True})
        out = sc.bounds_propagate(system, domains)
        assert out.result.status == sc.FAILED
        assert domains.is_free(choice.y)

    def test_sound_against_brute_force(self):
        rng = random.Random(53)
        for _ in range(200):
            table, terms = random_instance(rng, max_dec=6, max_sto=5)
            base = random_domains(rng, table)
            free, scores = score_table(table, terms, base)
            theta = pick_theta(rng, scores)
            domains = base.copy()
            out = sc.bounds_propagate(sc.decompose(terms, theta), domains)
            satisfiable = any(v >= theta for v in scores.values())
            if not satisfiable:
                # interval reasoning may or may not detect it; if it reports
                # failure it must not have kept a fix applied
                if out.result.status == sc.FAILED:
                    assert [v for v in free if not domains.is_free(v)] == []
                continue
            assert out.result.ok
            for var, value in out.result.fixed:
                i = free.index(var)
                opposite = max(
                    v for bits, v in scores.items() if bits[i] != value
                )
                assert opposite < theta  # the pruned value truly cannot work

    def test_weakness_witness(self, choice):
        # the diagram propagator fixes strictly more than the decomposition
        terms = [sc.ConstraintTerm(choice.dd)]
        dc_domains = sc.DomainState(choice.vt)
        dc = sc.dc_propagate(terms, dc_domains, 0.4)
        base_domains = sc.DomainState(choice.vt)
        base = sc.bounds_propagate(sc.decompose(terms, 0.4), base_domains)
        assert dc.ok and base.result.ok
        assert len(dc.fixed) > len(base.result.fixed)
