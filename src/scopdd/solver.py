"""Depth-first search with propagation for stochastic constraint problems.

Every search node runs the cardinality propagator and the domain-consistent
threshold propagators to a joint fixpoint.  The search branches, true
first, on the labelled variable (one a diagram node reads) whose drop in
the optimistic bounds, summed over the constraints, is largest, ties
within ``THRESHOLD_EPS`` to the lowest index.  A node closes once its
optimistic completion (free labelled variables true, all others false)
fits the cardinality bound, since that completion is the best strategy
below it; variables no diagram reads come out false.  Optimization is
branch-and-bound in the same search: the objective is recast as a
constraint whose threshold is raised in place past each incumbent.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .evaluate import TRUE_ONLY, DomainState, evaluate
from .obdd import VariableTable
from .propagate import (ConstraintTerm, FAILED, OK, PropagationResult, PropagationScratch,
                        THRESHOLD_EPS, constraint_scratch, dc_propagate)


@dataclass
class Constraint:
    """Threshold constraint: sum of reward-weighted root values >= theta - THRESHOLD_EPS."""

    terms: list[ConstraintTerm]
    theta: float

    def __post_init__(self):
        if math.isnan(self.theta):  # the goal's -inf is legal
            raise ValueError("theta must not be NaN")


@dataclass
class Problem:
    """A full instance: constraints, optional cardinality bound (on the
    number of true decision variables), optional maximization objective.
    ``compiled`` holds the per-query compile counters of an instance built
    from a problem file (``model_io.CompileRecord``s); the search ignores it."""

    vars: VariableTable
    constraints: list[Constraint] = field(default_factory=list)
    cardinality: int | None = None
    objective: list[ConstraintTerm] | None = None
    compiled: list = field(default_factory=list)

    def __post_init__(self):
        if not self.constraints and self.objective is None:
            raise ValueError("problem needs a constraint or an objective")
        if self.cardinality is not None and self.cardinality < 0:
            raise ValueError("cardinality bound must be nonnegative")


@dataclass
class SearchStats:
    nodes_expanded: int = 0
    backtracks: int = 0
    propagator_calls: int = 0
    node_visits: int = 0
    incumbents: int = 0
    wall_time: float = 0.0


def cardinality_propagate(domains: DomainState, bound: int) -> PropagationResult:
    """At most ``bound`` decision variables true.

    Fails when the fixed-true count already exceeds the bound; when it
    meets the bound exactly, every free variable loses the value true.
    """
    if bound < 0:
        raise ValueError("cardinality bound must be nonnegative")
    trues = domains.true_count()
    if trues > bound:
        return PropagationResult(FAILED)
    fixed = []
    if trues == bound:
        for var in domains.free_vars():
            domains.fix(var, False)
            fixed.append((var, False))
    return PropagationResult(OK, fixed=fixed)


def propagation_loop(domains: DomainState, problem: Problem,
                     scratches: list[PropagationScratch], stats: SearchStats) -> PropagationResult:
    """Run cardinality then every threshold constraint, in rounds, to a
    joint fixpoint or failure, on ``scratches`` (one ``constraint_scratch``
    per constraint, which counts the nodes it reads); the false-fixes of one
    cardinality call repair every scratch as one batch.

    Threshold propagators only fix variables to true, and a true-fix moves
    no bound and no drop, so after one round every threshold constraint is
    at its fixpoint.  Only the cardinality bound can react to the round's
    true-fixes, and only once they reach it; then another round runs.  So
    the last round's drops, summed over constraints, hold at the fixpoint.
    """
    all_fixed: list[tuple[int, bool]] = []
    while True:
        if problem.cardinality is not None:
            result = cardinality_propagate(domains, problem.cardinality)
            stats.propagator_calls += 1
            if not result.ok:
                return result
            for scratch in scratches:  # a batch of no false-fix sweeps nothing
                scratch.apply_fixes(result.fixed)
            all_fixed.extend(result.fixed)
        round_start = len(all_fixed)
        drops: dict[int, float] = {}
        for constraint, scratch in zip(problem.constraints, scratches, strict=True):
            result = dc_propagate(constraint.terms, domains, constraint.theta, scratch=scratch)
            stats.propagator_calls += 1
            if not result.ok:
                return PropagationResult(FAILED)
            for var, amount in result.drops.items():
                drops[var] = drops.get(var, 0.0) + amount
            all_fixed.extend(result.fixed)  # true-fixes
        if not (len(all_fixed) > round_start and problem.cardinality is not None
                and domains.true_count() >= problem.cardinality):
            free = {var: amount for var, amount in drops.items() if domains.is_free(var)}
            return PropagationResult(OK, fixed=all_fixed, drops=free)


def _search(problem: Problem, objective: list[ConstraintTerm] | None,
            delta: float) -> tuple[dict[int, bool] | None, float | None, SearchStats]:
    """The one depth-first search, on an explicit stack.

    After a node propagates, it closes if there is no bound or its true
    count plus free labelled variables (its drops' keys) is within it: the
    optimistic completion is then a solution worth the optimistic bound.
    Else it branches on the largest drop, ties within ``THRESHOLD_EPS`` to
    the lowest index.  Without ``objective`` the first closed node is the
    answer.  With one, the objective is a constraint whose threshold starts
    at -inf.  Each completion becomes the incumbent and raises the threshold
    to its value + max(delta, THRESHOLD_EPS) + THRESHOLD_EPS: under the
    common slack every later completion beats it by max(delta, THRESHOLD_EPS).
    The search backtracks and goes on, propagating each frame it returns to
    again under the raised threshold.  Nothing is rebuilt and no prefix is
    explored twice, since scratches do not depend on the threshold.
    """
    stats = SearchStats()
    start = time.perf_counter()
    goal = None
    if objective is not None:
        goal = Constraint(objective, -math.inf)
        problem = Problem(problem.vars, problem.constraints + [goal], problem.cardinality)
    domains = DomainState(problem.vars)
    scratches = [constraint_scratch(c.terms, domains) for c in problem.constraints]
    bound, best, best_value = problem.cardinality, None, None

    # frame: [branching variable, domain mark, each scratch's (pi, val) pair,
    # branches taken, incumbents when last propagated]; marks restore the fixpoint
    stack: list[list] = []
    result = propagation_loop(domains, problem, scratches, stats)
    while True:
        if result.ok:
            drops = result.drops  # keys: the free labelled variables
            if bound is not None and domains.true_count() + len(drops) > bound:
                top = max(drops.values()) - THRESHOLD_EPS  # ties within the slack
                var = min(v for v, drop in drops.items() if drop >= top)
                stack.append([var, domains.mark(), [s.mark() for s in scratches], 0,
                              stats.incumbents])
            else:  # the optimistic completion fits the bound: the best in this subtree
                dom = domains._dom
                strategy = {v: v in drops or dom[v] == TRUE_ONLY
                            for v in problem.vars.decision_ids()}
                if goal is None:
                    best = strategy
                    break
                best, best_value = strategy, scratches[-1].root_value()  # the goal's bound
                stats.incumbents += 1
                goal.theta = best_value + max(delta, THRESHOLD_EPS) + THRESHOLD_EPS
        # undo the top frame's live branch; drop frames with no branch left
        while stack:
            var, domain_mark, scratch_marks, taken, seen = frame = stack[-1]
            if taken:
                domains.undo_to(domain_mark)
                for scratch, mark in zip(scratches, scratch_marks):
                    scratch.undo_to(mark)
                stats.backtracks += 1
            if taken < 2:
                break
            stack.pop()
        if not stack:
            break
        if seen < stats.incumbents:  # the threshold rose: propagate this state again
            frame[4] = stats.incumbents
            result = propagation_loop(domains, problem, scratches, stats)
            if not result.ok or domains.domain(var) == TRUE_ONLY:  # false branch pruned
                stack.pop()
                result = PropagationResult(FAILED)
                continue
        frame[3] = taken + 1
        stats.nodes_expanded += 1
        if domains.is_free(var):  # else propagation just forced it false
            domains.fix(var, not taken)  # true first
            if taken:
                for scratch in scratches:
                    scratch.apply_fix(var, False)
            result = propagation_loop(domains, problem, scratches, stats)
    stats.node_visits = sum(s.visits for s in scratches)
    stats.wall_time += time.perf_counter() - start
    return best, best_value, stats


def solve_sat(problem: Problem) -> tuple[dict[int, bool] | None, SearchStats]:
    """First satisfying strategy in the deterministic search order, or None;
    variables no diagram reads are false in it.

    Complete: a None answer means no strategy satisfies all constraints.
    """
    strategy, _, stats = _search(problem, None, 0.0)
    return strategy, stats


def strategy_value(terms: list[ConstraintTerm], problem_vars: VariableTable,
                   strategy: dict[int, bool]) -> float:
    """Exact objective value of a complete strategy; raises ``ValueError``
    when the strategy leaves a decision variable free, whose value would be
    the optimistic bound instead."""
    domains = DomainState(problem_vars, fixed=strategy)
    free = domains.free_vars()
    if free:
        names = ", ".join(problem_vars.name(var) for var in free)
        raise ValueError(f"strategy leaves decision variables free: {names}")
    return sum(term.reward * evaluate(term.obdd, domains) for term in terms)


def solve_opt(
    problem: Problem, *, delta: float = 1e-9
) -> tuple[dict[int, bool] | None, float | None, SearchStats]:
    """Maximize the objective by branch-and-bound.

    Every later solution must beat the incumbent by at least ``delta``, so
    the last one found is optimal to within delta.  ``delta`` must be finite
    and nonnegative; a value below the common slack ``THRESHOLD_EPS`` acts
    as ``THRESHOLD_EPS``.
    """
    if problem.objective is None:
        raise ValueError("problem has no objective")
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and nonnegative, got {delta}")
    return _search(problem, problem.objective, delta)
