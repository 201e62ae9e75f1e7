"""Domain-consistent propagation for monotone threshold constraints.

The constraint has the shape ``sum_i r_i * P(event_i | strategy) >= theta``
over diagrams whose probability never falls when a decision goes from
0 to 1.  Three propagators live here:

* ``naive_propagate`` re-evaluates every diagram once per free variable
  (O(m*n) node visits) and serves as the oracle;
* ``dc_propagate`` reads, off one top-down path-weight pass and one
  bottom-up value pass per constraint, the drop in the optimistic bound
  caused by fixing any free variable to false, and prunes in O(m+n) visits;
* ``PropagationScratch`` keeps both passes for a search: fixing a variable
  to true touches nothing, and each batch of false-fixes is repaired by one
  level-ordered sweep of path weights plus one sweep of the values at or
  above the deepest fixed level, bit-identical to a full recompute.

A constraint has one scratch: ``constraint_scratch`` puts its terms'
diagrams in one store and seeds each term's root with its reward.  Node
values do not depend on the root and path weights are linear in the seeds,
so ``root_value()`` is the bound and ``drops()`` the reward-weighted drops.
Without a scratch, ``dc_propagate`` builds one.  The scratch is the one
sweep over several roots: it walks its rows once, and its build and every
repair run the package's two loops, ``evaluate._path_pass`` and
``evaluate._value_pass``, on them.  The public sweeps run the same two
loops on the diagram's own ``rows``.

The derivative identity behind ``dc_propagate``: for a free decision
variable d, the optimistic bound drops by exactly
``sum over d's nodes of pathweight(node) * (value(hi) - value(lo))``
when d is fixed to false, because path weights only involve variables above
d and child values only involve variables below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .evaluate import (BOTH, DomainState, _check_compatible, _path_pass, _value_pass,
                       sweep_values)
from .obdd import Obdd

# the one slack of every bound test: a bound F meets theta when
# F >= theta - THRESHOLD_EPS, so rounding never decides a verdict
THRESHOLD_EPS = 1e-9

OK = "ok"
FAILED = "failed"


@dataclass
class ConstraintTerm:
    """One reward-weighted diagram inside a threshold constraint."""

    obdd: Obdd
    reward: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.reward < math.inf:
            raise ValueError(f"reward must be finite and nonnegative, got {self.reward}")


@dataclass
class PropagationResult:
    """Outcome of a propagator call.

    ``fixed`` lists the variables newly forced (each was free before the
    call); on ``FAILED`` nothing was fixed and the caller must backtrack.
    The threshold propagators set ``bound``, the optimistic constraint
    value, and ``visits``, the nodes the call read; ``dc_propagate`` also
    sets ``drops``, each free variable that labels a node mapped to the
    drop of the bound were it fixed false, as read before the call's own
    fixes (also on ``FAILED``).  A ``propagation_loop`` result carries only
    ``status``, ``fixed`` and, on ``OK``, ``drops``: summed over the
    constraints at the fixpoint and keyed by the variables still free.
    """

    status: str
    fixed: list[tuple[int, bool]] = field(default_factory=list)
    bound: float | None = None
    visits: int = 0
    drops: dict[int, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == OK


def _check_terms(terms, domains: DomainState) -> None:
    if not terms:
        raise ValueError("constraint needs at least one term")
    for term in terms:
        _check_compatible(term.obdd, domains)


def sweep_path_weights(dd: Obdd, domains: DomainState) -> list[float]:
    """Top-down pass: weight of all valid root-to-node paths, per node.

    Valid paths take the hi arc out of true and free decision nodes, the lo
    arc out of false ones, and both arcs (probability-weighted) out of
    stochastic nodes.  Returns an array indexed by node id.
    """
    return _path_pass(dd.rows(), domains._dom, len(dd), [(dd.root, 1.0)])


def compute_path_weights(dd: Obdd, domains: DomainState) -> dict[int, float]:
    """Path weights of every reachable node, keyed by node id."""
    _check_compatible(dd, domains)
    pi = sweep_path_weights(dd, domains)
    return {node: pi[node] for node in dd.topo_order()}


def compute_values(dd: Obdd, domains: DomainState) -> dict[int, float]:
    """Node values of every reachable node (bottom-up recurrence)."""
    _check_compatible(dd, domains)
    val = sweep_values(dd, domains)
    return {node: val[node] for node in dd.topo_order()}


def compute_derivatives(
    dd: Obdd,
    path_weights: dict[int, float],
    values: dict[int, float],
    domains: DomainState,
) -> dict[int, float]:
    """Drop of the root value per free decision variable.

    ``path_weights`` and ``values`` must come from the same domain state.
    Variables without nodes in the diagram get a zero entry (empty sum).
    """
    _check_compatible(dd, domains)
    deltas = {var: 0.0 for var in domains.free_vars()}
    for node in dd.internal_nodes():
        var = dd.var_of(node)
        if var in deltas:
            deltas[var] += path_weights[node] * (
                values[dd.hi(node)] - values[dd.lo(node)]
            )
    return deltas


def constraint_scratch(terms: list[ConstraintTerm], domains: DomainState) -> "PropagationScratch":
    """One scratch for all terms of a threshold constraint, each term's
    root seeded with its reward.  Terms that share one diagram use it as is;
    otherwise each term's reachable nodes are copied into one fresh store,
    where equal sub-diagrams become one node."""
    _check_terms(terms, domains)
    dd = terms[0].obdd
    if all(term.obdd is dd for term in terms):
        roots = [dd.root] * len(terms)
    else:
        dd = Obdd(dd.vars)
        roots = [dd._copy(term.obdd, term.obdd.root) for term in terms]
    return PropagationScratch(dd, domains,
                              [(root, term.reward) for root, term in zip(roots, terms)])


def dc_propagate(
    terms: list[ConstraintTerm],
    domains: DomainState,
    theta: float,
    *,
    scratch: "PropagationScratch | None" = None,
) -> PropagationResult:
    """Enforce domain consistency on the threshold constraint.

    Computes the optimistic bound F (all free variables counted true) and
    the per-variable drops; fails when F < theta - THRESHOLD_EPS, otherwise
    fixes to true every free variable whose removal would push the bound
    below that.  One pass is a fixpoint: fixing a variable to true changes
    neither F nor any other variable's drop.

    ``scratch`` (the terms' ``constraint_scratch``, built over this very
    ``domains``) is the search's warm state, and the call counts the nodes
    it reads drops from.  Without it one is built, and the call counts its
    two sweeps plus one visit per free variable.  Drops are read only for
    the free variables that label a node: any other variable's drop is
    zero, so it is never forced.  The result carries the drops, also when
    it is ``FAILED``.
    """
    _check_terms(terms, domains)
    if math.isnan(theta):  # a NaN threshold fails no bound test: it would prune nothing
        raise ValueError("theta must not be NaN")
    if scratch is not None and scratch.domains is not domains:
        raise ValueError("scratch was built over a different domain state")
    fresh = scratch is None
    if fresh:
        scratch = constraint_scratch(terms, domains)
    before = scratch.visits
    bound = scratch.root_value()
    drop = scratch.drops()
    visits = before + len(domains.free_vars()) if fresh else scratch.visits - before

    if bound < theta - THRESHOLD_EPS:
        return PropagationResult(FAILED, bound=bound, visits=visits, drops=drop)
    fixed = []
    for var in sorted(drop):
        if bound - drop[var] < theta - THRESHOLD_EPS:
            domains.fix(var, True)
            fixed.append((var, True))
    return PropagationResult(OK, fixed=fixed, bound=bound, visits=visits, drops=drop)


def naive_propagate(
    terms: list[ConstraintTerm],
    domains: DomainState,
    theta: float,
) -> PropagationResult:
    """Domain consistency by re-evaluation: for each free variable, score
    the assignment with that variable false and every other free variable
    true; prune false when the score is below theta - THRESHOLD_EPS.  Same
    contract as ``dc_propagate``, O(m*n) visits; kept as the oracle."""
    _check_terms(terms, domains)
    if math.isnan(theta):
        raise ValueError("theta must not be NaN")
    visits = 0
    bound = 0.0
    for term in terms:
        bound += term.reward * sweep_values(term.obdd, domains)[term.obdd.root]
        visits += len(term.obdd.internal_nodes())
    if bound < theta - THRESHOLD_EPS:
        return PropagationResult(FAILED, bound=bound, visits=visits)
    fixed = []
    for var in domains.free_vars():
        mark = domains.mark()
        domains.fix(var, False)
        score = 0.0
        for term in terms:
            score += term.reward * sweep_values(term.obdd, domains)[term.obdd.root]
            visits += len(term.obdd.internal_nodes())
        domains.undo_to(mark)
        if score < theta - THRESHOLD_EPS:
            domains.fix(var, True)
            fixed.append((var, True))
    return PropagationResult(OK, fixed=fixed, bound=bound, visits=visits)


class PropagationScratch:
    """Reusable propagation state over one store: path weights and values.

    ``seeds`` are (root, weight) pairs, by default the diagram's root with
    weight 1; ``root_value()`` and ``drops()`` are sums weighted by them.
    The scratch walks the level-ordered rows below its roots once, and its
    build and every repair run the package's two sweep loops over them, so
    ``pi`` and ``val`` are always bit-identical to a full recompute.  A
    repair never edits either list: it replaces both, so the pair held is a
    complete snapshot and is its own mark.  ``visits`` counts the nodes
    read: two per row at build, each repair's rows, each drop read.
    """

    def __init__(self, dd: Obdd, domains: DomainState,
                 seeds: list[tuple[int, float]] | None = None):
        _check_compatible(dd, domains)
        self.dd = dd
        self.domains = domains
        self.seeds = [(dd.root, 1.0)] if seeds is None else list(seeds)
        roots = {root for root, _ in self.seeds}
        # a scratch on the diagram's own root shares the rows the diagram caches
        self.rows = dd.rows() if roots == {dd.root} else dd._rows_from(roots)
        # decision variable -> (node, lo, hi) of each node it labels
        self.var_nodes: dict[int, list[tuple[int, int, int]]] = {}
        # decision variable -> one past the last row at its level (0: no nodes)
        self._end = [0] * len(dd.vars)
        for end, (node, var, lo, hi, w) in enumerate(self.rows, start=1):
            if w is None:
                self.var_nodes.setdefault(var, []).append((node, lo, hi))
                self._end[var] = end
        self.pi = _path_pass(self.rows, domains._dom, len(dd), self.seeds)
        self.val = [0.0] * len(dd)
        self.val[1] = 1.0
        _value_pass(self.rows, domains._dom, self.val, len(self.rows))
        self.visits = 2 * len(self.rows)

    def root_value(self) -> float:
        """Weighted sum of the root values: the optimistic bound."""
        return sum(weight * self.val[root] for root, weight in self.seeds)

    def drops(self) -> dict[int, float]:
        """Drop of ``root_value()`` were a free variable fixed to false, for
        each free variable that labels a node: the sum over its nodes of
        path weight times (value of hi - value of lo)."""
        dom, pi, val = self.domains._dom, self.pi, self.val
        drop = {}
        read = 0
        for var, nodes in self.var_nodes.items():
            if dom[var] == BOTH:
                total = 0.0
                for node, lo, hi in nodes:
                    total += pi[node] * (val[hi] - val[lo])
                drop[var] = total
                read += len(nodes)
        self.visits += read
        return drop

    # -- repair after fixes -----------------------------------------------

    def apply_fixes(self, fixes: list[tuple[int, bool]]) -> int:
        """Bring both lists up to date after a batch of fixes; returns the
        rows swept.

        The domain state must already reflect the fixes.  Fixing to true is
        free: free decision nodes already route their path weight and value
        through the hi arc.  False-fixes cost one path-weight sweep over all
        rows and one value sweep over the rows at or above the deepest fixed
        level, however many variables the batch fixes.
        """
        end = max((self._end[var] for var, value in fixes if not value), default=0)
        if not end:
            return 0
        self.pi = _path_pass(self.rows, self.domains._dom, len(self.dd), self.seeds)
        self.val = list(self.val)
        _value_pass(self.rows, self.domains._dom, self.val, end)
        touched = len(self.rows) + end
        self.visits += touched
        return touched

    def apply_fix(self, var: int, value: bool) -> int:
        """``apply_fixes`` for one fix."""
        return self.apply_fixes([(var, value)])

    def mark(self) -> tuple[list[float], list[float]]:
        """The held (pi, val) pair, which no repair edits."""
        return self.pi, self.val

    def undo_to(self, mark: tuple[list[float], list[float]]) -> None:
        """Hold the pair ``mark()`` returned again."""
        self.pi, self.val = mark


def incremental_fix(scratch: PropagationScratch, var: int, value: bool) -> PropagationScratch:
    """Fix a free decision variable in the scratch's domain state (whose
    ``fix`` rejects any other variable) and repair the scratch in place."""
    scratch.domains.fix(var, value)
    scratch.apply_fix(var, value)
    return scratch
