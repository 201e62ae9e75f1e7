"""Domain-consistent propagation for monotone threshold constraints.

The constraint has the shape ``sum_i r_i * P(event_i | strategy) >= theta``
over diagrams that are monotone in the decision variables.  Three
propagators live here:

* ``naive_propagate`` re-evaluates every diagram once per free variable
  (O(m*n) node visits) and serves as the oracle;
* ``dc_propagate`` reads, off one top-down path-weight pass and one
  bottom-up value pass per diagram, the drop in the optimistic bound caused
  by fixing any free variable to false, and prunes in O(m+n) visits;
* ``PropagationScratch`` keeps both passes for a search: fixing a variable
  to true touches nothing, and each batch of false-fixes is repaired by one
  level-ordered sweep of path weights plus one sweep of the values at or
  above the deepest fixed level, bit-identical to a full recompute.

Without scratches, ``dc_propagate`` builds one scratch per term and reads
the drops off it exactly as a search does.  Every pass in the package is
``sweep_path_weights`` or the value loop ``evaluate._value_pass``, over the
diagram's ``rows``.

The derivative identity behind ``dc_propagate``: for a free decision
variable d, the optimistic bound drops by exactly
``sum over d's nodes of pathweight(node) * (value(hi) - value(lo))``
when d is fixed to false, because path weights only involve variables above
d and child values only involve variables below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .evaluate import (BOTH, FALSE_ONLY, DomainState, _check_compatible, _value_pass,
                       sweep_values)
from .obdd import Obdd

# slack for threshold comparisons: F >= theta - EPS counts as satisfiable,
# so boundary instances are not order dependent under float arithmetic
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
    ``bound`` is the optimistic constraint value where the propagator
    computes one, and ``visits`` counts instrumented node visits.
    """

    status: str
    fixed: list[tuple[int, bool]] = field(default_factory=list)
    bound: float | None = None
    visits: int = 0

    @property
    def ok(self) -> bool:
        return self.status == OK


def _check_terms(terms, domains: DomainState) -> None:
    if not terms:
        raise ValueError("constraint needs at least one term")
    for term in terms:
        _check_compatible(term.obdd, domains)


def sweep_path_weights(dd: Obdd, domains: DomainState, root: int | None = None) -> list[float]:
    """Top-down pass: weight of all valid root-to-node paths, per node.

    Valid paths take the hi arc out of true and free decision nodes, the lo
    arc out of false ones, and both arcs (probability-weighted) out of
    stochastic nodes.  Returns an array indexed by node id.
    """
    if root is None:
        root = dd.root
    pi = [0.0] * len(dd)
    pi[root] = 1.0
    dom = domains._dom
    for node, var, lo, hi, w in dd.rows(root):
        p = pi[node]
        if p == 0.0:
            continue
        if w is None:
            if dom[var] != FALSE_ONLY:
                pi[hi] += p
            else:
                pi[lo] += p
        else:
            pi[hi] += w * p
            pi[lo] += (1.0 - w) * p
    return pi


def compute_path_weights(dd: Obdd, domains: DomainState, root: int | None = None) -> dict[int, float]:
    """Path weights of every reachable node, keyed by node id."""
    _check_compatible(dd, domains)
    if root is None:
        root = dd.root
    pi = sweep_path_weights(dd, domains, root)
    return {node: pi[node] for node in dd.topo_order(root)}


def compute_values(dd: Obdd, domains: DomainState, root: int | None = None) -> dict[int, float]:
    """Node values of every reachable node (bottom-up recurrence)."""
    _check_compatible(dd, domains)
    if root is None:
        root = dd.root
    val = sweep_values(dd, domains, root)
    return {node: val[node] for node in dd.topo_order(root)}


def compute_derivatives(
    dd: Obdd,
    path_weights: dict[int, float],
    values: dict[int, float],
    domains: DomainState,
    root: int | None = None,
) -> dict[int, float]:
    """Drop of the root value per free decision variable.

    ``path_weights`` and ``values`` must come from the same domain state.
    Variables without nodes in the diagram get a zero entry (empty sum).
    """
    _check_compatible(dd, domains)
    deltas = {var: 0.0 for var in domains.free_vars()}
    for node in dd.internal_nodes(root):
        var = dd.var_of(node)
        if var in deltas:
            deltas[var] += path_weights[node] * (
                values[dd.hi(node)] - values[dd.lo(node)]
            )
    return deltas


def dc_propagate(
    terms: list[ConstraintTerm],
    domains: DomainState,
    theta: float,
    *,
    eps: float = THRESHOLD_EPS,
    scratches: list["PropagationScratch"] | None = None,
) -> PropagationResult:
    """Enforce domain consistency on the threshold constraint.

    Computes the optimistic bound F (all free variables counted true) and
    the per-variable drops; fails when F < theta - eps, otherwise fixes to
    true every free variable whose removal would push the bound below the
    threshold.  One pass is a fixpoint: fixing a variable to true changes
    neither F nor any other variable's drop.

    ``scratches`` (one per term, consistent with ``domains``) are the
    search's warm state; without them one scratch per term is built, and
    the call counts its two sweeps per term plus one visit per free
    variable.  Drops are read only for the free variables that label a
    node: any other variable's drop is zero, so it is never forced.
    """
    _check_terms(terms, domains)
    fresh = scratches is None
    if fresh:
        scratches = [PropagationScratch(term.obdd, domains) for term in terms]
    elif len(scratches) != len(terms):
        raise ValueError("need one scratch per term")
    dom = domains._dom
    visits = 0
    bound = 0.0
    drop = {}
    for term, scratch in zip(terms, scratches):
        bound += term.reward * scratch.root_value()
        pi, val, dd = scratch.pi, scratch.val, scratch.dd
        for var, nodes in scratch.var_nodes.items():
            if dom[var] != BOTH:
                continue
            total = drop.get(var, 0.0)
            for node in nodes:
                total += term.reward * pi[node] * (val[dd.hi(node)] - val[dd.lo(node)])
            drop[var] = total
            visits += len(nodes)
    if fresh:  # two sweeps per term plus one visit per free variable
        visits = sum(s.visits for s in scratches) + len(domains.free_vars())

    if bound < theta - eps:
        return PropagationResult(FAILED, bound=bound, visits=visits)
    fixed = []
    for var in sorted(drop):
        if bound - drop[var] < theta - eps:
            domains.fix(var, True)
            fixed.append((var, True))
    return PropagationResult(OK, fixed=fixed, bound=bound, visits=visits)


def naive_propagate(
    terms: list[ConstraintTerm],
    domains: DomainState,
    theta: float,
    *,
    eps: float = THRESHOLD_EPS,
) -> PropagationResult:
    """Domain consistency by re-evaluation: for each free variable, score
    the assignment with that variable false and every other free variable
    true; prune false when the score misses the threshold.  Same contract
    as ``dc_propagate``, O(m*n) visits; kept as the oracle."""
    _check_terms(terms, domains)
    visits = 0
    bound = 0.0
    for term in terms:
        bound += term.reward * sweep_values(term.obdd, domains)[term.obdd.root]
        visits += len(term.obdd.internal_nodes())
    if bound < theta - eps:
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
        if score < theta - eps:
            domains.fix(var, True)
            fixed.append((var, True))
    return PropagationResult(OK, fixed=fixed, bound=bound, visits=visits)


class PropagationScratch:
    """Reusable per-diagram propagation state: path weights and values.

    Owned by a single search worker.  Every pass is one of the package's
    two sweep loops over the diagram's level-ordered ``rows``, so ``pi`` and
    ``val`` are always bit-identical to a full recompute.  A repair replaces
    both lists and pushes the old pair on a trail, so ``undo_to`` restores a
    search state by swapping lists back.
    """

    def __init__(self, dd: Obdd, domains: DomainState):
        _check_compatible(dd, domains)
        self.dd = dd
        self.domains = domains
        self.root = dd.root
        self.visits = 0
        self._trail: list[tuple[list[float], list[float]]] = []
        self.rows = dd.rows()
        # decision variable -> the diagram nodes it labels
        self.var_nodes: dict[int, list[int]] = {}
        # decision variable -> one past the last row at its level (0: no nodes)
        self._end = [0] * len(dd.vars)
        for end, (node, var, _, _, w) in enumerate(self.rows, start=1):
            if w is None:
                self.var_nodes.setdefault(var, []).append(node)
                self._end[var] = end
        self.rebuild()

    def rebuild(self) -> None:
        """Full two-pass recompute under the current domains; clears the trail."""
        self.pi = sweep_path_weights(self.dd, self.domains)
        self.val = sweep_values(self.dd, self.domains)
        self.visits += 2 * len(self.rows)
        self._trail.clear()

    def root_value(self) -> float:
        return self.val[self.root]

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
        self._trail.append((self.pi, self.val))
        self.pi = sweep_path_weights(self.dd, self.domains)
        self.val = list(self.val)
        _value_pass(self.rows, self.domains._dom, self.val, end)
        touched = len(self.rows) + end
        self.visits += touched
        return touched

    def apply_fix(self, var: int, value: bool) -> int:
        """``apply_fixes`` for one fix."""
        return self.apply_fixes([(var, value)])

    def mark(self) -> int:
        return len(self._trail)

    def undo_to(self, mark: int) -> None:
        if len(self._trail) > mark:
            self.pi, self.val = self._trail[mark]
            del self._trail[mark:]


def incremental_fix(scratch: PropagationScratch, var: int, value: bool) -> PropagationScratch:
    """Fix a free decision variable and update the scratch state in place."""
    if not 0 <= var < len(scratch.dd.vars) or not scratch.dd.vars.is_decision(var):
        raise ValueError(f"variable index {var} is not a decision variable")
    if not scratch.domains.is_free(var):
        raise ValueError(
            f"variable {scratch.dd.vars.name(var)!r} is already fixed"
        )
    scratch.domains.fix(var, value)
    scratch.apply_fix(var, value)
    return scratch
