"""Domain-consistent propagation for monotone threshold constraints.

The constraint has the shape ``sum_i r_i * P(event_i | strategy) >= theta``
over diagrams that are monotone in the decision variables.  Three
propagators live here:

* ``naive_propagate`` re-evaluates every diagram once per free variable
  (O(m*n) node visits) and serves as the oracle;
* ``dc_propagate`` computes, in one top-down path-weight pass and one
  bottom-up value pass per diagram, the drop in the optimistic bound caused
  by fixing any free variable to false, and prunes in O(m+n) visits;
* ``PropagationScratch.apply_fix`` keeps the two passes incremental: fixing
  a variable to true touches nothing, fixing it to false recomputes path
  weights only below the variable's level and values only at or above it.

The derivative identity behind ``dc_propagate``: for a free decision
variable d, the optimistic bound drops by exactly
``sum over d's nodes of pathweight(node) * (value(hi) - value(lo))``
when d is fixed to false, because path weights only involve variables above
d and child values only involve variables below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .evaluate import BOTH, DomainState, FALSE_ONLY, _check_compatible, sweep_values
from .obdd import DECISION, Obdd

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
    for node in dd.topo_order(root):
        if node < 2:
            continue
        p = pi[node]
        if p == 0.0:
            continue
        var = dd.var_of(node)
        info = dd.vars.info(var)
        if info.kind == DECISION:
            if dom[var] != FALSE_ONLY:
                pi[dd.hi(node)] += p
            else:
                pi[dd.lo(node)] += p
        else:
            w = info.prob
            pi[dd.hi(node)] += w * p
            pi[dd.lo(node)] += (1.0 - w) * p
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

    When ``scratches`` (one per term, consistent with ``domains``) are
    given, the two sweeps are skipped and drops are read off the scratch
    arrays.
    """
    _check_terms(terms, domains)
    visits = 0
    bound = 0.0
    free = domains.free_vars()
    drop = dict.fromkeys(free, 0.0)

    if scratches is None:
        for term in terms:
            dd = term.obdd
            order = dd.topo_order()
            internal = [n for n in order if n >= 2]
            pi = sweep_path_weights(dd, domains) if free else None
            visits += len(internal) if free else 0
            # bottom-up value pass with the drop accumulation folded in
            val = [0.0] * len(dd)
            val[1] = 1.0
            dom = domains._dom
            for node in reversed(order):
                if node < 2:
                    continue
                var = dd.var_of(node)
                info = dd.vars.info(var)
                lo, hi = dd.lo(node), dd.hi(node)
                if info.kind == DECISION:
                    if dom[var] == FALSE_ONLY:
                        val[node] = val[lo]
                    else:
                        val[node] = val[hi]
                        if dom[var] == BOTH:
                            drop[var] += term.reward * pi[node] * (val[hi] - val[lo])
                else:
                    w = info.prob
                    val[node] = w * val[hi] + (1.0 - w) * val[lo]
            visits += len(internal)
            bound += term.reward * val[dd.root]
    else:
        if len(scratches) != len(terms):
            raise ValueError("need one scratch per term")
        for term, scratch in zip(terms, scratches):
            bound += term.reward * scratch.root_value()
            for var in free:
                for node in scratch.var_nodes.get(var, ()):
                    drop[var] += term.reward * scratch.pi[node] * (
                        scratch.val[scratch.dd.hi(node)] - scratch.val[scratch.dd.lo(node)]
                    )
                    visits += 1

    visits += len(free)
    if bound < theta - eps:
        return PropagationResult(FAILED, bound=bound, visits=visits)
    fixed = []
    for var in free:
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
        score = 0.0
        for term in terms:
            dd = term.obdd
            score += term.reward * sweep_values(
                dd, domains, override_var=var, override_value=False
            )[dd.root]
            visits += len(dd.internal_nodes())
        if score < theta - eps:
            domains.fix(var, True)
            fixed.append((var, True))
    return PropagationResult(OK, fixed=fixed, bound=bound, visits=visits)


class PropagationScratch:
    """Reusable per-diagram propagation state: path weights and values.

    Owned by a single search worker.  ``rebuild`` runs the two full passes;
    ``apply_fix`` updates both arrays incrementally after one variable fix,
    touching only the affected region.  All array writes go on a trail so
    ``undo_to`` can restore the state on backtrack without recomputing.
    """

    def __init__(self, dd: Obdd, domains: DomainState):
        _check_compatible(dd, domains)
        self.dd = dd
        self.domains = domains
        self.root = dd.root
        self.order = dd.topo_order()
        self.internal = [n for n in self.order if n >= 2]
        self.pi = [0.0] * len(dd)
        self.val = [0.0] * len(dd)
        self.visits = 0
        self._trail: list[tuple[int, int, float]] = []
        # decision variable -> the diagram nodes it labels
        self.var_nodes: dict[int, list[int]] = {}
        self._parents: dict[int, list[int]] = {n: [] for n in self.order}
        for node in self.internal:
            var = dd.var_of(node)
            if dd.vars.is_decision(var):
                self.var_nodes.setdefault(var, []).append(node)
            self._parents[dd.lo(node)].append(node)
            self._parents[dd.hi(node)].append(node)
        self.rebuild()

    def rebuild(self) -> None:
        """Full two-pass recompute under the current domains; clears the trail."""
        dd, domains = self.dd, self.domains
        pi = sweep_path_weights(dd, domains, self.root)
        val = sweep_values(dd, domains, self.root)
        for node in self.order:
            self.pi[node] = pi[node]
            self.val[node] = val[node]
        self.visits += 2 * len(self.internal)
        self._trail.clear()

    def root_value(self) -> float:
        return self.val[self.root]

    def derivative(self, var: int) -> float:
        """Drop of the root value if the (free) variable goes false."""
        dd = self.dd
        total = 0.0
        for node in self.var_nodes.get(var, ()):
            total += self.pi[node] * (self.val[dd.hi(node)] - self.val[dd.lo(node)])
            self.visits += 1
        return total

    def derivatives(self) -> dict[int, float]:
        return {var: self.derivative(var) for var in self.domains.free_vars()}

    # -- incremental maintenance ---------------------------------------

    def apply_fix(self, var: int, value: bool) -> int:
        """Update the arrays after ``var`` was fixed; returns nodes touched.

        The domain state must already reflect the fix.  Fixing to true is
        free: free decision nodes already route their path weight and value
        through the hi arc.  Fixing to false re-propagates path-weight
        deltas downward from the variable's nodes and recomputes values
        upward from them, stopping where nothing changes.
        """
        if value:
            return 0
        dd = self.dd
        dom = self.domains._dom
        nodes = self.var_nodes.get(var, ())
        touched = 0

        # path weights: deltas flow strictly below the fixed variable's level
        pending: dict[int, dict[int, float]] = {}

        def add_delta(node: int, delta: float) -> None:
            if delta != 0.0:
                level = pending.setdefault(dd.level(node), {})
                level[node] = level.get(node, 0.0) + delta

        for node in nodes:
            p = self.pi[node]
            add_delta(dd.hi(node), -p)
            add_delta(dd.lo(node), p)
        while pending:
            level = min(pending)
            for node, delta in sorted(pending.pop(level).items()):
                if delta == 0.0:
                    continue
                self._trail.append((0, node, self.pi[node]))
                self.pi[node] += delta
                touched += 1
                if node < 2:
                    continue
                nvar = dd.var_of(node)
                info = dd.vars.info(nvar)
                if info.kind == DECISION:
                    if dom[nvar] != FALSE_ONLY:
                        add_delta(dd.hi(node), delta)
                    else:
                        add_delta(dd.lo(node), delta)
                else:
                    add_delta(dd.hi(node), info.prob * delta)
                    add_delta(dd.lo(node), (1.0 - info.prob) * delta)

        # values: recompute upward from the variable's nodes, deepest first
        up: dict[int, set[int]] = {}
        for node in nodes:
            up.setdefault(dd.level(node), set()).add(node)
        while up:
            level = max(up)
            for node in sorted(up.pop(level)):
                nvar = dd.var_of(node)
                info = dd.vars.info(nvar)
                if info.kind == DECISION:
                    branch = dd.lo(node) if dom[nvar] == FALSE_ONLY else dd.hi(node)
                    new = self.val[branch]
                else:
                    new = info.prob * self.val[dd.hi(node)] + (
                        1.0 - info.prob
                    ) * self.val[dd.lo(node)]
                touched += 1
                if new != self.val[node]:
                    self._trail.append((1, node, self.val[node]))
                    self.val[node] = new
                    for parent in self._parents[node]:
                        up.setdefault(dd.level(parent), set()).add(parent)

        self.visits += touched
        return touched

    def mark(self) -> int:
        return len(self._trail)

    def undo_to(self, mark: int) -> None:
        while len(self._trail) > mark:
            which, node, old = self._trail.pop()
            if which == 0:
                self.pi[node] = old
            else:
                self.val[node] = old


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
