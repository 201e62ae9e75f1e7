"""Circuit decomposition of a diagram constraint plus interval propagation.

Instead of propagating on the diagram itself, the constraint is decomposed
into one linear relation per node of the value recurrence: stochastic nodes
fold into affine expressions, each decision node keeps a continuous value
variable selected between two affine branches by its binary decision
variable, and the threshold becomes a single inequality on the root
expression.  ``bounds_propagate`` then runs interval arithmetic over this
system to a fixpoint.  This mirrors what a generic solver can deduce from
the decomposed model, and is deliberately weaker than the diagram
propagator: on the right instances it fixes strictly fewer variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .evaluate import BOTH, DomainState, FALSE_ONLY, TRUE_ONLY
from .propagate import (
    ConstraintTerm,
    FAILED,
    OK,
    PropagationResult,
    THRESHOLD_EPS,
)

# emptiness and branch-pruning decisions need clear evidence: backward
# tightening divides by node coefficients that can be tiny, which amplifies
# float noise well past 1e-12
_EMPTY_EPS = 1e-9
# ignore bound improvements below this, otherwise noise-sized tightenings
# re-intersect every fixpoint round and compound into spurious emptiness
_TIGHTEN_EPS = 1e-11

NodeKey = tuple[int, int]  # (term index, node id)


class _EmptyInterval(Exception):
    pass


@dataclass(frozen=True)
class Affine:
    """Affine expression over decision-node value variables."""

    const: float = 0.0
    coefs: tuple[tuple[NodeKey, float], ...] = ()

    def scaled(self, factor: float) -> "Affine":
        return Affine(self.const * factor, tuple((k, c * factor) for k, c in self.coefs))

    def plus(self, other: "Affine") -> "Affine":
        merged = dict(self.coefs)
        for key, coef in other.coefs:
            merged[key] = merged.get(key, 0.0) + coef
        return Affine(self.const + other.const, tuple(sorted(merged.items())))


@dataclass(frozen=True)
class DecisionEquation:
    """value(key) = (1 - d) * lo_expr + d * hi_expr for binary variable d."""

    key: NodeKey
    var: int
    lo_expr: Affine
    hi_expr: Affine


@dataclass
class LinearSystem:
    """The decomposed constraint: one equation per decision node; each
    stochastic node is folded into the affine expressions above it."""

    theta: float
    decision_eqs: list[DecisionEquation]
    root_expr: Affine
    var_names: dict[NodeKey, str]


def decompose(terms: list[ConstraintTerm], theta: float) -> LinearSystem:
    """Build the per-node linear system for sum_i r_i * value_i(root) >= theta."""
    if not terms:
        raise ValueError("constraint needs at least one term")
    if math.isnan(theta):
        raise ValueError("theta must not be NaN")
    decision_eqs: list[DecisionEquation] = []
    var_names: dict[NodeKey, str] = {}
    root_expr = Affine()
    for ti, term in enumerate(terms):
        dd = term.obdd
        exprs: dict[int, Affine] = {0: Affine(0.0), 1: Affine(1.0)}
        term_eqs: list[DecisionEquation] = []
        for node, var, lo, hi, w in reversed(dd.rows()):
            key = (ti, node)
            if w is None:
                term_eqs.append(DecisionEquation(key, var, exprs[lo], exprs[hi]))
                exprs[node] = Affine(0.0, ((key, 1.0),))
                var_names[key] = f"v({dd.vars.name(var)}#{node})"
            else:
                exprs[node] = exprs[hi].scaled(w).plus(exprs[lo].scaled(1.0 - w))
        term_eqs.reverse()  # topological: root side first
        decision_eqs.extend(term_eqs)
        root_expr = root_expr.plus(exprs[dd.root].scaled(term.reward))
    return LinearSystem(theta, decision_eqs, root_expr, var_names)


@dataclass
class BoundsResult:
    """Interval propagation outcome: result plus the final intervals."""

    result: PropagationResult
    intervals: dict[NodeKey, tuple[float, float]]
    root_interval: tuple[float, float]
    converged: bool = True


def bounds_propagate(system: LinearSystem, domains: DomainState) -> BoundsResult:
    """Interval (bounds) propagation over the decomposed system.

    Alternates forward evaluation of the node equations, tightening through
    the root inequality (met within ``THRESHOLD_EPS``), and pruning of binary
    decision domains when one branch of a node equation cannot meet its
    required interval.  Runs to a fixpoint, capped at 100 iterations per
    equation (hitting the cap is reported via ``converged``, not an error).
    An empty interval signals failure, in which case any pruning done on
    the way is rolled back.
    """
    iv: dict[NodeKey, list[float]] = {eq.key: [0.0, 1.0] for eq in system.decision_eqs}
    visits = 0
    fixed: list[tuple[int, bool]] = []
    root_iv = (0.0, 1.0)
    floor = system.theta - THRESHOLD_EPS
    entry_mark = domains.mark()

    def interval(expr: Affine) -> tuple[float, float]:
        lo = hi = expr.const
        for key, coef in expr.coefs:
            b = iv[key]
            if coef >= 0:
                lo += coef * b[0]
                hi += coef * b[1]
            else:
                lo += coef * b[1]
                hi += coef * b[0]
        return lo, hi

    def tighten(key: NodeKey, lo: float, hi: float) -> bool:
        b = iv[key]
        new_lo, new_hi = max(b[0], lo), min(b[1], hi)
        if new_lo > new_hi + _EMPTY_EPS:
            raise _EmptyInterval()
        if new_lo > new_hi:  # collapse float-noise inversion
            new_lo, new_hi = new_hi, new_lo
        if new_lo <= b[0] + _TIGHTEN_EPS and new_hi >= b[1] - _TIGHTEN_EPS:
            return False
        b[0], b[1] = min(new_lo, b[1]), max(new_hi, b[0])
        return True

    def tighten_through(expr: Affine, req_lo: float, req_hi: float) -> bool:
        # one-sided linear tightening of every variable in the expression
        lo, hi = interval(expr)
        if lo > req_hi + _EMPTY_EPS or hi < req_lo - _EMPTY_EPS:
            raise _EmptyInterval()
        changed = False
        for key, coef in expr.coefs:
            if coef <= 0.0:
                continue
            b = iv[key]
            rest_hi = hi - coef * b[1]
            rest_lo = lo - coef * b[0]
            changed |= tighten(key, (req_lo - rest_hi) / coef, (req_hi - rest_lo) / coef)
        return changed

    max_iters = 100 * (len(system.decision_eqs) + 1)
    converged = False
    try:
        for _ in range(max_iters):
            changed = False
            # forward sweep, children first
            for eq in reversed(system.decision_eqs):
                visits += 1
                lo_iv = interval(eq.lo_expr)
                hi_iv = interval(eq.hi_expr)
                dom = domains.domain(eq.var)
                if dom == FALSE_ONLY:
                    bounds = lo_iv
                elif dom == TRUE_ONLY:
                    bounds = hi_iv
                else:
                    bounds = (min(lo_iv[0], hi_iv[0]), max(lo_iv[1], hi_iv[1]))
                changed |= tighten(eq.key, *bounds)
            # root inequality
            visits += 1
            root_iv = interval(system.root_expr)
            if root_iv[1] < floor:
                raise _EmptyInterval()
            changed |= tighten_through(system.root_expr, floor, root_iv[1])
            # backward through the node equations
            for eq in system.decision_eqs:
                visits += 1
                req_lo, req_hi = iv[eq.key]
                dom = domains.domain(eq.var)
                if dom == BOTH:
                    lo_iv = interval(eq.lo_expr)
                    hi_iv = interval(eq.hi_expr)
                    lo_ok = lo_iv[0] <= req_hi + _EMPTY_EPS and lo_iv[1] >= req_lo - _EMPTY_EPS
                    hi_ok = hi_iv[0] <= req_hi + _EMPTY_EPS and hi_iv[1] >= req_lo - _EMPTY_EPS
                    if not lo_ok and not hi_ok:
                        raise _EmptyInterval()
                    if lo_ok != hi_ok:
                        value = hi_ok
                        domains.fix(eq.var, value)
                        fixed.append((eq.var, value))
                        changed = True
                        dom = TRUE_ONLY if value else FALSE_ONLY
                if dom != BOTH:
                    branch = eq.hi_expr if dom == TRUE_ONLY else eq.lo_expr
                    changed |= tighten_through(branch, req_lo, req_hi)
            if not changed:
                converged = True
                break
    except _EmptyInterval:
        domains.undo_to(entry_mark)  # a failed call must not act on its fixes
        result = PropagationResult(FAILED, bound=root_iv[1], visits=visits)
        return BoundsResult(
            result, {k: (b[0], b[1]) for k, b in iv.items()}, root_iv, converged=True
        )
    result = PropagationResult(OK, fixed=fixed, bound=root_iv[1], visits=visits)
    return BoundsResult(
        result, {k: (b[0], b[1]) for k, b in iv.items()}, root_iv, converged
    )
