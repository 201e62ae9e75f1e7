"""Weighted model counting on a diagram under a (partial) strategy.

Free decision variables evaluate as true, so on monotone diagrams the
result is the optimistic bound used by the propagators; on a fully fixed
strategy it is the exact conditional probability of the compiled event.
"""

from __future__ import annotations

from typing import Mapping

from .obdd import Obdd, Row, VariableTable

# decision-variable domains
FALSE_ONLY = 0
TRUE_ONLY = 1
BOTH = 2

_DOMAIN_NAMES = {FALSE_ONLY: "false", TRUE_ONLY: "true", BOTH: "free"}


def _not_decision(var: int) -> ValueError:
    return ValueError(f"variable index {var} is not a decision variable")


class DomainState:
    """Per-decision-variable domain: false-only, true-only, or both.

    Covers exactly the decision variables of one table.  Only a free
    variable is fixed, so the trail lists the fixed variables and
    ``undo_to`` frees them; no empty domain is stored (propagators fail instead).
    """

    def __init__(self, variables: VariableTable, fixed: Mapping[int, bool] | None = None):
        """All decision variables free, then the ``fixed`` ones fixed, in
        one pass; the trail lists them in the mapping's order."""
        self.vars = variables
        self._dom = dom = [BOTH if prob is None else -1 for prob in variables._probs]
        trues = 0
        for var, value in (fixed or {}).items():
            if not 0 <= var < len(dom) or dom[var] == -1:
                raise _not_decision(var)
            if value:
                dom[var] = TRUE_ONLY
                trues += 1
            else:
                dom[var] = FALSE_ONLY
        self._true_count = trues
        self._trail: list[int] = list(fixed or ())

    def _check(self, var: int) -> None:
        if not 0 <= var < len(self._dom) or self._dom[var] == -1:
            raise _not_decision(var)

    def domain(self, var: int) -> int:
        self._check(var)
        return self._dom[var]

    def is_free(self, var: int) -> bool:
        self._check(var)
        return self._dom[var] == BOTH

    def fix(self, var: int, value: bool) -> None:
        """Shrink the domain of a free variable to a single value."""
        self._check(var)
        if self._dom[var] != BOTH:
            raise ValueError(f"variable {self.vars.name(var)!r} is already fixed")
        self._trail.append(var)
        self._dom[var] = TRUE_ONLY if value else FALSE_ONLY
        if value:
            self._true_count += 1

    def mark(self) -> int:
        return len(self._trail)

    def undo_to(self, mark: int) -> None:
        while len(self._trail) > mark:
            var = self._trail.pop()
            if self._dom[var] == TRUE_ONLY:
                self._true_count -= 1
            self._dom[var] = BOTH

    def true_count(self) -> int:
        return self._true_count

    def free_vars(self) -> list[int]:
        return [v for v, d in enumerate(self._dom) if d == BOTH]

    def copy(self) -> "DomainState":
        clone = DomainState(self.vars)
        clone._dom = list(self._dom)
        clone._true_count = self._true_count
        return clone

    def __repr__(self):
        parts = [
            f"{self.vars.name(v)}={_DOMAIN_NAMES[d]}"
            for v, d in enumerate(self._dom) if d != -1
        ]
        return f"DomainState({', '.join(parts)})"


def _check_compatible(dd: Obdd, domains: DomainState) -> None:
    if domains.vars is not dd.vars and domains.vars != dd.vars:
        raise ValueError("domain state was built over a different variable table")


def _value_pass(rows: list[Row], dom: list[int], val: list[float], end: int) -> None:
    """The value loop over rows ``[0, end)``, in place; the values of the
    terminals and of the rows from ``end`` on must already be in ``val``."""
    for node, var, lo, hi, w in reversed(rows[:end]):
        if w is None:
            val[node] = val[lo] if dom[var] == FALSE_ONLY else val[hi]
        else:
            val[node] = w * val[hi] + (1.0 - w) * val[lo]


def _path_pass(rows: list[Row], dom: list[int], size: int,
               seeds: list[tuple[int, float]]) -> list[float]:
    """The path-weight loop over all rows, from the (root, weight) seeds;
    returns a fresh array of ``size`` entries, by node id."""
    pi = [0.0] * size
    for root, weight in seeds:
        pi[root] += weight
    for node, var, lo, hi, w in rows:
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


def sweep_values(dd: Obdd, domains: DomainState) -> list[float]:
    """One children-first pass of the node-value recurrence below the root;
    free decisions count as true.  Returns an array by node id."""
    rows = dd.rows()
    val = [0.0] * len(dd)
    val[1] = 1.0
    _value_pass(rows, domains._dom, val, len(rows))
    return val


def evaluate(dd: Obdd, domains: DomainState) -> float:
    """Root value under the partial strategy (free decisions count as true)."""
    _check_compatible(dd, domains)
    return sweep_values(dd, domains)[dd.root]


def model_probability(dd: Obdd, assignment: Mapping[int, bool]) -> float:
    """Probability mass of one full assignment, zero when it falsifies the
    diagram.  Every variable of the table must be assigned; used by oracles."""
    probs = dd.vars._probs
    for var in range(len(probs)):
        if var not in assignment:
            raise ValueError(f"variable {dd.vars.name(var)!r} is unassigned")
    if not dd.eval_bool(assignment):
        return 0.0
    prob = 1.0
    for var, p in enumerate(probs):
        if p is not None:
            prob *= p if assignment[var] else 1.0 - p
    return prob
