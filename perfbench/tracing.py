"""Spans around the program's layer boundaries, for the traced run.

``Tracer.install`` replaces names that the program looks up at call time
(module functions and ``PropagationScratch`` methods) with wrappers that
record a span: name, parent span, start and end.  The spans of one
instance stay in memory until ``Tracer.fold`` turns them into per-name call
counts and self time (span time minus the time of its direct child spans).
A name that no longer exists is reported as absent instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (owner, attribute, span name).  The benchmark calls parse_network,
# build_problem, solve_opt and solve_sat through these module attributes,
# so its own calls into each layer are spans too.
TARGETS = [
    ("scopdd.model_io", "parse_network", "model_io.parse_network"),
    ("scopdd.model_io", "build_problem", "model_io.build_problem"),
    ("scopdd.model_io", "st_path_dnf", "model_io.st_path_dnf"),
    ("scopdd.model_io", "from_dnf", "obdd.from_dnf"),
    ("scopdd.solver", "solve_opt", "solver.solve_opt"),
    ("scopdd.solver", "solve_sat", "solver.solve_sat"),
    ("scopdd.solver", "propagation_loop", "solver.propagation_loop"),
    ("scopdd.solver", "cardinality_propagate", "solver.cardinality_propagate"),
    ("scopdd.solver", "dc_propagate", "propagate.dc_propagate"),
    ("scopdd.propagate:PropagationScratch", "__init__", "propagate.scratch_init"),
    ("scopdd.propagate:PropagationScratch", "apply_fix", "propagate.apply_fix"),
    ("scopdd.propagate:PropagationScratch", "undo_to", "propagate.undo_to"),
]


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    try:
        found = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(found, cls, None) if cls else found


def reachable_internal(dd) -> int:
    """Internal nodes reachable from the diagram's root, found through the
    public ``root`` / ``lo`` / ``hi`` accessors."""
    seen = set()
    stack = [dd.root]
    while stack:
        node = stack.pop()
        if node < 2 or node in seen:
            continue
        seen.add(node)
        stack.append(dd.lo(node))
        stack.append(dd.hi(node))
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self._open: list[int] = []
        self._saved: list[tuple] = []
        self.absent: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, float] = defaultdict(float)
        self.paths = 0
        self.diagrams: list = []  # results of from_dnf since the last fold
        # apply_fix(var, False) calls: scratches and nodes touched
        self._false_fixes: list[tuple[object, int]] = []
        self.false_fix_touched = 0
        self.false_fix_reachable = 0

    def _observe(self, name: str, args, result) -> None:
        """Record what a span's result tells: paths found, diagrams built
        and nodes touched by false-fixes."""
        if name == "model_io.st_path_dnf" and hasattr(result, "__len__"):
            self.paths += len(result)
        elif name == "obdd.from_dnf":
            self.diagrams.append(result)
        elif name == "propagate.apply_fix" and len(args) == 3 and not args[2]:
            self._false_fixes.append((args[0], result))

    def _wrap(self, fn, name: str):
        spans, open_, observe = self.spans, self._open, self._observe
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, open_[-1] if open_ else -1, clock(), 0.0]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                observe(name, args, result)
                return result
            finally:
                span[3] = clock()
                open_.pop()

        return traced

    def install(self) -> None:
        self.absent = []
        for owner_name, attr, name in TARGETS:
            owner = _resolve(owner_name)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def fold(self) -> float:
        """Fold the spans recorded since the last fold into the per-name
        sums, then drop them; returns their summed self time."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        folded = 0.0
        for (name, _, start, end), inner in zip(self.spans, child):
            own = end - start - inner
            self.calls[name] += 1
            self.self_time[name] += own
            folded += own
        self.spans.clear()
        reachable: dict[int, int] = {}
        try:
            for scratch, touched in self._false_fixes:
                dd = scratch.dd
                if id(dd) not in reachable:
                    reachable[id(dd)] = reachable_internal(dd)
                self.false_fix_touched += touched
                self.false_fix_reachable += reachable[id(dd)]
        except (AttributeError, TypeError):  # the scratch no longer exposes its diagram
            pass
        self._false_fixes.clear()
        return folded
