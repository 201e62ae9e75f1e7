"""Reduced ordered binary decision diagrams over decision and stochastic variables.

A diagram lives in an append-only node store of (level, lo, hi) triples
with hash-consing: structurally equal subgraphs share one node id, so
isomorphism within a store reduces to id equality.  Ids 0 and 1 are the
false/true terminals; all other ids are internal nodes.  Variables are kept
in a separate registry, indexed in declaration order, as a name and a
probability each; a decision variable is one without a probability.  Each
also has a level, its place in the global variable order, and every node's
level is strictly smaller than the levels of its internal children.  A node is labelled by its
level alone, which the OR kernel compares and ``rows`` sorts by; the
registry maps each level back to its variable, so cubes, rows and
``var_of`` still name variables by index.

``from_dnf`` builds a DNF over the trie of its cubes' sorted level tuples,
one node per trie edge, so no cube is ORed on its own into a growing
disjunction (see its docstring).  Every compiled event is monotone, so OR
is the one way two diagrams are combined.  ``from_dnf`` and
``load_obdd`` build in a working store and return a compact copy holding
only the nodes reachable from the root, so ``len(dd)`` is the reachable
node count plus the two terminals; the working store, with its OR memo,
is dropped.  ``from_dnf`` compiles each chain, a run of adjacent levels
that its cubes only hold together, as the chain's first level, and the
compact copy expands every such node into the whole chain.  A cube is its
variable indices.  Every public traversal starts at ``root``; only a
constraint's scratch walks several roots.

The text exchange format is line oriented (``#`` starts a comment):

    var <name> decision
    var <name> stochastic <p>
    order <name> <name> ...        # optional: the names by level, when the
                                   # levels differ from declaration order
    node <id> <varname> <lo> <hi>  # ids >= 2, children defined first
    root <id>
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import ParseError, StructureError

DECISION = "decision"
STOCHASTIC = "stochastic"

FALSE_NODE = 0
TRUE_NODE = 1

# (node, var, lo, hi, w): w is the probability of a stochastic node, None
# for a decision node
Row = tuple[int, int, int, int, float | None]


class VarInfo(NamedTuple):
    """A view of one registered variable; ``index`` is its position in
    declaration order, which ``VariableTable.level`` need not follow."""

    index: int
    name: str
    kind: str
    prob: float | None = None


class VariableTable:
    """Registry of decision and stochastic variables.

    Indices follow declaration order.  The table holds each variable as a
    name and a probability: a variable is a decision exactly when its
    probability is None, so ``info`` builds its ``VarInfo`` on demand.  Each
    variable also has a level, its place in the diagram order: a smaller
    level means closer to the root of every diagram built over this table.
    Levels follow declaration order unless an ``order`` is given.  The table
    keeps the map both ways: the level of each index and the index at each
    level.
    """

    def __init__(self, declared: Sequence[tuple[str, str, float | None]] = (),
                 order: Sequence[str] | None = None, *, noun: str = "declared"):
        """Register ``(name, kind, prob)`` declarations in declaration order,
        then, if ``order`` is given, give each variable its position there as
        its level; ``order`` must name every declared variable exactly once,
        and ``noun`` says what the variables are in that error."""
        self._names: list[str] = []  # by index
        self._probs: list[float | None] = []  # by index; None for a decision
        for name, kind, prob in declared:
            if kind == STOCHASTIC:
                if prob is None or not 0.0 <= prob <= 1.0:
                    break
            elif kind != DECISION or prob is not None:
                break
            self._names.append(name)
            self._probs.append(prob)
        self._by_name: dict[str, int] = {name: index for index, name in enumerate(self._names)}
        if len(self._by_name) < len(self._names) or len(self._names) < len(declared):
            # the one-at-a-time path names the first bad declaration
            replay = VariableTable()
            for name, kind, prob in declared:
                replay._add(name, kind, prob)
        size = len(self._names)
        self._level: list[int] = list(range(size))  # by index
        self._by_level: list[int] = list(range(size))  # the index at each level
        if order is not None:
            if len(order) != size or self._by_name.keys() != set(order):
                raise ValueError(
                    f"order line must mention every {noun} variable exactly once"
                )
            self._by_level = [self._by_name[name] for name in order]
            for level, index in enumerate(self._by_level):
                self._level[index] = level

    @classmethod
    def _from_levels(cls, names: list[str], probs: list[float | None],
                     by_level: list[int]) -> VariableTable:
        """The table of the variables ``names`` with ``probs``, a decision
        where the probability is None, in declaration order, with the index
        at each level taken from the permutation ``by_level``.  It keeps the
        three lists and checks the probabilities and the names as the
        constructor does."""
        table = cls.__new__(cls)
        table._names, table._probs = names, probs
        table._by_name = dict(zip(names, range(len(names))))
        if len(table._by_name) < len(names) or not all(
                0.0 <= prob <= 1.0 for prob in probs if prob is not None):
            # the one-at-a-time path names the first bad variable
            replay = cls()
            for name, prob in zip(names, probs):
                replay._add(name, DECISION if prob is None else STOCHASTIC, prob)
        table._by_level = by_level
        table._level = sorted(range(len(by_level)), key=by_level.__getitem__)
        return table

    def _add(self, name: str, kind: str, prob: float | None) -> int:
        if name in self._by_name:
            raise ValueError(f"duplicate variable name {name!r}")
        if kind == STOCHASTIC:
            if prob is None:
                raise ValueError(f"stochastic variable {name!r} needs a probability")
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"probability of {name!r} outside [0, 1]: {prob}")
        elif kind != DECISION:
            raise ValueError(f"unknown kind {kind!r} of variable {name!r}")
        elif prob is not None:
            raise ValueError(f"decision variable {name!r} cannot carry a probability")
        index = len(self._names)
        self._names.append(name)
        self._probs.append(prob)
        self._by_name[name] = index
        self._level.append(index)
        self._by_level.append(index)
        return index

    def add_decision(self, name: str) -> int:
        return self._add(name, DECISION, None)

    def add_stochastic(self, name: str, prob: float) -> int:
        return self._add(name, STOCHASTIC, prob)

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self):
        return map(self.info, range(len(self._names)))

    def __eq__(self, other):
        if not isinstance(other, VariableTable):
            return NotImplemented
        return (self._by_level == other._by_level and self._names == other._names
                and self._probs == other._probs)

    def info(self, index: int) -> VarInfo:
        index = range(len(self._names))[index]  # a negative index counts from the end
        prob = self._probs[index]
        return VarInfo(index, self._names[index], DECISION if prob is None else STOCHASTIC, prob)

    def level(self, index: int) -> int:
        return self._level[index]

    def order(self) -> list[str]:
        """Variable names by level, root side first."""
        return [self._names[index] for index in self._by_level]

    def name(self, index: int) -> str:
        return self._names[index]

    def index(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self._by_name

    def is_decision(self, index: int) -> bool:
        return self._probs[index] is None

    def decision_ids(self) -> list[int]:
        return [index for index, prob in enumerate(self._probs) if prob is None]


@dataclass(frozen=True)
class Cube:
    """A conjunction of positive literals: its variable indices, ascending
    and distinct."""

    vars: tuple[int, ...]

    def __post_init__(self):
        ids = tuple(sorted(int(v) for v in self.vars))
        for a, b in zip(ids, ids[1:]):
            if a == b:
                raise ValueError(f"variable {a} appears twice in cube")
        object.__setattr__(self, "vars", ids)

    @staticmethod
    def positive(var_ids: Iterable[int]) -> "Cube":
        return Cube(tuple(var_ids))

    @classmethod
    def _sorted(cls, var_ids: tuple[int, ...]) -> Cube:
        """The cube of ``var_ids``, which the caller knows are ascending and
        distinct, taken without a check."""
        cube = object.__new__(cls)
        object.__setattr__(cube, "vars", var_ids)
        return cube


class Obdd:
    """One diagram plus its hash-consed node store.

    The store is append-only and node ids are never recycled, so downstream
    scratch state may index by node id for the lifetime of the diagram.  A
    finished diagram is treated as immutable.
    """

    def __init__(self, variables: VariableTable):
        self.vars = variables
        self.root = FALSE_NODE
        # parallel arrays; slots 0/1 are terminal sentinels
        self._lvl: list[int] = [-1, -1]  # the level of each node's variable
        self._lo: list[int] = [-1, -1]
        self._hi: list[int] = [-1, -1]
        self._unique: dict[tuple[int, int, int], int] = {}
        # the OR kernel's memo, keyed by min(a, b) << 32 | max(a, b)
        self._or_memo: dict[int, int] = {}
        # a working store's chains: each head level to the levels below it in
        # its chain, deepest first; ``_copy`` expands a head node into them
        self._chain: dict[int, tuple[int, ...]] = {}
        self._rows_cache: dict[int, list[Row]] = {}  # by root

    # -- store access -------------------------------------------------

    def __len__(self) -> int:
        return len(self._lvl)

    def var_of(self, node: int) -> int:
        """Index of the node's variable; -1 for a terminal."""
        return -1 if node < 2 else self.vars._by_level[self._lvl[node]]

    def lo(self, node: int) -> int:
        return self._lo[node]

    def hi(self, node: int) -> int:
        return self._hi[node]

    def level(self, node: int) -> int:
        """Level of the node's variable; terminals sit below all levels."""
        return len(self.vars) if node < 2 else self._lvl[node]

    def _check_node(self, node: int) -> None:
        if not isinstance(node, int) or not 0 <= node < len(self._lvl):
            raise StructureError(f"node id {node!r} does not belong to this store")

    # -- construction -------------------------------------------------

    def mk_node(self, var: int, lo: int, hi: int) -> int:
        """Canonical node for (var, lo, hi); applies the reduction rules."""
        self._check_node(lo)
        self._check_node(hi)
        if not 0 <= var < len(self.vars):
            raise StructureError(f"variable index {var} not in table")
        level = self.vars.level(var)
        if level >= self.level(lo) or level >= self.level(hi):
            raise StructureError(
                f"variable {self.vars.name(var)!r} does not precede its children"
            )
        return self._make(level, lo, hi)

    def _make(self, level: int, lo: int, hi: int) -> int:
        """``mk_node`` without the checks, for ids this store made itself;
        takes the level of the node's variable."""
        if lo == hi:
            return lo
        key = (level, lo, hi)
        found = self._unique.get(key)
        if found is not None:
            return found
        node = len(self._lvl)
        self._lvl.append(level)
        self._lo.append(lo)
        self._hi.append(hi)
        self._unique[key] = node
        return node

    def _or(self, a: int, b: int) -> int:
        """Reduced diagram of (a OR b) for ids this store made itself, on an
        explicit stack.  A task ``(a, b)`` asks for (a OR b); ``(~level,
        key)`` makes a node at ``level`` from the lo and hi results on top of
        ``done`` and memoizes it under ``key``.  The operand at the smaller
        level splits first.  Lo finishes before hi, so nodes are made in the
        order of the recursive formulation.

        The one memo is keyed by ``min(a, b) << 32 | max(a, b)`` (node ids
        stay below 2**32); new nodes are hash-consed inline, not through
        ``_make``.  The terminal tests use the literal ids 0 (false) and 1
        (true), which cost no name lookup on this hot path."""
        memo = self._or_memo
        lvl_of, lo_of, hi_of, unique = self._lvl, self._lo, self._hi, self._unique
        tasks: list[tuple[int, int]] = [(a, b)]
        done: list[int] = []
        push, pop, emit, take = tasks.append, tasks.pop, done.append, done.pop
        while tasks:
            a, b = pop()
            if a < 0:  # (~level, key): make the node
                hi = take()
                lo = take()
                if lo == hi:
                    node = lo
                else:
                    triple = (~a, lo, hi)
                    node = unique.get(triple)
                    if node is None:
                        node = unique[triple] = len(lvl_of)
                        lvl_of.append(~a)
                        lo_of.append(lo)
                        hi_of.append(hi)
                memo[b] = node
                emit(node)
                continue
            if a == b or b == 0:
                emit(a)
                continue
            if a == 1 or b == 1:
                emit(1)
                continue
            if a == 0:
                emit(b)
                continue
            key = a << 32 | b if a < b else b << 32 | a
            found = memo.get(key)
            if found is not None:
                emit(found)
                continue
            # both operands are internal here
            lvl_a, lvl_b = lvl_of[a], lvl_of[b]
            if lvl_a == lvl_b:
                push((~lvl_a, key))
                push((hi_of[a], hi_of[b]))
                push((lo_of[a], lo_of[b]))
            elif lvl_a < lvl_b:
                push((~lvl_a, key))
                push((hi_of[a], b))
                push((lo_of[a], b))
            else:
                push((~lvl_b, key))
                push((a, hi_of[b]))
                push((a, lo_of[b]))
        return done[0]

    # -- traversal ----------------------------------------------------

    def topo_order(self) -> tuple[int, ...]:
        """Reachable nodes, every node before its children, terminals last.

        Deterministic for a fixed diagram: internal nodes are sorted by
        (level, id).  Reverse the result to get a children-first order.
        """
        rows = self.rows()
        if not rows:  # a terminal root; an internal one reaches both terminals
            return (self.root,)
        return tuple(row[0] for row in rows) + (FALSE_NODE, TRUE_NODE)

    def _reachable(self, roots: Iterable[int]) -> set[int]:
        seen = set(roots)
        stack = list(seen)
        while stack:
            node = stack.pop()
            if node < 2:
                continue
            for child in (self._lo[node], self._hi[node]):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return seen

    def internal_nodes(self) -> list[int]:
        return [row[0] for row in self.rows()]

    def rows(self) -> list[Row]:
        """Internal nodes reachable from the root, as ``Row``s sorted by
        (level, id); built once per root."""
        rows = self._rows_cache.get(self.root)
        if rows is None:
            rows = self._rows_cache[self.root] = self._rows_from((self.root,))
        return rows

    def _rows_from(self, roots: set[int]) -> list[Row]:
        """``rows`` below several roots of this store, built afresh."""
        for node in roots:
            self._check_node(node)
        lvl_of, by_level, probs = self._lvl, self.vars._by_level, self.vars._probs
        # by id, then stably by level: (level, id) order with no key tuple per node
        nodes = sorted(n for n in self._reachable(roots) if n >= 2)
        nodes.sort(key=lvl_of.__getitem__)
        rows = []
        for node in nodes:
            var = by_level[lvl_of[node]]
            rows.append((node, var, self._lo[node], self._hi[node], probs[var]))
        return rows

    def _copy(self, source: "Obdd", root: int) -> int:
        """Copy the nodes of ``source`` (same variable table) reachable from
        ``root`` into this store in ascending id order; returns the copy of
        ``root``.  Hash-consing merges each with an equal node already here.
        A node ``(head, lo, hi)`` of one of ``source``'s chains becomes the
        whole chain, made deepest first: each level below the head gets a
        node whose lo is ``lo`` and whose hi is the node made before it."""
        chain = source._chain
        new_id = {FALSE_NODE: FALSE_NODE, TRUE_NODE: TRUE_NODE}
        for node in sorted(n for n in source._reachable((root,)) if n >= 2):
            level = source._lvl[node]
            lo, hi = new_id[source._lo[node]], new_id[source._hi[node]]
            for below in chain.get(level, ()):
                hi = self._make(below, lo, hi)
            new_id[node] = self._make(level, lo, hi)
        return new_id[root]

    def _compact(self, root: int) -> "Obdd":
        """A new store holding only the nodes reachable from ``root``,
        renumbered in ascending id order.  Children are older than their
        parents, so ``topo_order`` and every sweep keep their order."""
        dd = Obdd(self.vars)
        dd.root = dd._copy(self, root)
        return dd

    def eval_bool(self, assignment: Mapping[int, bool]) -> bool:
        """Truth value under a full assignment (walks one root-terminal path)."""
        node = self.root
        self._check_node(node)
        while node >= 2:
            var = self.var_of(node)
            if var not in assignment:
                raise ValueError(f"variable {self.vars.name(var)!r} is unassigned")
            node = self._hi[node] if assignment[var] else self._lo[node]
        return node == TRUE_NODE


def _cube_levels(variables: VariableTable, cube: Cube) -> tuple[int, ...]:
    """The levels of the cube's variables, ascending; rejects a variable
    outside the table."""
    level = variables._level
    for var in cube.vars:
        if not 0 <= var < len(level):
            raise StructureError(f"cube references unknown variable {var}")
    return tuple(sorted(level[var] for var in cube.vars))


def _chains(tuples: list[tuple[int, ...]]) -> dict[int, tuple[int, ...]]:
    """The chains of sorted, distinct level tuples: maximal runs of adjacent
    levels ``l, l + 1, ...`` such that every tuple holding one of them holds
    all.  Level ``l + 1`` joins ``l``'s chain when it directly follows ``l``
    in every tuple that holds either.  Maps each head, the chain's smallest
    level, to the levels below it, deepest first; runs in time linear in
    the tuples' total length."""
    count = Counter(itertools.chain.from_iterable(tuples))
    follow = Counter(a for levels in tuples for a, b in zip(levels, levels[1:]) if b == a + 1)
    joins = {a for a, n in follow.items() if n == count[a] == count[a + 1]}
    chains = {}
    for head in joins:
        if head - 1 not in joins:
            last = head + 1
            while last in joins:
                last += 1
            chains[head] = tuple(range(last, head, -1))
    return chains


def from_dnf(variables: VariableTable, cubes: Iterable[Cube]) -> Obdd:
    """Compile a monotone DNF into a reduced ordered diagram.

    Each cube becomes the ascending tuple of its variables' levels; repeats
    are dropped and the tuples sorted, which lays them out as the leaves of
    a trie: a depth-k group holds the tuples that share their first k
    levels, and its children are keyed by the level at depth k.  A group's
    diagram is the OR over its children of (child's level AND child's
    group), built from the last child to the first by one
    ``_make(level, acc, group OR acc)`` each, where ``acc`` is the OR of
    the later children.  The fold runs from the last tuple to the first and
    keeps ``acc[k]`` for each depth of the tuple folded last; a group whose
    prefix is itself a tuple is constant true.  It builds in one working
    store with one OR memo and returns the compact copy of the root.  An
    empty cube list yields the constant-false diagram; a cube without
    literals is the empty conjunction and yields constant true.

    A chain (see ``_chains``) is a run of adjacent levels that the cubes
    only ever hold together, such as each edge's ``t_e`` and ``d_e``: the
    DNF depends on its variables only through their AND.  So the trie holds
    each chain as its head level alone, and the fold and every OR work on
    head levels; the working store records the chains, and its compact
    copy expands each head node into its chain.
    """
    dd = Obdd(variables)
    tuples = sorted({_cube_levels(variables, cube) for cube in cubes}, reverse=True)
    if not tuples:
        return dd._compact(FALSE_NODE)
    dd._chain = _chains(tuples)
    # chain members always come together, so the tuples stay sorted and distinct
    skip = {level for below in dd._chain.values() for level in below}
    tuples = [tuple(level for level in levels if level not in skip) for levels in tuples]
    make, or_ = dd._make, dd._or
    later = tuples[0]
    acc = [FALSE_NODE] * len(later)
    # a sentinel below every level closes every open group into acc[0], the root
    for levels in tuples[1:] + [(-1,)]:
        common, stop = 0, min(len(levels), len(later))
        while common < stop and levels[common] == later[common]:
            common += 1
        if common < len(levels):
            node = TRUE_NODE
            for k in range(len(later) - 1, common - 1, -1):
                rest = acc[k]
                if rest != FALSE_NODE:
                    node = or_(node, rest)
                node = make(later[k], rest, node)
            del acc[common:]
            acc.append(node)
            acc += [FALSE_NODE] * (len(levels) - common - 1)
        else:  # levels is a prefix of later: its group is constant true
            del acc[common:]
        later = levels
    return dd._compact(acc[0])


# -- text exchange format ----------------------------------------------


def _content_lines(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        tokens = line.split()
        if tokens:
            yield lineno, tokens


def load_obdd(text: str) -> Obdd:
    """Parse the exchange format; see the module docstring for the grammar."""
    decls: dict[str, tuple[str, str, float | None]] = {}  # by name
    order_names: list[str] | None = None
    order_line = None
    lines = _content_lines(text)
    body = []  # the first line past the header, if any
    for lineno, tokens in lines:
        keyword = tokens[0]
        if keyword == "var":
            if len(tokens) == 3 and tokens[2] == DECISION:
                prob = None
            elif len(tokens) == 4 and tokens[2] == STOCHASTIC:
                try:
                    prob = float(tokens[3])
                except ValueError:
                    raise ParseError(f"bad probability {tokens[3]!r}", lineno) from None
                if not 0.0 <= prob <= 1.0:
                    raise ParseError(f"probability outside [0, 1]: {prob}", lineno)
            else:
                raise ParseError("expected 'var <name> decision|stochastic <p>'", lineno)
            if tokens[1] in decls:
                raise ParseError(f"duplicate variable {tokens[1]!r}", lineno)
            decls[tokens[1]] = (tokens[1], tokens[2], prob)
        elif keyword == "order":
            if order_names is not None:
                raise ParseError("duplicate order line", lineno)
            order_names, order_line = tokens[1:], lineno
        else:
            body = [(lineno, tokens)]
            break
    try:
        table = VariableTable(list(decls.values()), order_names)
    except ValueError as exc:
        raise ParseError(str(exc), order_line) from None
    dd = Obdd(table)
    id_map: dict[int, int] = {FALSE_NODE: FALSE_NODE, TRUE_NODE: TRUE_NODE}
    root: int | None = None

    for lineno, tokens in itertools.chain(body, lines):
        keyword = tokens[0]
        if keyword == "node":
            if len(tokens) != 5:
                raise ParseError("expected 'node <id> <varname> <lo> <hi>'", lineno)
            try:
                file_id, lo_id, hi_id = int(tokens[1]), int(tokens[3]), int(tokens[4])
            except ValueError:
                raise ParseError("node ids must be integers", lineno) from None
            if file_id < 2:
                raise ParseError("internal node ids must be >= 2", lineno)
            if file_id in id_map:
                raise ParseError(f"duplicate node id {file_id}", lineno)
            if not table.has(tokens[2]):
                raise ParseError(f"unknown variable {tokens[2]!r}", lineno)
            var = table.index(tokens[2])
            try:
                lo, hi = id_map[lo_id], id_map[hi_id]
            except KeyError as exc:
                raise ParseError(f"undefined node id {exc.args[0]}", lineno) from None
            if lo == hi:
                raise ParseError("node is not reduced (lo == hi)", lineno)
            if (table.level(var), lo, hi) in dd._unique:
                raise ParseError("duplicate node structure (var, lo, hi)", lineno)
            try:
                id_map[file_id] = dd.mk_node(var, lo, hi)
            except StructureError as exc:
                raise ParseError(str(exc), lineno) from None
        elif keyword == "root":
            if len(tokens) != 2:
                raise ParseError("expected 'root <id>'", lineno)
            if root is not None:
                raise ParseError("duplicate root line", lineno)
            try:
                root_id = int(tokens[1])
            except ValueError:
                raise ParseError("root id must be an integer", lineno) from None
            if root_id not in id_map:
                raise ParseError(f"undefined node id {root_id}", lineno)
            root = id_map[root_id]
        elif keyword == "var":
            raise ParseError("var declaration after node lines", lineno)
        elif keyword == "order":
            raise ParseError("order line after node lines", lineno)
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno)

    if root is None:
        raise ParseError("missing root line")
    return dd._compact(root)


def _canonical_ids(dd: Obdd) -> dict[int, int]:
    """Structure-only renumbering: isomorphic diagrams get identical ids."""
    canon = {FALSE_NODE: FALSE_NODE, TRUE_NODE: TRUE_NODE}
    by_level: dict[int, list[int]] = {}
    for node in dd.internal_nodes():
        by_level.setdefault(dd.level(node), []).append(node)
    next_id = 2
    for level in sorted(by_level, reverse=True):
        for node in sorted(by_level[level], key=lambda n: (canon[dd.lo(n)], canon[dd.hi(n)])):
            canon[node] = next_id
            next_id += 1
    return canon


def dump_obdd(dd: Obdd) -> str:
    """Serialize to the exchange format, children before parents.

    Node ids are renumbered canonically, so isomorphic diagrams over equal
    variable tables dump to identical text.  Variables are declared in index
    order, followed by an ``order`` line exactly when their levels differ
    from it, so ``load_obdd`` restores both.
    """
    names = dd.vars._names
    lines = [f"var {name} decision" if prob is None else f"var {name} stochastic {prob!r}"
             for name, prob in zip(names, dd.vars._probs)]
    order = dd.vars.order()
    if order != names:
        lines.append("order " + " ".join(order))
    canon = _canonical_ids(dd)
    for node in sorted((n for n in canon if n >= 2), key=canon.get):
        lines.append(
            f"node {canon[node]} {dd.vars.name(dd.var_of(node))} "
            f"{canon[dd.lo(node)]} {canon[dd.hi(node)]}"
        )
    lines.append(f"root {canon[dd.root]}")
    return "\n".join(lines) + "\n"


def dump_dot(dd: Obdd) -> str:
    """Graphviz rendering: boxes for decision nodes, circles for stochastic,
    dashed lo arcs, solid hi arcs, names escaped for DOT's quoted labels."""
    lines = ["digraph obdd {"]
    order = dd.topo_order()
    for node in order:
        if node < 2:
            lines.append(f'  n{node} [label="{node}", shape=box, peripheries=2];')
            continue
        info = dd.vars.info(dd.var_of(node))
        name = info.name.replace("\\", "\\\\").replace('"', '\\"')
        if info.kind == DECISION:
            lines.append(f'  n{node} [label="{name}", shape=box];')
        else:
            lines.append(f'  n{node} [label="{name}\\n{info.prob!r}", shape=circle];')
    for node in order:
        if node >= 2:
            lines.append(f"  n{node} -> n{dd.lo(node)} [style=dashed];")
            lines.append(f"  n{node} -> n{dd.hi(node)} [style=solid];")
    lines.append("}")
    return "\n".join(lines) + "\n"
