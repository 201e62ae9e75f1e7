"""Diagram construction, reduction rules, the OR kernel, exchange format."""

import itertools
import math
import random
import re

import pytest

import scopdd as sc
from scopdd.cli import random_model_text

from conftest import (DATA, PATH_ORDER, cube_node, dnf_truth, fold_dump, make_table, or_reference,
                      random_cubes, validate)


def small_table():
    table = sc.VariableTable()
    a = table.add_decision("a")
    b = table.add_stochastic("b", 0.5)
    c = table.add_decision("c")
    return table, a, b, c


class TestMkNode:
    def test_equal_children_collapse(self):
        table, a, b, c = small_table()
        dd = sc.Obdd(table)
        n = dd.mk_node(c, 0, 1)
        assert dd.mk_node(b, n, n) == n

    def test_hash_consing_idempotent(self):
        table, a, b, c = small_table()
        dd = sc.Obdd(table)
        assert dd.mk_node(a, 0, 1) == dd.mk_node(a, 0, 1)

    def test_order_violation_rejected(self):
        table, a, b, c = small_table()
        dd = sc.Obdd(table)
        n = dd.mk_node(a, 0, 1)
        with pytest.raises(sc.StructureError):
            dd.mk_node(c, n, 1)  # c is below a in the order

    def test_foreign_ids_rejected(self):
        table, a, b, c = small_table()
        dd = sc.Obdd(table)
        with pytest.raises(sc.StructureError):
            dd.mk_node(a, 0, 99)


class TestApply:
    """``Obdd._or``, the one kernel that combines diagrams, which
    ``from_dnf`` runs on ids its own store made."""

    def test_or_annihilator_and_identity(self):
        table, a, b, c = small_table()
        dd = sc.Obdd(table)
        x = dd.mk_node(a, 0, 1)
        assert dd._or(x, 1) == 1
        assert dd._or(x, 0) == x

    def test_or_of_cubes_matches_truth_table(self):
        # two overlapping conjunctions over six variables
        table = sc.VariableTable()
        for i in range(6):
            if i % 2 == 0:
                table.add_decision(f"d{i}")
            else:
                table.add_stochastic(f"t{i}", 0.5)
        dd = sc.Obdd(table)
        cube_a = sc.Cube.positive([0, 1])
        cube_b = sc.Cube.positive([2, 3, 4, 5])
        dd.root = dd._or(cube_node(dd, cube_a), cube_node(dd, cube_b))
        for bits in itertools.product([False, True], repeat=6):
            assignment = dict(enumerate(bits))
            expected = dnf_truth([cube_a, cube_b], assignment)
            assert dd.eval_bool(assignment) == expected

    def test_apply_order_canonical(self):
        rng = random.Random(5)
        for _ in range(30):
            table = make_table(rng, 4, 4)
            cubes = random_cubes(rng, table)
            dd = sc.Obdd(table)
            nodes = [cube_node(dd, c) for c in cubes]
            left = 0
            for n in nodes:
                left = dd._or(left, n)
            right = 0
            for n in reversed(nodes):
                right = dd._or(right, n)
            assert left == right

    def test_matches_shannon_reference(self):
        """On one store, the kernel and the test-side Shannon expansion
        return the same id for every pair drawn from a growing pool, so
        they build the same reduced diagram."""
        rng = random.Random(17)
        for _ in range(8):
            table = make_table(rng, 4, 4)
            dd, memo = sc.Obdd(table), {}
            pool = [cube_node(dd, cube) for cube in random_cubes(rng, table, max_cubes=8)]
            for _ in range(30):
                x, y = rng.choice(pool), rng.choice(pool)
                result = dd._or(x, y)
                assert result == or_reference(dd, x, y, memo)
                pool.append(result)
            dd.root = pool[-1]
            validate(dd)


def nested_cubes(rng: random.Random, table: sc.VariableTable) -> list[sc.Cube]:
    """Random cubes plus repeats of them, their level-order prefixes,
    other subsets and supersets, now and then the empty cube, shuffled."""
    cubes = random_cubes(rng, table, max_cubes=9)
    for cube in list(cubes):
        by_level = sorted(cube.vars, key=table.level)
        pick = rng.randrange(4)
        if pick == 0:
            cubes.append(cube)
        elif pick == 1 and len(by_level) > 1:
            cubes.append(sc.Cube.positive(by_level[:rng.randrange(1, len(by_level))]))
        elif pick == 2 and len(by_level) > 1:
            cubes.append(sc.Cube.positive(rng.sample(by_level, len(by_level) - 1)))
        elif pick == 3:
            extra = [v for v in range(len(table)) if v not in by_level]
            cubes.append(sc.Cube.positive(
                by_level + rng.sample(extra, min(len(extra), rng.randint(1, 2)))))
    if rng.random() < 0.1:
        cubes.append(sc.Cube.positive([]))
    rng.shuffle(cubes)
    return cubes


class TestTrieCompile:
    """``from_dnf``'s level-sorted cube trie builds the same diagram as the
    left fold, whatever the order, repeats and nesting of the cubes and
    whatever the levels of the table."""

    def _check(self, rng, table, cubes):
        expected = fold_dump(table, cubes)
        dd = sc.from_dnf(table, (cube for cube in cubes))
        validate(dd)
        assert sc.dump_obdd(dd) == expected
        assert len(dd) == len(dd.rows()) + 2  # the compact copy of the root
        shuffled = list(cubes)
        rng.shuffle(shuffled)
        assert sc.dump_obdd(sc.from_dnf(table, shuffled)) == expected

    def test_random_cubes_match_left_fold(self):
        rng = random.Random(71)
        for _ in range(120):
            table = make_table(rng, rng.randint(1, 6), rng.randint(1, 6))
            if rng.random() < 0.7:
                table, _ = with_shuffled_levels(rng, table)
            self._check(rng, table, nested_cubes(rng, table))

    def test_networks_match_left_fold(self):
        rng = random.Random(73)
        for _ in range(25):
            model = sc.parse_network(random_model_text(rng, rng.randint(3, 14)))
            if rng.random() < 0.5:
                _, order = with_shuffled_levels(rng, model.vars)
                model = sc.with_order(model, order)
            for query in model.queries:
                self._check(rng, model.vars, sc.st_path_dnf(model, query))

    def test_prefix_makes_its_group_true(self):
        # levels c < a < b: the cube {c} is a prefix of {c, a} and {c, a, b},
        # so it alone decides the group below c
        declared = [("a", sc.DECISION, None), ("b", sc.STOCHASTIC, 0.5),
                    ("c", sc.DECISION, None)]
        table = sc.VariableTable(declared, ["c", "a", "b"])
        cubes = [sc.Cube.positive(v) for v in ([2, 0, 1], [2], [2, 0], [0, 1])]
        dd = sc.from_dnf(table, cubes)
        assert sc.dump_obdd(dd) == fold_dump(table, cubes)
        rows = dd.rows()
        assert [(table.name(var), lo, hi) for _, var, lo, hi, _ in rows] == [
            ("c", rows[1][0], 1), ("a", 0, rows[2][0]), ("b", 0, 1),
        ]

    def test_empty_cube_among_others_is_true(self):
        table, a, b, c = small_table()
        cubes = [sc.Cube.positive([a, c]), sc.Cube.positive([]), sc.Cube.positive([b])]
        for order in (cubes, cubes[::-1]):
            dd = sc.from_dnf(table, order)
            assert dd.root == 1 and len(dd) == 2

    # -- chains: runs of adjacent levels that the cubes only hold together --

    @staticmethod
    def _compile_sizes(monkeypatch, table, cubes):
        """The compiled diagram and the size of the working store it was
        copied from."""
        sizes = []
        compact = sc.Obdd._compact

        def spy(dd, root):
            sizes.append(len(dd))
            return compact(dd, root)

        monkeypatch.setattr(sc.Obdd, "_compact", spy)
        dd = sc.from_dnf(table, cubes)
        return dd, sizes[-1]

    @staticmethod
    def _level_cubes(n, cubes):
        """A table of ``n`` variables whose levels follow their indices, and
        the cubes given as lists of those indices."""
        table = sc.VariableTable([(f"v{i}", sc.DECISION, None) for i in range(n)])
        return table, [sc.Cube.positive(c) for c in cubes]

    def test_chains_of_two_and_three_levels(self, monkeypatch):
        # chains (0, 1), (2, 3) and (4, 5, 6): the trie sees levels 0, 2 and
        # 4 alone, in four working nodes that expand into nine
        table, cubes = self._level_cubes(
            7, [[0, 1, 4, 5, 6], [2, 3], [0, 1, 2, 3]])
        self._check(random.Random(1), table, cubes)
        dd, working = self._compile_sizes(monkeypatch, table, cubes)
        assert (working, len(dd)) == (2 + 4, 2 + 9)

    def test_pair_held_together_in_all_cubes_but_one(self):
        # 0 and 1 meet in every cube that holds 0, but {1, 2} holds 1 alone
        for cubes in ([[0, 1, 2], [0, 1], [1, 2]], [[0, 1, 3], [1], [0, 1, 2, 3]]):
            self._check(random.Random(2), *self._level_cubes(4, cubes))

    def test_upper_level_alone_in_one_cube(self):
        # a cube holds 0 without 1, the level just below it
        for cubes in ([[0], [0, 1], [2, 3]], [[0, 1, 2], [0, 3], [0, 1, 2, 3]]):
            self._check(random.Random(3), *self._level_cubes(4, cubes))

    def test_levels_that_meet_but_are_not_adjacent(self):
        # 0 and 2 always meet, with level 1 between them
        for cubes in ([[0, 2], [1]], [[0, 2, 3], [1, 3], [1]]):
            self._check(random.Random(4), *self._level_cubes(4, cubes))

    def test_chain_head_ends_a_prefix_tuple(self):
        # chain (1, 2): with 2 dropped, the cube {0, 1, 2} folds as (0, 1),
        # a prefix of (0, 1, 3), so the head 1 closes a constant-true group
        for cubes in ([[0], [0, 1, 2], [0, 1, 2, 3]], [[0, 1, 2], [0, 1, 2, 3], [3]]):
            self._check(random.Random(5), *self._level_cubes(4, cubes))

    def test_empty_cube_among_chained_cubes(self):
        table, cubes = self._level_cubes(4, [[0, 1], [], [2, 3]])
        self._check(random.Random(6), table, cubes)
        assert len(sc.from_dnf(table, cubes)) == 2

    def test_order_splitting_pairs(self, net_model):
        # t_e and d_e apart: the order interleaves the pairs' halves
        names = [info.name for info in net_model.vars]  # t_ab, d_ab, t_ac, ...
        ts, ds = names[0::2], names[1::2]
        for order in (ts + ds, ds[::-1] + ts, [ts[0]] + ds + ts[1:]):
            model = sc.with_order(net_model, order)
            for query in model.queries:
                self._check(random.Random(7), model.vars, sc.st_path_dnf(model, query))

    def test_series_path_is_one_chain(self, monkeypatch):
        model = sc.parse_network(
            "node s\nnode a\nnode b\nnode t\nedge s a 0.5\nedge a b 0.6\n"
            "edge b t 0.7\nquery s t\nobjective maximize\n")
        cubes = sc.st_path_dnf(model, model.queries[0])
        assert [len(c.vars) for c in cubes] == [6]
        dd, working = self._compile_sizes(monkeypatch, model.vars, cubes)
        assert working == 2 + 1
        assert len(dd) == 2 + 6
        assert sc.dump_obdd(dd) == fold_dump(model.vars, cubes)
        rows = dd.rows()  # the six levels in order, each false-lo and hi to the next
        assert [model.vars.level(var) for _, var, _, _, _ in rows] == list(range(6))
        assert [(lo, hi) for _, _, lo, hi, _ in rows] == [
            (0, row[0]) for row in rows[1:]] + [(0, 1)]

    def test_random_chained_cubes_match_left_fold(self):
        """Cubes built from runs of adjacent levels, held whole or, now and
        then, with a level missing or added, over tables in random orders."""
        rng = random.Random(79)
        for _ in range(150):
            table = make_table(rng, rng.randint(1, 6), rng.randint(1, 6))
            if rng.random() < 0.5:
                table, _ = with_shuffled_levels(rng, table)
            by_level = sorted(range(len(table)), key=table.level)
            runs, at = [], 0
            while at < len(by_level):
                size = rng.randint(1, 4)
                runs.append(by_level[at:at + size])
                at += size
            cubes = []
            for _ in range(rng.randint(1, 7)):
                ids = [v for run in rng.sample(runs, rng.randint(0, len(runs))) for v in run]
                if ids and rng.random() < 0.15:
                    ids.remove(rng.choice(ids))
                elif rng.random() < 0.15:
                    ids = sorted(set(ids) | {rng.randrange(len(table))})
                cubes.append(sc.Cube.positive(ids))
            self._check(rng, table, cubes)


class TestFromDnf:
    def test_empty_disjunction_is_false(self):
        table, *_ = small_table()
        assert sc.from_dnf(table, []).root == 0

    def test_empty_conjunction_is_true(self):
        table, *_ = small_table()
        assert sc.from_dnf(table, [sc.Cube.positive([])]).root == 1

    def test_duplicate_variable_in_cube_rejected(self):
        with pytest.raises(ValueError):
            sc.Cube.positive([0, 0])

    def test_unknown_variable_rejected(self):
        table, *_ = small_table()
        with pytest.raises(sc.StructureError):
            sc.from_dnf(table, [sc.Cube.positive([17])])

    def test_semantics_match_truth_table(self):
        rng = random.Random(11)
        for _ in range(40):
            table = make_table(rng, rng.randint(1, 6), rng.randint(1, 6))
            cubes = random_cubes(rng, table)
            dd = sc.from_dnf(table, cubes)
            validate(dd)
            k = len(table)
            for bits in itertools.product([False, True], repeat=k):
                assignment = dict(enumerate(bits))
                assert dd.eval_bool(assignment) == dnf_truth(cubes, assignment)

    def test_invariants_full_scan(self):
        rng = random.Random(13)
        for _ in range(50):
            table = make_table(rng, 5, 5)
            dd = sc.from_dnf(table, random_cubes(rng, table))
            seen = set()
            for node in dd.internal_nodes():
                lo, hi = dd.lo(node), dd.hi(node)
                assert lo != hi
                assert dd.level(node) < dd.level(lo)
                assert dd.level(node) < dd.level(hi)
                triple = (dd.var_of(node), lo, hi)
                assert triple not in seen
                seen.add(triple)

    def test_path_event_structure(self, path_dd):
        # hand-derived reduced shape of the three-route connectivity event;
        # hash-consing makes the isomorphism check an id comparison
        dd = path_dd
        ix = {name: dd.vars.index(name) for name in PATH_ORDER}
        n_dab = dd.mk_node(ix["d_ab"], 0, 1)
        n_tab = dd.mk_node(ix["t_ab"], 0, n_dab)
        n_tbd = dd.mk_node(ix["t_bd"], 0, n_tab)
        n_dbd = dd.mk_node(ix["d_bd"], 0, n_tbd)
        n_dad = dd.mk_node(ix["d_ad"], n_dbd, 1)
        n_tad = dd.mk_node(ix["t_ad"], n_dbd, n_dad)
        n_tac_r = dd.mk_node(ix["t_ac"], n_tad, 1)
        n_tac_l = dd.mk_node(ix["t_ac"], 0, 1)
        n_dac_r = dd.mk_node(ix["d_ac"], n_tad, n_tac_r)
        n_dac_l = dd.mk_node(ix["d_ac"], 0, n_tac_l)
        n_dcd = dd.mk_node(ix["d_cd"], n_dac_l, n_dac_r)
        root = dd.mk_node(ix["t_cd"], n_dac_l, n_dcd)
        assert root == dd.root
        assert len(dd.internal_nodes()) == 12
        validate(dd)


def with_shuffled_levels(rng: random.Random, table: sc.VariableTable):
    """The same declarations as ``table``, levels in a random order; returns
    the new table and that order."""
    order = [info.name for info in table]
    rng.shuffle(order)
    declared = [(info.name, info.kind, info.prob) for info in table]
    return sc.VariableTable(declared, order), order


class TestLevels:
    def test_order_sets_levels_not_indices(self):
        declared = [("a", sc.DECISION, None), ("b", sc.STOCHASTIC, 0.5),
                    ("c", sc.DECISION, None)]
        table = sc.VariableTable(declared, ["c", "a", "b"])
        assert [info.name for info in table] == ["a", "b", "c"]
        assert [table.level(i) for i in range(3)] == [1, 2, 0]
        assert table.order() == ["c", "a", "b"]
        assert table != sc.VariableTable(declared)
        assert table == sc.VariableTable(declared, ["c", "a", "b"])

    def test_mk_node_compares_levels(self):
        declared = [("a", sc.DECISION, None), ("b", sc.STOCHASTIC, 0.5),
                    ("c", sc.DECISION, None)]
        dd = sc.Obdd(sc.VariableTable(declared, ["c", "a", "b"]))
        a, b, c = 0, 1, 2
        n_a = dd.mk_node(a, 0, dd.mk_node(b, 0, 1))
        assert dd.level(dd.mk_node(c, 0, n_a)) == 0
        with pytest.raises(sc.StructureError, match="does not precede"):
            dd.mk_node(a, 0, dd.mk_node(c, 0, 1))

    def test_random_levels_match_truth_table(self):
        rng = random.Random(19)
        for _ in range(40):
            table, order = with_shuffled_levels(
                rng, make_table(rng, rng.randint(1, 5), rng.randint(1, 5)))
            cubes = random_cubes(rng, table)
            dd = sc.from_dnf(table, cubes)
            validate(dd)
            levels = [dd.level(row[0]) for row in dd.rows()]
            assert levels == sorted(levels)
            for node, var, lo, hi, w in dd.rows():
                assert dd.level(node) == table.level(dd.var_of(node))
                assert (var, lo, hi) == (dd.var_of(node), dd.lo(node), dd.hi(node))
                assert table.name(var) == order[dd.level(node)]
                info = table.info(var)
                assert w == (info.prob if info.kind == sc.STOCHASTIC else None)
            for bits in itertools.product([False, True], repeat=len(table)):
                assignment = dict(enumerate(bits))
                assert dd.eval_bool(assignment) == dnf_truth(cubes, assignment)

    def test_variables_added_after_an_order(self):
        # an added variable takes the next level, below every ordered one
        declared = [("a", sc.DECISION, None), ("b", sc.STOCHASTIC, 0.5)]
        table = sc.VariableTable(declared, ["b", "a"])
        c = table.add_stochastic("c", 0.25)
        d = table.add_decision("d")
        assert (c, d) == (2, 3)
        assert [table.level(i) for i in range(4)] == [1, 0, 2, 3]
        assert table.order() == ["b", "a", "c", "d"]
        dd = sc.Obdd(table)
        n_d = dd.mk_node(d, 0, 1)
        n_c = dd.mk_node(c, n_d, 1)
        n_a = dd.mk_node(0, 0, n_c)
        root = dd.root = dd.mk_node(1, n_a, n_c)
        assert [(dd.var_of(n), dd.level(n)) for n in (n_d, n_c, n_a, root)] == \
            [(d, 3), (c, 2), (0, 1), (1, 0)]
        assert dd.rows() == [
            (root, 1, n_a, n_c, 0.5), (n_a, 0, 0, n_c, None),
            (n_c, c, n_d, 1, 0.25), (n_d, d, 0, 1, None),
        ]


def random_declarations(rng: random.Random, n: int) -> list[tuple[str, str, float | None]]:
    """``n`` valid declarations with distinct names, probabilities at and
    between the ends of [0, 1]."""
    names = [f"v{i}" for i in rng.sample(range(3 * n), n)]
    return [(name, sc.DECISION, None) if rng.random() < 0.5
            else (name, sc.STOCHASTIC, rng.choice([0.0, 1.0, rng.random()]))
            for name in names]


def added(declared) -> sc.VariableTable:
    """The declarations registered one at a time; a decision that carries a
    probability has no such call, so it goes in as stochastic."""
    table = sc.VariableTable()
    for name, kind, prob in declared:
        if kind == sc.DECISION and prob is None:
            table.add_decision(name)
        else:
            table.add_stochastic(name, prob)
    return table


def table_facts(table: sc.VariableTable):
    indices = range(len(table))
    return ([table.name(i) for i in indices], [table.info(i) for i in indices], list(table),
            [table.is_decision(i) for i in indices], table.decision_ids())


class TestVariableTable:
    """A table built in one pass agrees with one built a variable at a time,
    and raises the same errors."""

    def test_bulk_matches_one_at_a_time(self):
        rng = random.Random(29)
        for _ in range(200):
            declared = random_declarations(rng, rng.randint(0, 12))
            one_by_one = added(declared)
            table = sc.VariableTable(declared)
            assert table == one_by_one
            assert table_facts(table) == table_facts(one_by_one)
            assert [table.level(i) for i in range(len(table))] == list(range(len(table)))
            assert table.order() == [name for name, _, _ in declared]
            for i, (name, kind, prob) in enumerate(declared):
                assert table.info(i) == sc.VarInfo(i, name, kind, prob)
                assert table.index(name) == i

    def test_bulk_order_matches_its_positions(self):
        rng = random.Random(31)
        for _ in range(200):
            declared = random_declarations(rng, rng.randint(1, 12))
            order = [name for name, _, _ in declared]
            rng.shuffle(order)
            table = sc.VariableTable(declared, order)
            one_by_one = added(declared)
            assert table_facts(table) == table_facts(one_by_one)
            assert table.order() == order
            for i in range(len(table)):
                assert table.level(i) == order.index(table.name(i))
            assert (table == one_by_one) == (order == one_by_one.order())
            assert table == sc.VariableTable(declared, order)

    @pytest.mark.parametrize("bad, message", [
        (("w", sc.DECISION, None), "duplicate variable name 'w'"),
        (("w", sc.STOCHASTIC, 0.5), "duplicate variable name 'w'"),
        (("x", sc.STOCHASTIC, None), "stochastic variable 'x' needs a probability"),
        (("x", sc.STOCHASTIC, 1.5), r"probability of 'x' outside \[0, 1\]: 1.5"),
        (("x", sc.STOCHASTIC, -0.25), r"probability of 'x' outside \[0, 1\]: -0.25"),
        (("x", sc.STOCHASTIC, math.nan), r"probability of 'x' outside \[0, 1\]: nan"),
        (("x", sc.DECISION, 0.5), "decision variable 'x' cannot carry a probability"),
        (("x", "chance", None), "unknown kind 'chance' of variable 'x'"),
    ])
    def test_bad_declaration_errors(self, bad, message):
        rng = random.Random(37)
        for _ in range(20):
            declared = [("w", sc.DECISION, None)] + random_declarations(rng, rng.randint(0, 6))
            declared.insert(rng.randint(1, len(declared)), bad)
            with pytest.raises(ValueError, match=f"^{message}$"):
                sc.VariableTable(declared)
            _, kind, prob = bad
            if kind == sc.STOCHASTIC or kind == sc.DECISION and prob is None:  # one add_* call
                with pytest.raises(ValueError, match=f"^{message}$"):
                    added(declared)

    def test_first_bad_declaration_is_named(self):
        rng = random.Random(41)
        for _ in range(300):
            declared = random_declarations(rng, rng.randint(2, 10))
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(declared))
                name, kind, prob = declared[i]
                declared[i] = rng.choice([
                    (declared[rng.randrange(len(declared))][0], kind, prob),
                    (name, sc.STOCHASTIC, rng.choice([None, 2.0])),
                ])
            try:
                one_by_one = added(declared)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    sc.VariableTable(declared)
            else:  # every change happened to keep the declarations valid
                assert sc.VariableTable(declared) == one_by_one

    def test_from_levels_matches_the_constructor(self):
        """The private constructor that a parsed model's table comes from
        agrees with the constructor given the same levels as an order."""
        rng = random.Random(43)
        for _ in range(200):
            declared = random_declarations(rng, rng.randint(0, 12))
            by_level = list(range(len(declared)))
            rng.shuffle(by_level)
            names = [name for name, _, _ in declared]
            table = sc.VariableTable._from_levels(
                names, [prob for _, _, prob in declared], by_level)
            ordered = sc.VariableTable(declared, [names[index] for index in by_level])
            assert table == ordered
            assert table_facts(table) == table_facts(ordered)
            assert [table.level(i) for i in range(len(table))] == [
                ordered.level(i) for i in range(len(table))]

    def test_from_levels_names_the_first_bad_variable(self):
        rng = random.Random(47)
        checked = 0
        for _ in range(300):
            declared = random_declarations(rng, rng.randint(2, 10))
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(declared))
                name, kind, prob = declared[i]
                declared[i] = rng.choice([
                    (declared[rng.randrange(len(declared))][0], kind, prob),
                    (name, sc.STOCHASTIC, rng.choice([-0.5, 2.0, math.nan])),
                ])
            names, probs = [d[0] for d in declared], [d[2] for d in declared]
            by_level = list(range(len(declared)))
            try:
                expected = sc.VariableTable(declared)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    sc.VariableTable._from_levels(names, probs, by_level)
                checked += 1
            else:  # every change happened to keep the declarations valid
                assert sc.VariableTable._from_levels(names, probs, by_level) == expected
        assert checked > 200

    @pytest.mark.parametrize("order", [["a", "b"], ["a", "b", "c", "d"], ["a", "b", "b"],
                                       ["a", "b", "d"], []])
    def test_order_must_name_each_variable_once(self, order):
        declared = [("a", sc.DECISION, None), ("b", sc.STOCHASTIC, 0.5), ("c", sc.DECISION, None)]
        with pytest.raises(ValueError,
                           match="^order line must mention every declared variable exactly once$"):
            sc.VariableTable(declared, order)


class TestRowOrder:
    """``rows`` sort by (level, id); node ids need not follow levels in a
    hand-built store, nor below the several roots of a scratch."""

    @staticmethod
    def _random_store(rng: random.Random):
        table, _ = with_shuffled_levels(rng, make_table(rng, rng.randint(1, 5), rng.randint(1, 5)))
        dd = sc.Obdd(table)
        for _ in range(rng.randint(1, 150)):
            var = rng.randrange(len(table))
            below = [n for n in range(len(dd)) if dd.level(n) > table.level(var)]
            dd.mk_node(var, rng.choice(below), rng.choice(below))
        return dd

    @staticmethod
    def _expected(dd, roots):
        seen, stack = set(roots), list(roots)
        while stack:
            node = stack.pop()
            if node >= 2:
                for child in (dd.lo(node), dd.hi(node)):
                    if child not in seen:
                        seen.add(child)
                        stack.append(child)
        return sorted((n for n in seen if n >= 2), key=lambda n: (dd.level(n), n))

    def test_reassigned_roots(self):
        rng = random.Random(43)
        for _ in range(60):
            dd = self._random_store(rng)
            for _ in range(4):
                dd.root = rng.randrange(len(dd))
                assert [row[0] for row in dd.rows()] == self._expected(dd, [dd.root])

    def test_scratch_roots(self):
        rng = random.Random(47)
        for _ in range(60):
            dd = self._random_store(rng)
            roots = rng.sample(range(len(dd)), min(len(dd), rng.randint(2, 4)))
            scratch = sc.PropagationScratch(dd, sc.DomainState(dd.vars),
                                            [(root, 1.0) for root in roots])
            assert [row[0] for row in scratch.rows] == self._expected(dd, roots)


class TestCompactStore:
    """Compiled and loaded stores hold exactly the nodes reachable from the
    root, and compaction changes no structure: a raw store that ORs the same
    cubes through the test-side Shannon expansion dumps to the same text."""

    def _check_against_raw(self, model, query):
        cubes = sc.st_path_dnf(model, query)
        dd = sc.from_dnf(model.vars, cubes)
        assert len(dd) == len(dd.internal_nodes()) + 2
        assert sc.dump_obdd(dd) == fold_dump(model.vars, cubes)

    def test_compiled_store_is_reachable_part(self, net_model, ordered_model):
        for model in (net_model, ordered_model):
            for query in model.queries:
                self._check_against_raw(model, query)
        rng = random.Random(61)
        for _ in range(25):
            model = sc.parse_network(random_model_text(rng, rng.randint(5, 11)))
            for query in model.queries:
                self._check_against_raw(model, query)

    def test_path_fixture_is_compact(self, path_dd):
        assert len(path_dd) == len(path_dd.internal_nodes()) + 2 == 14

    def test_load_drops_unreachable_node(self):
        text = (DATA / "forced_choice.obdd").read_text()
        extra = text.replace("root 7", "node 8 x 3 1  # reached from no root\nroot 7")
        assert extra != text
        dd = sc.load_obdd(extra)
        assert len(dd) == len(dd.internal_nodes()) + 2 == 8
        assert sc.dump_obdd(dd) == sc.dump_obdd(sc.load_obdd(text))


class TestTopoOrder:
    def test_single_node_diagram(self):
        table, a, b, c = small_table()
        dd = sc.Obdd(table)
        dd.root = dd.mk_node(a, 0, 1)
        assert dd.topo_order() == (dd.root, 0, 1)

    def test_parents_before_children(self):
        rng = random.Random(3)
        for _ in range(30):
            table = make_table(rng, 5, 5)
            dd = sc.from_dnf(table, random_cubes(rng, table))
            order = dd.topo_order()
            position = {n: i for i, n in enumerate(order)}
            for node in dd.internal_nodes():
                assert position[node] < position[dd.lo(node)]
                assert position[node] < position[dd.hi(node)]
            # reversed order puts children before parents
            rev = {n: i for i, n in enumerate(reversed(order))}
            for node in dd.internal_nodes():
                assert rev[dd.lo(node)] < rev[node]
                assert rev[dd.hi(node)] < rev[node]

    def test_deterministic_and_root_first(self, path_dd):
        order = path_dd.topo_order()
        assert order == path_dd.topo_order()
        assert order[0] == path_dd.root
        assert path_dd.vars.name(path_dd.var_of(order[0])) == "t_cd"


class TestExchangeFormat:
    def test_round_trip_isomorphic(self, path_dd):
        text = sc.dump_obdd(path_dd)
        again = sc.load_obdd(text)
        assert sc.dump_obdd(again) == text
        assert again.vars == path_dd.vars
        assert len(again.internal_nodes()) == len(path_dd.internal_nodes())

    def test_round_trip_random(self):
        rng = random.Random(21)
        for _ in range(30):
            table = make_table(rng, 4, 4)
            dd = sc.from_dnf(table, random_cubes(rng, table))
            text = sc.dump_obdd(dd)
            assert sc.dump_obdd(sc.load_obdd(text)) == text

    def test_order_line_exactly_when_levels_differ(self):
        rng = random.Random(23)
        for _ in range(30):
            plain = make_table(rng, 3, 3)
            table, order = with_shuffled_levels(rng, plain)
            cubes = random_cubes(rng, table)
            for vt, lines in ((plain, []), (table, ["order " + " ".join(order)])):
                text = sc.dump_obdd(sc.from_dnf(vt, cubes))
                if vt.order() == [info.name for info in vt]:
                    lines = []
                assert [line for line in text.splitlines()
                        if line.startswith("order ")] == lines
                again = sc.load_obdd(text)
                assert again.vars == vt
                assert sc.dump_obdd(again) == text

    def test_forced_choice_file_shape(self, choice):
        assert len(choice.dd.internal_nodes()) == 6
        assert choice.vt.info(choice.vt.index("r")).prob == 0.9
        assert [i.name for i in choice.vt] == ["r", "x", "y", "s", "t"]

    def test_unknown_child_id(self):
        text = "var a decision\nnode 2 a 0 9\nroot 2\n"
        with pytest.raises(sc.ParseError, match="line 2"):
            sc.load_obdd(text)

    def test_duplicate_node_id(self):
        text = "var a decision\nnode 2 a 0 1\nnode 2 a 1 0\nroot 2\n"
        with pytest.raises(sc.ParseError, match="duplicate node id"):
            sc.load_obdd(text)

    def test_probability_out_of_range(self):
        with pytest.raises(sc.ParseError, match="line 1"):
            sc.load_obdd("var a stochastic 1.5\nroot 1\n")

    def test_unreduced_node_rejected(self):
        text = "var a decision\nnode 2 a 1 1\nroot 2\n"
        with pytest.raises(sc.ParseError, match="not reduced"):
            sc.load_obdd(text)

    @pytest.mark.parametrize("order", ["", "order b a\n"])
    def test_duplicate_structure_rejected(self, order):
        header = f"var a decision\nvar b stochastic 0.5\n{order}"
        # with the order line, a's index is b's level and b's index a's
        dd = sc.load_obdd(header + "node 2 a 0 1\nnode 3 b 0 1\nroot 3\n")
        assert len(dd) == 3
        for var in "ab":
            text = header + f"node 2 {var} 0 1\nnode 3 {var} 0 1\nroot 3\n"
            line = text.count("\n") - 1
            with pytest.raises(sc.ParseError, match=f"line {line}: duplicate node structure"):
                sc.load_obdd(text)

    def test_order_violation_named_line(self):
        text = (
            "var a decision\nvar b decision\n"
            "node 2 a 0 1\nnode 3 b 0 2\nroot 3\n"
        )
        with pytest.raises(sc.ParseError, match="line 4"):
            sc.load_obdd(text)

    def test_order_line_applies(self):
        text = (
            "var a decision\nvar b stochastic 0.25\norder b a\n"
            "node 2 a 0 1\nnode 3 b 0 2\nroot 3\n"
        )
        dd = sc.load_obdd(text)
        assert dd.vars.order() == ["b", "a"]
        assert [i.name for i in dd.vars] == ["a", "b"]

    def test_bad_order_line_named_at_its_line(self):
        text = "var a decision\nvar b decision\norder a\nnode 2 a 0 1\nroot 2\n"
        with pytest.raises(sc.ParseError, match="line 3: order line must mention every"):
            sc.load_obdd(text)

    @pytest.mark.parametrize("order", ["a", "a a", "a b b", "a c", "b a c"])
    def test_order_must_name_each_variable_once(self, order):
        text = f"var a decision\nvar b stochastic 0.5\norder {order}\nroot 0\n"
        with pytest.raises(sc.ParseError, match="every declared variable exactly once"):
            sc.load_obdd(text)

    def test_duplicate_var_line(self):
        text = "var a decision\nvar b decision\nvar a stochastic 0.5\nroot 0\n"
        with pytest.raises(sc.ParseError, match="line 3: duplicate variable 'a'"):
            sc.load_obdd(text)

    def test_missing_root(self):
        with pytest.raises(sc.ParseError, match="root"):
            sc.load_obdd("var a decision\nnode 2 a 0 1\n")

    def test_terminal_root(self):
        dd = sc.load_obdd("var a decision\nroot 0\n")
        assert dd.root == 0
        assert sc.load_obdd(sc.dump_obdd(dd)).root == 0

    def test_unknown_directive(self):
        with pytest.raises(sc.ParseError, match="unknown directive"):
            sc.load_obdd("frobnicate 1 2\n")


class TestDot:
    def test_styles(self, choice):
        dot = sc.dump_dot(choice.dd)
        assert "style=dashed" in dot and "style=solid" in dot
        assert 'label="x", shape=box' in dot
        assert "shape=circle" in dot
        assert dot.startswith("digraph")
