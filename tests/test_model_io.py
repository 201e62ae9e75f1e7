"""Problem file parsing, path enumeration, and problem assembly."""

import itertools
import math
import random
from dataclasses import replace

import pytest

import scopdd as sc
from scopdd.cli import random_model_text

from conftest import (complete_graph_text, dnf_truth, format_model, reference_rule_edge_order,
                      unordered_dump)


def cube_names(model, cube):
    return frozenset(model.vars.name(v) for v in cube.vars)


class TestParseNetwork:
    def test_four_node_fixture(self, net_model):
        assert net_model.network.nodes == ["a", "b", "c", "d"]
        assert [e.prob for e in net_model.network.edges] == [0.7, 0.4, 0.8, 0.5, 0.1]
        assert [(q.source, q.target, q.reward) for q in net_model.queries] == [
            ("a", "c", 1.0),
            ("a", "d", 1.0),
        ]
        assert net_model.cardinality == 2
        assert net_model.maximize is True
        # default order interleaves t before d per declared edge
        assert [i.name for i in net_model.vars][:4] == ["t_ab", "d_ab", "t_ac", "d_ac"]

    def test_empty_file(self):
        with pytest.raises(sc.ParseError, match="no nodes"):
            sc.parse_network("")

    def test_unknown_node_in_edge(self):
        with pytest.raises(sc.ParseError, match="line 2"):
            sc.parse_network("node a\nedge a z 0.5\nconstraint >= 0.1\n")

    def test_unknown_node_in_query(self):
        text = "node a\nnode b\nedge a b 0.5\nquery a z\nconstraint >= 0.1\n"
        with pytest.raises(sc.ParseError, match="unknown node 'z'"):
            sc.parse_network(text)

    def test_probability_out_of_range(self):
        with pytest.raises(sc.ParseError, match="outside"):
            sc.parse_network("node a\nnode b\nedge a b 1.2\n")

    def test_self_loop(self):
        with pytest.raises(sc.ParseError, match="self-loop"):
            sc.parse_network("node a\nedge a a 0.5\n")

    def test_duplicate_edge_either_orientation(self):
        text = "node a\nnode b\nedge a b 0.5\nedge b a 0.3\n"
        with pytest.raises(sc.ParseError, match="duplicate edge"):
            sc.parse_network(text)

    @pytest.mark.parametrize("lines, line, message", [
        (["edge a b p"], 3, "bad probability 'p'"),
        (["edge a b 1.5"], 3, r"probability outside \[0, 1\]: 1.5"),
        (["edge a b 0.5", "edge b a 0.3"], 4, "duplicate edge 'b'-'a'"),
        (["# a comment line", "", "edge a b 0.5  # a trailing comment", "edge b a 0.3"], 6,
         "duplicate edge 'b'-'a'"),
        (["edge a b nan"], 3, "probability outside"),
    ])
    def test_edge_errors_name_their_line(self, lines, line, message):
        text = "\n".join(["node a", "node b", *lines, "query a b", "objective maximize"]) + "\n"
        with pytest.raises(sc.ParseError, match=f"^line {line}: {message}") as raised:
            sc.parse_network(text)
        assert raised.value.line == line

    def test_duplicate_cardinality(self):
        text = (
            "node a\nnode b\nedge a b 0.5\nquery a b\n"
            "cardinality <= 1\ncardinality <= 2\nobjective maximize\n"
        )
        with pytest.raises(sc.ParseError, match="duplicate cardinality"):
            sc.parse_network(text)

    def test_objective_and_constraint_conflict(self):
        text = (
            "node a\nnode b\nedge a b 0.5\nquery a b\n"
            "objective maximize\nconstraint >= 0.2\n"
        )
        with pytest.raises(sc.ParseError, match="duplicate objective/constraint"):
            sc.parse_network(text)

    def test_goal_required(self):
        with pytest.raises(sc.ParseError, match="exactly one"):
            sc.parse_network("node a\nnode b\nedge a b 0.5\nquery a b\n")

    def test_unknown_directive(self):
        with pytest.raises(sc.ParseError, match="unknown directive"):
            sc.parse_network("node a\nwibble\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_rejected(self, value):
        # with a NaN threshold this disconnected query used to read as sat
        text = f"node a\nnode b\nnode c\nedge a b 0.5\nquery a c\nconstraint >= {value}\n"
        with pytest.raises(sc.ParseError, match="line 6: threshold must be finite"):
            sc.parse_network(text)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_reward_rejected(self, value):
        # an infinite reward used to make the optimization loop forever
        text = f"node a\nnode b\nedge a b 0.5\nquery a b reward {value}\nobjective maximize\n"
        with pytest.raises(sc.ParseError, match="line 4: reward must be finite"):
            sc.parse_network(text)

    def test_reward_defaults_to_one(self):
        text = "node a\nnode b\nedge a b 0.5\nquery a b\nobjective maximize\n"
        model = sc.parse_network(text)
        assert model.queries[0].reward == 1.0

    def test_round_trip(self, four_node_text):
        model = sc.parse_network(four_node_text)
        again = sc.parse_network(format_model(model))
        assert again == model

    def test_round_trip_with_order(self, net_model):
        from conftest import PATH_ORDER

        ordered = sc.with_order(net_model, PATH_ORDER)
        again = sc.parse_network(format_model(ordered))
        assert again == ordered
        assert again.vars.order() == PATH_ORDER

    def test_order_directive_in_file(self):
        text = (
            "node a\nnode b\nedge a b 0.5\nquery a b\nobjective maximize\n"
            "order d_ab t_ab\n"
        )
        model = sc.parse_network(text)
        assert model.vars.order() == ["d_ab", "t_ab"]
        assert [i.name for i in model.vars] == ["t_ab", "d_ab"]

    def test_order_must_cover_all(self):
        text = (
            "node a\nnode b\nedge a b 0.5\nquery a b\nobjective maximize\n"
            "order t_ab\n"
        )
        with pytest.raises(sc.ParseError, match="every edge variable"):
            sc.parse_network(text)

    @pytest.mark.parametrize("order", ["t_ab t_ab", "t_ab d_ab d_ab", "d_ab t_ab t_ba"])
    def test_order_must_name_each_variable_once(self, order):
        text = (
            "node a\nnode b\nedge a b 0.5\nquery a b\nobjective maximize\n"
            f"order {order}\n"
        )
        with pytest.raises(sc.ParseError, match="line 6: order line must mention every edge"):
            sc.parse_network(text)
        model = sc.parse_network(text.rsplit("order", 1)[0])
        with pytest.raises(sc.ParseError, match="every edge variable exactly once"):
            sc.with_order(model, order.split())

    def test_edge_name_collision_names_its_line(self):
        # edges a-bc and ab-c would both make t_abc
        text = (
            "node a\nnode bc\nnode ab\nnode c\n"
            "edge a bc 0.5\nedge ab c 0.5\nquery a c\nobjective maximize\n"
        )
        with pytest.raises(sc.ParseError, match="line 6: edge variable names collide"):
            sc.parse_network(text)

    def test_order_rule_agrees_across_formats(self):
        rng = random.Random(47)
        for _ in range(25):
            text = random_model_text(rng, rng.randint(1, 8))
            model = sc.parse_network(text)
            order = [i.name for i in model.vars]
            rng.shuffle(order)
            order_line = "order " + " ".join(order)
            ordered = sc.with_order(model, order)
            parsed = sc.parse_network(text + order_line + "\n")
            assert ordered == parsed
            # a diagram file declaring its variables in edge order, with the
            # same order line, gives them the same levels
            query = ordered.queries[0]
            dump = sc.dump_obdd(sc.from_dnf(ordered.vars, sc.st_path_dnf(ordered, query)))
            var_lines = [line for line in dump.splitlines() if line.startswith("var ")]
            body = [line for line in dump.splitlines()
                    if not line.startswith(("var ", "order "))]
            dd = sc.load_obdd("\n".join(var_lines + [order_line] + body) + "\n")
            assert dd.vars.order() == order
            assert dd.vars == ordered.vars
            assert sc.dump_obdd(dd) == dump


def direct_model(edges, order=None):
    """A model built from its parts, not parsed; the first node queries the last."""
    nodes = list(dict.fromkeys(name for u, v, _ in edges for name in (u, v)))
    network = sc.ProbNetwork(nodes, [sc.Edge(*edge) for edge in edges])
    return sc.ParsedModel(network, [sc.Query(nodes[0], nodes[-1])], theta=0.0, order=order)


class TestTableChecks:
    """A model's variable table checks its probabilities and names whether
    or not the model came from a file."""

    @pytest.mark.parametrize("prob, shown", [(1.5, "1.5"), (-0.25, "-0.25"), (math.nan, "nan")])
    def test_probability_outside_the_unit_interval(self, prob, shown):
        edges = [("a", "b", 0.5), ("b", "c", prob), ("a", "c", 0.5)]
        message = rf"^probability of 't_bc' outside \[0, 1\]: {shown}$"
        with pytest.raises(sc.ParseError, match=message):
            direct_model(edges)
        with pytest.raises(sc.ParseError, match=message):
            direct_model(edges, order=["t_ab", "d_ab", "t_bc", "d_bc", "t_ac", "d_ac"])

    def test_missing_probability(self):
        message = "^stochastic variable 't_bc' needs a probability$"
        with pytest.raises(sc.ParseError, match=message):
            direct_model([("a", "b", 0.5), ("b", "c", None)])

    def test_colliding_names(self):
        # edges a-bc and ab-c both make t_abc and d_abc
        with pytest.raises(sc.ParseError, match="^duplicate variable name 't_abc'$"):
            direct_model([("a", "bc", 0.5), ("bc", "ab", 0.5), ("ab", "c", 0.5)])

    def test_first_bad_edge_is_named(self):
        with pytest.raises(sc.ParseError, match="^duplicate variable name 't_abc'$"):
            direct_model([("a", "bc", 0.5), ("ab", "c", 0.5), ("a", "c", 2.0)])
        with pytest.raises(sc.ParseError, match=r"^probability of 't_ac' outside \[0, 1\]: 2.0$"):
            direct_model([("a", "bc", 0.5), ("a", "c", 2.0), ("ab", "c", 0.5)])

    @pytest.mark.parametrize("order", ["t_ab d_ab t_bc", "t_ab d_ab t_bc d_bc d_bc",
                                       "t_ab d_ab t_bc t_bc"])
    def test_order_line_missing_or_repeating_a_name(self, order):
        text = ("node a\nnode b\nnode c\nedge a b 0.5\nedge b c 0.5\n"
                f"order {order}\nquery a c\nobjective maximize\n")
        message = "^line 6: order line must mention every edge variable exactly once$"
        with pytest.raises(sc.ParseError, match=message):
            sc.parse_network(text)

    def test_model_without_a_query(self):
        network = sc.ProbNetwork(["a", "b"], [sc.Edge("a", "b", 0.5)])
        with pytest.raises(sc.ParseError, match="^no query declared$"):
            sc.ParsedModel(network, [], maximize=True)

    def test_query_naming_an_unknown_node(self):
        network = sc.ProbNetwork(["a", "b"], [sc.Edge("a", "b", 0.5)])
        for queries in ([sc.Query("zz", "a")], [sc.Query("a", "b"), sc.Query("b", "zz")]):
            with pytest.raises(sc.ParseError, match="^unknown node 'zz'$"):
                sc.ParsedModel(network, queries, maximize=True)


class TestReplace:
    """``dataclasses.replace`` derives the variable table and the adjacency
    again, as parsing the edited file would."""

    TEXT = (
        "node a\nnode b\nnode c\nnode d\n"
        "edge a b 0.5\nedge b c 0.6\nedge c d 0.7\n"
        "query a d\nquery d b\nobjective maximize\n"
    )

    def test_queries_with_another_first_source(self):
        model = sc.parse_network(self.TEXT)
        edited = sc.parse_network(self.TEXT.replace("query a d\n", "") + "query a d\n")
        # the order rule starts at the first query's source: a, then d
        assert model.vars.order()[:2] == ["t_ab", "d_ab"]
        assert edited.vars.order()[:2] == ["t_cd", "d_cd"]
        replaced = replace(model, queries=edited.queries)
        assert replaced == edited
        assert replaced.vars.order() == edited.vars.order()
        assert replaced.adjacency == edited.adjacency

    def test_network_with_another_edge(self):
        model = sc.parse_network(self.TEXT)
        query = sc.Query("a", "c")
        assert len(sc.st_path_dnf(model, query)) == 1
        edges = [*model.network.edges, sc.Edge("a", "c", 0.9)]
        wider = replace(model, network=sc.ProbNetwork(model.network.nodes, edges))
        edited = sc.parse_network(self.TEXT.replace("0.7\n", "0.7\nedge a c 0.9\n"))
        assert wider == edited
        assert wider.adjacency == edited.adjacency
        assert {cube_names(wider, c) for c in sc.st_path_dnf(wider, query)} == {
            frozenset({"t_ab", "d_ab", "t_bc", "d_bc"}),
            frozenset({"t_ac", "d_ac"}),
        }


class TestOrderRule:
    def test_maximum_adjacency_edge_levels(self):
        # ranks from s: s 0; then a, b and c each have one ranked neighbour,
        # and b and c fewer neighbours than a, and b is declared first: b 1;
        # a now has two ranked neighbours: a 2; c and t tie on one ranked
        # neighbour and two neighbours, and c is declared first: c 3; d
        # before t the same way: d 4, t 5.  x, y and z are unreached.  A
        # breadth-first search over the edges as declared ranks s a b c t d.
        text = (
            "node s\nnode a\nnode b\nnode c\nnode d\nnode t\nnode x\nnode y\nnode z\n"
            "edge s a 0.5\nedge s b 0.5\nedge y z 0.5\nedge s c 0.5\nedge a b 0.5\n"
            "edge c d 0.5\nedge a t 0.5\nedge x y 0.5\nedge d t 0.5\n"
            "query s t\nconstraint >= 0\n"
        )
        model = sc.parse_network(text)
        assert model.order is None
        # edges by (earlier rank, later rank): s-b (0, 1), s-a (0, 2),
        # s-c (0, 3), a-b (1, 2), a-t (2, 5), c-d (3, 4), d-t (4, 5); keyed
        # by the later rank, a-b would come before s-c and c-d before a-t;
        # then the unreached edges y-z and x-y as declared
        assert model.vars.order() == [
            "t_sb", "d_sb", "t_sa", "d_sa", "t_sc", "d_sc", "t_ab", "d_ab", "t_at", "d_at",
            "t_cd", "d_cd", "t_dt", "d_dt", "t_yz", "d_yz", "t_xy", "d_xy",
        ]
        # indices stay in declaration order
        assert [info.name for info in model.vars][:6] == ["t_sa", "d_sa", "t_sb", "d_sb",
                                                          "t_yz", "d_yz"]
        for i, edge in enumerate(model.network.edges):
            assert model.vars.name(2 * i) == f"t_{edge.u}{edge.v}"
            assert model.vars.name(2 * i + 1) == f"d_{edge.u}{edge.v}"
            # each edge's t sits just above its d
            assert model.vars.level(2 * i + 1) == model.vars.level(2 * i) + 1
        assert sc.parse_network(format_model(model)) == model

    def test_kept_part_keeps_the_whole_network_order(self):
        """Ranking the kept part alone gives the kept edges the relative
        order of the rule over the whole network, puts every other edge
        last, as declared, and leaves every query's diagram unchanged."""
        rng = random.Random(89)
        stripped = unreached = 0
        for _ in range(60):
            model = sc.parse_network(pendant_network_text(rng))
            edges = model.network.edges
            ref = reference_rule_edge_order(model)
            got = [model.vars.index(name) // 2 for name in model.vars.order()[::2]]
            kept = {i for i, (u, v, _) in enumerate(edges) if u in model.kept and v in model.kept}
            assert [i for i in got if i in kept] == [i for i in ref if i in kept]
            reached = component(model, model.queries[0].source)
            head = [i for i in ref if i in kept and edges[i].u in reached]
            assert got[:len(head)] == head
            assert got[len(head):] == sorted(got[len(head):])
            ref_model = sc.with_order(model, [f"{kind}_{edges[i].u}{edges[i].v}"
                                              for i in ref for kind in "td"])
            for query in model.queries:
                dd = sc.from_dnf(model.vars, sc.st_path_dnf(model, query))
                ref_dd = sc.from_dnf(ref_model.vars, sc.st_path_dnf(ref_model, query))
                assert unordered_dump(dd) == unordered_dump(ref_dd)
            stripped += bool(model.hang)
            unreached += len(reached) < len(model.network.nodes)
        assert stripped > 50 and unreached > 20

    def test_same_events_as_declaration_order(self):
        rng = random.Random(71)
        for _ in range(30):
            model = sc.parse_network(random_model_text(rng, rng.randint(1, 8)))
            plain = sc.with_order(model, [info.name for info in model.vars])
            for query in model.queries:
                dd = sc.from_dnf(model.vars, sc.st_path_dnf(model, query))
                ref = sc.from_dnf(plain.vars, sc.st_path_dnf(plain, query))
                for bits in itertools.product([False, True], repeat=len(model.vars)):
                    assignment = dict(enumerate(bits))
                    assert dd.eval_bool(assignment) == ref.eval_bool(assignment)
                for _ in range(10):
                    fixed = {var: rng.random() < 0.5 for var in model.vars.decision_ids()
                             if rng.random() < 0.5}
                    assert sc.evaluate(dd, sc.DomainState(model.vars, fixed)) == pytest.approx(
                        sc.evaluate(ref, sc.DomainState(plain.vars, fixed)), abs=1e-12)

    def test_same_search_as_declaration_order(self):
        """The search reads drops and bounds only through tests that keep
        ``THRESHOLD_EPS`` of slack, and drops within it tie to the lowest
        index, so rounding that depends on the level order never picks a
        branch or a prune: both orders run the same search on every input,
        also with ``delta=0``.  With probabilities k/8 every path weight,
        value and drop is a multiple of 2**-36 below 2**14, so both orders
        compute them exactly and the optima agree bit for bit."""
        rng = random.Random(73)
        for _ in range(80):
            n = rng.randint(3, 12)
            text = random_model_text(rng, n)
            dyadic = rng.random() < 0.5
            if dyadic:
                text = "".join(
                    f"{line.rsplit(' ', 1)[0]} {rng.randint(1, 7) / 8}\n"
                    if line.startswith("edge ") else line + "\n"
                    for line in text.splitlines())
            model = sc.parse_network(text)
            plain = sc.with_order(model, [info.name for info in model.vars])
            cardinality = rng.randint(1, n) if rng.random() < 0.7 else None
            maximize, fraction = rng.random() < 0.5, rng.uniform(0.2, 0.9)
            runs = []
            for m in (model, plain):
                problem = sc.build_problem(m)
                problem.cardinality = cardinality
                terms = problem.constraints[0].terms
                if maximize:
                    problem = sc.Problem(m.vars, [], cardinality, objective=terms)
                    runs.append([sc.solve_opt(problem), sc.solve_opt(problem, delta=0.0)])
                else:
                    problem.constraints[0].theta = fraction * sum(
                        t.reward * sc.evaluate(t.obdd, sc.DomainState(m.vars)) for t in terms)
                    strategy, stats = sc.solve_sat(problem)
                    runs.append([(strategy, None, stats)])
            for (strategy, value, stats), (ref_strategy, ref_value, ref_stats) in zip(*runs):
                assert strategy == ref_strategy
                assert (stats.nodes_expanded, stats.backtracks, stats.incumbents) == (
                    ref_stats.nodes_expanded, ref_stats.backtracks, ref_stats.incumbents)
                if maximize:
                    assert value == pytest.approx(ref_value, abs=1e-12)
                    if dyadic:
                        assert value == ref_value


class TestPathEnumeration:
    def test_three_route_event(self, net_model):
        cubes = sc.st_path_dnf(net_model, net_model.queries[0])
        got = {cube_names(net_model, c) for c in cubes}
        assert got == {
            frozenset({"d_ac", "t_ac"}),
            frozenset({"d_ad", "t_ad", "d_cd", "t_cd"}),
            frozenset({"d_ab", "t_ab", "d_bd", "t_bd", "d_cd", "t_cd"}),
        }

    def test_adjacent_nodes_single_cube(self):
        model = sc.parse_network(
            "node a\nnode b\nedge a b 0.5\nquery a b\nobjective maximize\n"
        )
        cubes = sc.st_path_dnf(model, model.queries[0])
        assert [cube_names(model, c) for c in cubes] == [frozenset({"d_ab", "t_ab"})]

    def test_disconnected_is_empty(self):
        model = sc.parse_network(
            "node a\nnode b\nnode z\nedge a b 0.5\nquery a z\nobjective maximize\n"
        )
        assert sc.st_path_dnf(model, model.queries[0]) == []
        dd = sc.from_dnf(model.vars, [])
        assert dd.root == 0

    def test_path_cap(self):
        # K9 has 1 + 7 + 7*6 + ... + 7! = 13,700 simple paths between two vertices
        model = sc.parse_network(complete_graph_text(9))
        assert sc.model_io.PATH_CAP == 10000
        with pytest.raises(sc.CapacityError,
                           match="^more than 10000 simple paths from 'v0' to 'v1'$"):
            sc.st_path_dnf(model, model.queries[0])

    def test_paths_are_simple_and_sound(self, net_model):
        # independent enumerator: try every permutation of intermediate nodes
        network = net_model.network
        edge_probs = {e.key(): e.prob for e in network.edges}

        def brute_paths(source, target):
            found = set()
            others = [n for n in network.nodes if n not in (source, target)]
            for r in range(len(others) + 1):
                for mid in itertools.permutations(others, r):
                    chain = [source, *mid, target]
                    keys = [
                        frozenset((u, v)) for u, v in zip(chain, chain[1:])
                    ]
                    if all(k in edge_probs for k in keys):
                        found.add(frozenset(keys))
            return found

        for query in net_model.queries:
            cubes = sc.st_path_dnf(net_model, query)
            got = set()
            for cube in cubes:
                names = [net_model.vars.name(v) for v in cube.vars]
                edges = frozenset(
                    frozenset((n[2], n[3])) for n in names if n.startswith("t_")
                )
                got.add(edges)
            assert got == brute_paths(query.source, query.target)

    def test_compiled_event_matches_reachability(self):
        model = sc.parse_network(
            "node a\nnode b\nnode c\n"
            "edge a b 0.5\nedge b c 0.5\nedge a c 0.5\n"
            "query a c\nobjective maximize\n"
        )
        cubes = sc.st_path_dnf(model, model.queries[0])
        dd = sc.from_dnf(model.vars, cubes)
        for bits in itertools.product([False, True], repeat=len(model.vars)):
            assignment = dict(enumerate(bits))
            assert dd.eval_bool(assignment) == dnf_truth(cubes, assignment)

    def test_chain_longer_than_recursion_limit(self):
        n = 1200
        lines = [f"node v{i}" for i in range(n + 1)]
        lines += [f"edge v{i} v{i + 1} 0.9" for i in range(n)]
        lines += [f"query v0 v{n}", "constraint >= 0"]
        problem = sc.build_problem(sc.parse_network("\n".join(lines) + "\n"))
        assert len(problem.constraints[0].terms[0].obdd.internal_nodes()) == 2 * n
        strategy, _ = sc.solve_sat(problem)
        assert strategy == {v: True for v in problem.vars.decision_ids()}

    def test_cycle_apply_deeper_than_recursion_limit(self):
        # two 500-edge routes: OR-ing their cubes descends 2,000 levels in
        # the OR kernel, in declaration order, where each route is one block
        n = 1000
        lines = [f"node v{i}" for i in range(n)]
        lines += [f"edge v{i} v{(i + 1) % n} 0.9" for i in range(n)]
        lines += ["query v0 v500", "constraint >= 0.0"]
        lines += ["order " + " ".join(
            f"{kind}_v{i}v{(i + 1) % n}" for i in range(n) for kind in "td")]
        problem = sc.build_problem(sc.parse_network("\n".join(lines) + "\n"))
        assert len(problem.constraints[0].terms[0].obdd.internal_nodes()) == 2 * n
        strategy, _ = sc.solve_sat(problem)
        assert strategy is not None

    def test_cube_order_matches_recursive_walk(self):
        rng = random.Random(61)
        for _ in range(60):
            model = sc.parse_network(random_model_text(rng, rng.randint(1, 10)))
            for query in model.queries:
                assert sc.st_path_dnf(model, query) == recursive_cubes(model, query)

    def test_cubes_match_checked_cubes(self):
        """``st_path_dnf`` builds each cube without ``Cube``'s check, since a
        simple path's edges are distinct; each equals ``Cube.positive`` of
        its path's variables, in the same order."""
        rng = random.Random(83)
        for _ in range(60):
            model = sc.parse_network(random_model_text(rng, rng.randint(1, 12)))
            for query in model.queries:
                cubes = sc.st_path_dnf(model, query)
                assert cubes == [sc.Cube.positive(var for i in path for var in (2 * i, 2 * i + 1))
                                 for path in recursive_paths(model, query)]

    def test_dead_ends_change_no_cube(self):
        """Trees with two chords are mostly dead ends: the walk that skips
        them finds the cubes of the walk over the whole tree, in its order."""
        rng = random.Random(67)
        for _ in range(40):
            n = rng.randint(8, 60)
            nodes = [f"v{i}" for i in range(n + 1)]
            pairs = {(nodes[rng.randrange(i)], nodes[i]) for i in range(1, n + 1)}
            while len(pairs) < n + 2:
                u, v = rng.sample(nodes, 2)
                if (v, u) not in pairs:
                    pairs.add((u, v))
            lines = [f"node {name}" for name in nodes]
            lines += [f"edge {u} {v} 0.5" for u, v in sorted(pairs)]
            lines += [f"query {s} {t}" for s, t in (rng.sample(nodes, 2) for _ in range(2))]
            model = sc.parse_network("\n".join(lines + ["constraint >= 0"]) + "\n")
            degree = {name: 0 for name in nodes}
            for edge in model.network.edges:
                degree[edge.u] += 1
                degree[edge.v] += 1
            assert sum(d == 1 for d in degree.values()) > 2
            for query in model.queries:
                assert sc.st_path_dnf(model, query) == recursive_cubes(model, query)

    def test_queries_off_the_model(self):
        """A query that is not among the model's, with endpoints deep in a
        stripped tree, in a tree component that holds no query of the
        model, or in two components, walks the kept part and its endpoints'
        hang-from chains: the cubes of the walk over the whole network, in
        its order."""
        rng = random.Random(97)
        deep = tree_only = apart = 0
        for _ in range(40):
            model = sc.parse_network(pendant_network_text(rng))
            nodes = model.network.nodes
            stripped = list(model.hang)
            for _ in range(12):
                source = rng.choice(stripped if stripped and rng.random() < 0.8 else nodes)
                reach = component(model, source)
                near = sorted(reach - {source}) if rng.random() < 0.5 else []
                target = rng.choice(near or [name for name in nodes if name != source])
                query = sc.Query(source, target)
                assert sc.st_path_dnf(model, query) == recursive_cubes(model, query)
                deep += hang_depth(model, source) >= 3
                tree_only += target in reach and all(name in model.hang for name in reach)
                apart += target not in reach
        assert deep > 50 and tree_only > 10 and apart > 50

    def test_path_cap_from_a_stripped_tree(self):
        # K9 with a pendant path on v0 and one on v1: the 13,700 simple
        # paths between v0 and v1 extend to the paths' far ends
        text = complete_graph_text(9).replace("query v0 v1\n", "")
        text += "".join(f"node {side}{k}\n" for side in "pq" for k in range(3))
        text += "edge v0 p0 0.5\nedge p0 p1 0.5\nedge p1 p2 0.5\n"
        text += "edge v1 q0 0.5\nedge q0 q1 0.5\nedge q1 q2 0.5\nquery v2 v3\n"
        model = sc.parse_network(text)
        assert set(model.hang) == {"p0", "p1", "p2", "q0", "q1", "q2"}
        with pytest.raises(sc.CapacityError,
                           match="^more than 10000 simple paths from 'p2' to 'q2'$"):
            sc.st_path_dnf(model, sc.Query("p2", "q2"))


def pendant_network_text(rng):
    """A network of one to three components, each a random tree with up to
    three chords but the last of several, so most of its nodes sit in
    pendant trees; two to four queries between random nodes, which may lie
    in different components.  Node and edge lines come in random order."""
    nodes = [f"n{i}" for i in range(rng.randint(10, 36))]
    cuts = sorted(rng.sample(range(3, len(nodes) - 2), rng.randint(0, 2)))
    tail = nodes[cuts[-1]:] if cuts else None  # a tree
    pairs = set()
    for start, stop in zip([0, *cuts], [*cuts, len(nodes)]):
        members = nodes[start:stop]
        pairs |= {(members[k - 1 if rng.random() < 0.5 else rng.randrange(k)], members[k])
                  for k in range(1, len(members))}
        for _ in range(rng.randint(0, 3) if len(members) > 2 and members != tail else 0):
            u, v = rng.sample(members, 2)
            if (u, v) not in pairs and (v, u) not in pairs:
                pairs.add((u, v))
    declared = rng.sample(nodes, len(nodes))
    lines = [f"node {name}" for name in declared]
    lines += [f"edge {u} {v} 0.5" if rng.random() < 0.5 else f"edge {v} {u} 0.5"
              for u, v in rng.sample(sorted(pairs), len(pairs))]
    lines += [f"query {s} {t}" for s, t in (rng.sample(nodes, 2)
                                             for _ in range(rng.randint(2, 4)))]
    return "\n".join(lines + ["constraint >= 0"]) + "\n"


def component(model, start):
    """The nodes connected to ``start``."""
    seen, todo = {start}, [start]
    while todo:
        for neighbor, _ in model.adjacency[todo.pop()]:
            if neighbor not in seen:
                seen.add(neighbor)
                todo.append(neighbor)
    return seen


def hang_depth(model, name):
    """Links from a node along its hang-from chain to the kept part or to
    the chain's end."""
    depth = 0
    while model.hang.get(name):
        name, depth = model.hang[name][0], depth + 1
    return depth


def recursive_cubes(model, query):
    """The path cubes of a recursive walk over every edge, unpruned."""
    return [sc.Cube(tuple(var for i in path for var in (2 * i + 1, 2 * i)))
            for path in recursive_paths(model, query)]


def recursive_paths(model, query):
    """The edge indices of each simple path, in the order a recursive walk
    over every edge finds them, each path from the source."""
    edges = model.network.edges
    paths, visited, path = [], {query.source}, []

    def walk(at):
        if at == query.target:
            paths.append(list(path))
            return
        for i, edge in enumerate(edges):
            if at not in (edge.u, edge.v):
                continue
            neighbor = edge.v if edge.u == at else edge.u
            if neighbor not in visited:
                visited.add(neighbor)
                path.append(i)
                walk(neighbor)
                path.pop()
                visited.remove(neighbor)

    walk(query.source)
    return paths


class TestBuildProblem:
    def test_four_node_problem(self, net_model):
        problem = sc.build_problem(net_model)
        assert problem.objective is not None and len(problem.objective) == 2
        assert [t.reward for t in problem.objective] == [1.0, 1.0]
        assert problem.cardinality == 2
        assert problem.constraints == []

    def test_constraint_mode(self, four_node_text):
        text = four_node_text.replace("objective maximize", "constraint >= 0.4")
        problem = sc.build_problem(sc.parse_network(text))
        assert problem.objective is None
        assert len(problem.constraints) == 1
        assert problem.constraints[0].theta == 0.4

    def test_reward_scales_term(self):
        base = "node a\nnode b\nedge a b 0.5\nquery a b{}\nobjective maximize\n"
        plain = sc.build_problem(sc.parse_network(base.format("")))
        scaled = sc.build_problem(sc.parse_network(base.format(" reward 2.5")))
        all_true = {v: True for v in plain.vars.decision_ids()}
        v1 = sc.strategy_value(plain.objective, plain.vars, all_true)
        v2 = sc.strategy_value(scaled.objective, scaled.vars, all_true)
        assert v2 == pytest.approx(2.5 * v1, abs=1e-12)

    def test_compile_working_store_size(self, monkeypatch):
        """Deterministic compile counter: the working store that path DNF
        compilation fills before compaction, on a 24-edge network.  A left
        fold of the path cubes fills 132,906 nodes here."""
        sizes = working_store_sizes(monkeypatch, 24)
        assert sizes and sum(sizes) <= 53_480

    @pytest.mark.parametrize("n_edges, bound", [(24, 5_504), (28, 13_407)])
    def test_trie_working_store_size(self, monkeypatch, n_edges, bound):
        """The level-sorted cube trie's working store, which holds each
        chain as its head level; a balanced OR tree of the path cubes fills
        34,956 and 114,470 nodes here, the trie without chains 11,326 and
        27,310."""
        sizes = working_store_sizes(monkeypatch, n_edges)
        assert sizes and sum(sizes) <= bound

    @pytest.mark.parametrize("n_edges, nodes", [(16, 4_518), (20, 12_126), (24, 28_452)])
    def test_compiled_nodes_of_a_seeded_corpus(self, n_edges, nodes):
        """Diagram sizes beyond the benchmark's workloads: the compiled
        nodes of ten seeded networks, summed.  Breadth-first ranks with
        edges keyed by their later endpoint compiled 5,520, 13,180 and
        42,178 nodes here."""
        total = 0
        for k in range(10):
            model = sc.parse_network(random_model_text(random.Random(f"rule:{n_edges}:{k}"),
                                                       n_edges))
            total += sum(record.nodes for record in sc.build_problem(model).compiled)
        assert total == nodes

    def test_compile_records(self):
        rng = random.Random(29)
        for _ in range(20):
            model = sc.parse_network(random_model_text(rng, rng.randint(3, 14)))
            problem = sc.build_problem(model)
            terms = problem.objective or problem.constraints[0].terms
            assert [r.query for r in problem.compiled] == model.queries
            for record, term, query in zip(problem.compiled, terms, model.queries):
                assert record.paths == len(sc.st_path_dnf(model, query))
                assert record.nodes == len(term.obdd.rows())


def working_store_sizes(monkeypatch, n_edges: int) -> list[int]:
    """The working store size at each compaction while building the seeded
    ``n_edges``-edge network's problem."""
    sizes = []
    compact = sc.Obdd._compact

    def spy(dd, root):
        sizes.append(len(dd))
        return compact(dd, root)

    monkeypatch.setattr(sc.Obdd, "_compact", spy)
    text = random_model_text(random.Random(f"7:{n_edges}"), n_edges)
    sc.build_problem(sc.parse_network(text))
    return sizes
