"""Command line subcommands, exit codes, and output formats."""

import csv
import io
import json
import re
import shlex
import shutil
from pathlib import Path

import pytest

import scopdd as sc
from scopdd.cli import main

from conftest import DATA, PATH_ORDER, complete_graph_text


@pytest.fixture
def net_file(tmp_path, four_node_text):
    path = tmp_path / "net.scop"
    path.write_text(four_node_text)
    return path


@pytest.fixture
def order_file(tmp_path):
    path = tmp_path / "order.txt"
    path.write_text("\n".join(PATH_ORDER) + "\n")
    return path


@pytest.fixture
def choice_file():
    return DATA / "forced_choice.obdd"


class TestCompile:
    def test_counts_and_files(self, tmp_path, net_file, order_file, capsys):
        out = tmp_path / "out"
        code = main(
            ["compile", str(net_file), "--out-dir", str(out), "--order-file", str(order_file)]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("query a->c: 12 internal nodes")
        dd = sc.load_obdd((out / "a-c.obdd").read_text())
        assert len(dd.internal_nodes()) == 12
        # the order file sets the levels; the variables keep declaration order
        assert dd.vars.order() == PATH_ORDER
        assert [i.name for i in dd.vars][:4] == ["t_ab", "d_ab", "t_ac", "d_ac"]

    def test_files_load_with_compiled_levels(self, tmp_path, capsys):
        # the order rule puts s-a and s-b above a-b, declared first
        text = (
            "node s\nnode a\nnode b\nnode t\n"
            "edge a b 0.5\nedge s a 0.6\nedge b t 0.7\nedge s b 0.8\n"
            "query s t\nquery a t\nobjective maximize\n"
        )
        src = tmp_path / "p.scop"
        src.write_text(text)
        assert main(["compile", str(src), "--out-dir", str(tmp_path)]) == 0
        model = sc.parse_network(text)
        assert model.vars.order()[:6] == ["t_sa", "d_sa", "t_sb", "d_sb", "t_ab", "d_ab"]
        for query, term in zip(model.queries, sc.build_problem(model).objective):
            written = (tmp_path / f"{query.source}-{query.target}.obdd").read_text()
            dd = sc.load_obdd(written)
            assert dd.vars == model.vars
            assert sc.dump_obdd(dd) == sc.dump_obdd(term.obdd) == written

    def test_disconnected_query_root_zero(self, tmp_path, capsys):
        text = (
            "node a\nnode b\nnode z\nedge a b 0.5\n"
            "query a z\nobjective maximize\n"
        )
        src = tmp_path / "p.scop"
        src.write_text(text)
        assert main(["compile", str(src), "--out-dir", str(tmp_path)]) == 0
        dd = sc.load_obdd((tmp_path / "a-z.obdd").read_text())
        assert dd.root == 0

    def test_repeated_stem_never_overwrites(self, tmp_path, capsys):
        # the second "a b" query must not take the name of the "a b-2" one
        text = (
            "node a\nnode b\nnode b-2\nedge a b 0.5\nedge a b-2 0.5\n"
            "query a b-2\nquery a b\nquery a b\nobjective maximize\n"
        )
        src = tmp_path / "p.scop"
        src.write_text(text)
        out = tmp_path / "out"
        assert main(["compile", str(src), "--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["a-b-2.obdd", "a-b-3.obdd", "a-b.obdd"]

        def labels(name):
            dd = sc.load_obdd((out / name).read_text())
            return {dd.vars.name(dd.var_of(n)) for n in dd.internal_nodes()}

        assert labels("a-b-2.obdd") == {"t_ab-2", "d_ab-2"}
        assert labels("a-b.obdd") == labels("a-b-3.obdd") == {"t_ab", "d_ab"}

    @pytest.mark.parametrize("name", ["../escaped", "esc\0aped"], ids=["parent-dir", "nul"])
    def test_stem_that_is_no_file_name_refused(self, tmp_path, net_file, capsys, name):
        src = tmp_path / "p.scop"
        src.write_text(f"node {name}\nnode b\nedge {name} b 0.5\nquery {name} b\n"
                       "objective maximize\n")
        inner = tmp_path / "inner"
        assert main(["compile", str(src), "--out-dir", str(inner)]) == 1
        assert "no plain file name" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.scop", "p.scop"]
        assert main(["compile", str(net_file), "--out-dir", str(inner)]) == 0
        assert sorted(p.name for p in inner.iterdir()) == ["a-c.obdd", "a-d.obdd"]

    def test_dot_styles(self, tmp_path, net_file, capsys):
        assert main(["compile", str(net_file), "--out-dir", str(tmp_path), "--dot"]) == 0
        dot = (tmp_path / "a-c.dot").read_text()
        assert "style=dashed" in dot and "style=solid" in dot
        assert "shape=box" in dot and "shape=circle" in dot

    def test_dot_labels_escape_quotes_and_backslashes(self, tmp_path, capsys):
        src = tmp_path / "q.scop"
        src.write_text('node a"x\nnode b\\y\nedge a"x b\\y 0.5\nquery a"x b\\y\n'
                       "objective maximize\n")
        assert main(["compile", str(src), "--out-dir", str(tmp_path), "--dot"]) == 0
        # a quoted label is plain characters or backslash escapes
        node_line = re.compile(
            r'  n\d+ \[label="((?:[^"\\]|\\.)*)", shape=\w+(, peripheries=2)?\];')
        labels = set()
        for line in (tmp_path / 'a"x-b\\y.dot').read_text().splitlines():
            if "label=" in line:
                found = node_line.fullmatch(line)
                assert found, line
                labels.add(re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], found[1]))
        assert labels == {'t_a"xb\\y\n0.5', 'd_a"xb\\y', "0", "1"}

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.scop"
        bad.write_text("node a\nedge a z 0.5\n")
        assert main(["compile", str(bad)]) == 1
        assert "error" in capsys.readouterr().err


class TestPropagateCmd:
    def test_forces_y_report(self, choice_file, capsys):
        code = main(["propagate", str(choice_file), "--theta", "0.4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "F = 0.600000" in out
        assert "status=ok fixed: y=1" in out
        assert "baseline: status=ok fixed: (none)" in out

    def test_theta_zero_fixes_nothing(self, choice_file, capsys):
        assert main(["propagate", str(choice_file), "--theta", "0"]) == 0
        out = capsys.readouterr().out
        assert out.count("fixed: (none)") == 2

    def test_fixed_assignment(self, choice_file, capsys):
        code = main(
            ["propagate", str(choice_file), "--theta", "0.4", "--fix", "x=0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "F = 0.600000" in out
        assert "fixed: y=1" in out

    def test_failed_propagation_exit_two(self, choice_file, capsys):
        assert main(["propagate", str(choice_file), "--theta", "0.7"]) == 2
        assert "status=failed" in capsys.readouterr().out

    def test_json_output(self, choice_file, capsys):
        code = main(["propagate", str(choice_file), "--theta", "0.4", "--json"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["dc"]["fixed"] == {"y": 1}
        assert record["baseline"]["fixed"] == {}
        assert record["bound"] == pytest.approx(0.6, abs=1e-12)
        assert record["drops"]["y"] == pytest.approx(0.33, abs=1e-12)

    @pytest.mark.parametrize("extra, code, text, record", [
        (["--theta", "0.4"], 0,
         "F = 0.600000 (theta = 0.4)\ndelta x = 0.000000\ndelta y = 0.330000\n"
         "dc:       status=ok fixed: y=1\nbaseline: status=ok fixed: (none)\n"
         "          v(y#4) in [0.000000, 0.600000]\n"
         "          v(y#5) in [0.300000, 0.600000]\n"
         "          v(x#6) in [0.377778, 0.600000]\n",
         {"theta": 0.4, "bound": 0.6, "drops": {"x": 0.0, "y": 0.33},
          "dc": {"status": "ok", "fixed": {"y": 1}, "visits": 14},
          "baseline": {"status": "ok", "fixed": {}, "visits": 14,
                       "intervals": {"v(y#4)": [0.0, 0.6], "v(y#5)": [0.3, 0.6],
                                     "v(x#6)": [0.37777777666666673, 0.6]},
                       "root_interval": [0.33999999900000005, 0.6]}}),
        (["--theta", "0.4", "--fix", "x=0"], 0,
         "F = 0.600000 (theta = 0.4)\ndelta y = 0.600000\n"
         "dc:       status=ok fixed: y=1\nbaseline: status=ok fixed: y=1\n"
         "          v(y#4) in [0.600000, 0.600000]\n"
         "          v(y#5) in [0.600000, 0.600000]\n"
         "          v(x#6) in [0.600000, 0.600000]\n",
         {"theta": 0.4, "bound": 0.6, "drops": {"y": 0.6},
          "dc": {"status": "ok", "fixed": {"y": 1}, "visits": 13},
          "baseline": {"status": "ok", "fixed": {"y": 1}, "visits": 21,
                       "intervals": {"v(y#4)": [0.6, 0.6], "v(y#5)": [0.6, 0.6],
                                     "v(x#6)": [0.6, 0.6]},
                       "root_interval": [0.6, 0.6]}}),
        (["--theta", "0.7"], 2,
         "F = 0.600000 (theta = 0.7)\ndelta x = 0.000000\ndelta y = 0.330000\n"
         "dc:       status=failed fixed: (none)\nbaseline: status=failed fixed: (none)\n"
         "          v(y#4) in [0.000000, 0.600000]\n"
         "          v(y#5) in [0.300000, 0.600000]\n"
         "          v(x#6) in [0.000000, 0.600000]\n",
         {"theta": 0.7, "bound": 0.6, "drops": {"x": 0.0, "y": 0.33},
          "dc": {"status": "failed", "fixed": {}, "visits": 14},
          "baseline": {"status": "failed", "fixed": {}, "visits": 4,
                       "intervals": {"v(y#4)": [0.0, 0.6], "v(y#5)": [0.3, 0.6],
                                     "v(x#6)": [0.0, 0.6]},
                       "root_interval": [0.0, 0.6]}}),
    ])
    def test_pinned_output_from_one_scratch(self, choice_file, capsys, monkeypatch,
                                            extra, code, text, record):
        # the drops printed, also those of a failed run, are the ones
        # dc_propagate read: each call builds the constraint's scratch once
        built = []
        init = sc.PropagationScratch.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(sc.PropagationScratch, "__init__", counting_init)
        argv = ["propagate", str(choice_file)] + extra
        assert main(argv) == code
        assert capsys.readouterr().out == text
        assert main(argv + ["--json"]) == code
        assert json.loads(capsys.readouterr().out) == record
        assert len(built) == 2

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_falling_probability_exit_one(self, tmp_path, capsys, json_flag):
        # setting d_y true makes the event false: d_x=1, d_y=0 is worth 0.9,
        # while the optimistic bound (every free decision true) reads 0
        path = tmp_path / "neg.obdd"
        path.write_text("var d_x decision\nvar t_a stochastic 0.9\nvar d_y decision\n"
                        "node 2 d_y 1 0\nnode 3 t_a 0 2\nnode 4 d_x 0 3\nroot 4\n")
        assert main(["propagate", str(path), "--theta", "0.5"] + json_flag) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not monotone" in captured.err and "fixing d_y to 0" in captured.err

    @pytest.mark.parametrize("fix", [[], ["--fix", "x=0"], ["--fix", "x=1"], ["--fix", "y=0"],
                                     ["--fix", "y=1"], ["--fix", "x=0,y=0"], ["--fix", "x=0,y=1"],
                                     ["--fix", "x=1,y=0"], ["--fix", "x=1,y=1"]])
    def test_forced_choice_passes_the_monotone_check(self, choice_file, capsys, fix):
        # node 5 reads lo = t and hi = s, so the file is not monotone as a
        # Boolean function, yet no drop is negative at any fix state
        code = main(["propagate", str(choice_file), "--theta", "0.4", "--json"] + fix)
        assert code in (0, 2)
        assert min(json.loads(capsys.readouterr().out)["drops"].values(), default=0.0) >= 0.0

    def test_unknown_fix_name(self, choice_file, capsys):
        assert main(["propagate", str(choice_file), "--theta", "0.4", "--fix", "q=1"]) == 1

    def test_conflicting_fix_exit_one(self, choice_file, capsys):
        argv = ["propagate", str(choice_file), "--theta", "0.4", "--fix", "x=1"]
        assert main(argv + ["--fix", "x=0"]) == 1
        assert "conflicting values for 'x'" in capsys.readouterr().err
        assert main(argv + ["--fix", "x=true"]) == 0  # a repeated equal value is fine

    def test_different_orders_exit_one(self, tmp_path, capsys):
        # same variables, different levels: one store cannot hold both
        body = "node 2 a 0 1\nroot 2\n"
        first, second = tmp_path / "first.obdd", tmp_path / "second.obdd"
        first.write_text("var a decision\nvar b decision\n" + body)
        second.write_text("var a decision\nvar b decision\norder b a\n" + body)
        assert main(["propagate", str(first), str(second), "--theta", "0.5"]) == 1
        assert "different variable blocks" in capsys.readouterr().err

    def test_theta_outside_reward_range(self, choice_file, capsys):
        assert main(["propagate", str(choice_file), "--theta", "1.5"]) == 1

    @pytest.mark.parametrize("rewards", ["-1", "nan", "inf", "abc"])
    def test_bad_reward_exit_one(self, choice_file, capsys, rewards):
        argv = ["propagate", str(choice_file), "--theta", "0.3", "--rewards", rewards]
        assert main(argv) == 1
        assert "scopdd: error:" in capsys.readouterr().err


class TestUsageErrors:
    def test_bad_arguments_exit_one(self, capsys):
        # argparse normally exits with 2, which is reserved for unsat
        with pytest.raises(SystemExit) as err:
            main(["propagate"])  # missing required arguments
        assert err.value.code == 1

    def test_unknown_subcommand_exit_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1


class TestSolveCmd:
    def test_optimize_json(self, net_file, capsys):
        code = main(["solve", str(net_file), "--json"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "sat"
        assert record["value"] == pytest.approx(1.2, abs=1e-9)
        assert record["strategy"] == {
            "d_ab": 0, "d_ac": 1, "d_ad": 1, "d_bd": 0, "d_cd": 0,
        }
        assert set(record["stats"]) == {
            "nodes_expanded", "backtracks", "propagator_calls",
            "node_visits", "incumbents", "wall_time",
        }
        assert record["stats"]["incumbents"] == 1  # largest-drop order finds the optimum first

    def test_compile_counters_json(self, net_file, capsys):
        assert main(["solve", str(net_file), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert list(record) == ["status", "strategy", "value", "stats", "compile"]
        assert record["compile"] == [
            {"source": "a", "target": "c", "paths": 3, "nodes": 16},
            {"source": "a", "target": "d", "paths": 3, "nodes": 16},
        ]

    def test_default_delta_is_the_solvers(self, net_file, capsys):
        outputs = []
        for extra in ([], ["--delta", "1e-9"]):
            assert main(["solve", str(net_file), "--json", *extra]) == 0
            record = json.loads(capsys.readouterr().out)
            del record["stats"]["wall_time"]
            outputs.append(record)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("delta", ["-0.1", "nan", "inf"])
    def test_invalid_delta_exit_one(self, net_file, capsys, delta):
        assert main(["solve", str(net_file), "--delta", delta]) == 1
        assert "delta must be finite and nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("delta", ["-5", "nan", "1e-3"])
    def test_delta_rejected_on_constraint_problem(self, tmp_path, four_node_text, capsys,
                                                  delta):
        path = tmp_path / "sat.scop"
        path.write_text(four_node_text.replace("objective maximize", "constraint >= 0.4"))
        assert main(["solve", str(path), "--delta", delta]) == 1
        assert "--delta only applies to objective problems" in capsys.readouterr().err
        assert main(["solve", str(path)]) == 0

    def test_theta_rejected_on_objective_problem(self, net_file, capsys):
        assert main(["solve", str(net_file), "--theta", "0.5"]) == 1
        assert "--theta only applies to constraint-mode problems" in capsys.readouterr().err

    def test_unsat_exit_two(self, tmp_path, four_node_text, capsys):
        text = four_node_text.replace("objective maximize", "constraint >= 1.4")
        text = text.replace("cardinality <= 2\n", "")
        path = tmp_path / "hard.scop"
        path.write_text(text)
        assert main(["solve", str(path)]) == 2
        assert "status: unsat" in capsys.readouterr().out

    def test_sat_text_record(self, tmp_path, four_node_text, capsys):
        text = four_node_text.replace("objective maximize", "constraint >= 0.4")
        path = tmp_path / "sat.scop"
        path.write_text(text)
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr().out
        assert "status: sat" in out and "strategy:" in out and "value:" in out

    def test_theta_override_validated(self, tmp_path, four_node_text, capsys):
        text = four_node_text.replace("objective maximize", "constraint >= 0.4")
        path = tmp_path / "c.scop"
        path.write_text(text)
        assert main(["solve", str(path), "--theta", "5"]) == 1
        assert main(["solve", str(path), "--theta", "1.9"]) == 2
        capsys.readouterr()

    def test_cardinality_override(self, net_file, capsys):
        code = main(["solve", str(net_file), "--cardinality", "0", "--json"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["value"] == pytest.approx(0.0, abs=1e-12)

    def test_path_cap_exit_one(self, tmp_path, capsys):
        path = tmp_path / "k9.scop"
        path.write_text(complete_graph_text(9))  # 13,700 simple paths v0 -> v1
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert "more than 10000 simple paths from 'v0' to 'v1'" in err
        assert "raise the cap" not in err


class TestBenchCmd:
    def _run(self, capsys, *extra):
        argv = ["bench", "--seed", "7", "--size", "4,6", "--count", "2", *extra]
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_deterministic_without_timing(self, capsys):
        first = self._run(capsys, "--no-timing")
        second = self._run(capsys, "--no-timing")
        assert first == second

    def test_pinned_output(self, capsys):
        assert self._run(capsys, "--no-timing") == (
            "instance,propagator,decision_vars,obdd_nodes,fixed,visits\n"
            "s7-n4-i0,naive,4,4,1,20\n"
            "s7-n4-i0,derivative,4,4,1,8\n"
            "s7-n4-i0,incremental,4,4,1,1\n"
            "s7-n4-i0,baseline,4,4,0,5\n"
            "s7-n4-i1,naive,4,12,1,60\n"
            "s7-n4-i1,derivative,4,12,1,24\n"
            "s7-n4-i1,incremental,4,12,1,22\n"
            "s7-n4-i1,baseline,4,12,1,39\n"
            "s7-n6-i0,naive,6,44,2,308\n"
            "s7-n6-i0,derivative,6,44,2,70\n"
            "s7-n6-i0,incremental,6,44,5,50\n"
            "s7-n6-i0,baseline,6,44,0,90\n"
            "s7-n6-i1,naive,6,46,2,322\n"
            "s7-n6-i1,derivative,6,46,2,70\n"
            "s7-n6-i1,incremental,6,46,4,50\n"
            "s7-n6-i1,baseline,6,46,0,94\n"
        )

    def test_rows_and_propagator_agreement(self, capsys):
        out = self._run(capsys, "--no-timing")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {r["propagator"] for r in rows} == {
            "naive", "derivative", "incremental", "baseline",
        }
        by_instance = {}
        for r in rows:
            by_instance.setdefault(r["instance"], {})[r["propagator"]] = r
        for inst in by_instance.values():
            assert inst["naive"]["fixed"] == inst["derivative"]["fixed"]
            assert int(inst["naive"]["visits"]) > int(inst["derivative"]["visits"])

    def test_timing_column_default(self, capsys):
        out = self._run(capsys)
        header = out.splitlines()[0].split(",")
        assert header[-1] == "wall_s"

    @pytest.mark.parametrize("size", ["0,-2", "4,0", "-1", ",", "4,x"])
    def test_bad_size_exit_one(self, capsys, size):
        assert main(["bench", "--size", size, "--count", "1"]) == 1
        captured = capsys.readouterr()
        assert "bad --size" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_bad_count_exit_one(self, capsys, count):
        assert main(["bench", "--size", "4", "--count", count]) == 1
        captured = capsys.readouterr()
        assert "bad --count" in captured.err
        assert captured.out == ""


class TestReadme:
    def test_command_line_examples_run(self, tmp_path, monkeypatch, capsys):
        # every scopdd line of README's "Command line" block, run from a
        # directory holding a copy of the test data; bench on one instance
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line) for line in block.splitlines() if line.startswith("scopdd ")]
        assert [argv[1] for argv in commands] == ["compile", "propagate", "solve", "bench"]
        shutil.copytree(DATA, tmp_path / "tests" / "data")
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            if argv[1] == "bench":
                argv[argv.index("--count") + 1] = "1"
            out_file = None
            if ">" in argv:
                out_file = argv[argv.index(">") + 1]
                argv = argv[:argv.index(">")]
            assert main(argv[1:]) == 0, argv
            out = capsys.readouterr().out
            if out_file:
                Path(out_file).write_text(out)
        assert (tmp_path / "build" / "a-c.dot").exists()
        assert len((tmp_path / "bench.csv").read_text().splitlines()) == 1 + 3 * 4
