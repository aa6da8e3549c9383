from __future__ import annotations

import json

import pytest

import sdloops as sl
from sdloops.cli import main


@pytest.fixture()
def twostock_path(tmp_path):
    path = tmp_path / "twostock.sdm"
    path.write_text(sl.TWO_STOCK.source, encoding="utf-8")
    return str(path)


@pytest.fixture()
def armsrace_path(tmp_path):
    path = tmp_path / "armsrace.sdm"
    path.write_text(sl.ARMS_RACE.source, encoding="utf-8")
    return str(path)


@pytest.fixture()
def greedy_miss_path(tmp_path):
    path = tmp_path / "trap.csv"
    path.write_text(sl.GREEDY_MISS_EDGES.source, encoding="utf-8")
    return str(path)


class TestSimulate:
    def test_two_stock_rows(self, twostock_path, capsys):
        assert main(["simulate", twostock_path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "time,Stock_1,Stock_2,Flow_1,Flow_2"
        assert len(lines) == 1 + 13

    def test_arms_race_growth(self, armsrace_path, capsys):
        assert main(["simulate", armsrace_path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        first = dict(zip(header, map(float, lines[1].split(","))))
        last = dict(zip(header, map(float, lines[-1].split(","))))
        for party in "ABC":
            assert last[party] > first[party]

    def test_missing_file(self, capsys):
        assert main(["simulate", "missing.sdm"]) == 1
        assert "file not found" in capsys.readouterr().err

    def test_diagnostics_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.sdm"
        bad.write_text("SPEC START = 0 STOP = 1 DT = 1\nFLOW f = g\n", encoding="utf-8")
        assert main(["simulate", str(bad)]) == 2
        assert "unresolved reference g" in capsys.readouterr().err

    def test_runtime_failure_exit_code(self, tmp_path, capsys):
        model = tmp_path / "div.sdm"
        model.write_text(
            "SPEC START = 0 STOP = 5 DT = 1\n"
            "FLOW drain = 1\n"
            "STOCK x = 2 { outflow: drain }\n"
            "AUX f = 1 / x\n",
            encoding="utf-8",
        )
        assert main(["simulate", str(model)]) == 3
        assert "division by zero" in capsys.readouterr().err

    def test_overrides(self, twostock_path, capsys):
        assert main(["simulate", twostock_path, "--stop", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 4

    def test_out_file(self, twostock_path, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["simulate", twostock_path, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").startswith("time,")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--dt", "nan"], "DT must be positive"),
            (["--start", "nan"], "STOP must be greater than START"),
            (["--stop", "inf"], "(STOP - START) / DT must be a whole number of steps"),
            (["--dt", "inf"], "(STOP - START) / DT must be a whole number of steps"),
            (["--stop=1", "--dt=1e-320"], "(STOP - START) / DT must be a whole number of steps"),
            (["--start=-1e308", "--stop=1e308"], "(STOP - START) / DT must be a whole number of steps"),
            (["--stop=0", "--dt=0"], "DT must be positive; STOP must be greater than START"),
        ],
    )
    def test_span_without_a_whole_finite_step_count_is_a_usage_error(self, flags, message, twostock_path, capsys):
        assert main(["simulate", twostock_path, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_spec_line_with_infinite_stop_is_a_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "inf.sdm"
        path.write_text("SPEC START = 0 STOP = 1e999 DT = 1\nSTOCK s = 1 { inflow: f }\nFLOW f = s\n", encoding="utf-8")
        assert main(["simulate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: (STOP - START) / DT must be a whole number of steps (line 1, col 1)\n"

    def test_initial_values_in_reverse_dependency_order(self, tmp_path, capsys):
        # every constant and every stock initial value is declared before the one it references
        n = 3000
        lines = ["SPEC START = 0 STOP = 1 DT = 1"]
        lines += [f"CONST c{i} = c{i - 1} + 1" for i in range(n - 1, 0, -1)] + ["CONST c0 = 1"]
        lines += [f"STOCK s{i} = s{i - 1} + c{i} {{ }}" for i in range(n - 1, 0, -1)] + ["STOCK s0 = c0 { }"]
        path = tmp_path / "reversed.sdm"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["simulate", str(path)]) == 0
        header, first, _ = capsys.readouterr().out.splitlines()
        row = dict(zip(header.split(","), first.split(",")))
        assert row["c2999"] == "3000.0"
        assert row["s2999"] == repr(3000 * 3001 / 2)


class TestAnalyze:
    def test_arms_race_exhaustive(self, armsrace_path, capsys):
        assert main(["analyze", armsrace_path, "--method", "exhaustive"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["provenance"] == "exhaustive"
        assert data["metadata"]["loops_discovered"] == 8
        polarity = [loop["polarity"] for loop in data["loops"]]
        assert polarity.count("balancing") == 3
        assert polarity.count("reinforcing") == 5

    def test_two_stock_threshold(self, twostock_path, capsys):
        assert main(["analyze", twostock_path, "--threshold", "0.001"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["metadata"]["loops_discovered"] == 3
        assert data["metadata"]["loops_after_filter"] == 2

    def test_dense_auto_switches_to_strongest_path(self, tmp_path, capsys):
        model_path = tmp_path / "dense.sdm"
        model_path.write_text(sl.gen_synthetic(sl.SyntheticSpec(stocks=8, density=1.0, seed=1)), encoding="utf-8")
        out = tmp_path / "ranking.json"
        assert main(["analyze", str(model_path), "--method", "auto", "--stride", "5", "--out", str(out)]) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["provenance"] == "strongest-path"
        assert all(isinstance(loop["found_at"], int) for loop in data["loops"])
        assert all(loop["found_at"] in range(1, 101, 5) for loop in data["loops"])

    def test_forced_exhaustive_cap_exceeded(self, tmp_path, capsys):
        model_path = tmp_path / "dense.sdm"
        model_path.write_text(sl.gen_synthetic(sl.SyntheticSpec(stocks=8, density=1.0, seed=1)), encoding="utf-8")
        assert main(["analyze", str(model_path), "--method", "exhaustive", "--cap", "50"]) == 3
        assert "cap exceeded" in capsys.readouterr().err

    def test_csv_outputs(self, twostock_path, tmp_path, capsys):
        csv_path = tmp_path / "loops.csv"
        links_path = tmp_path / "links.csv"
        assert (
            main(
                ["analyze", twostock_path, "--csv", str(csv_path), "--links-csv", str(links_path),
                 "--out", str(tmp_path / "r.json")]
            )
            == 0
        )
        assert csv_path.read_text(encoding="utf-8").startswith("time,loop_id,score,relative")
        assert links_path.read_text(encoding="utf-8").startswith("time,src,dst,score")

    def test_flag_validation(self, twostock_path, capsys):
        assert main(["analyze", twostock_path, "--cap", "0"]) == 1
        assert main(["analyze", twostock_path, "--stride", "0"]) == 1
        assert main(["analyze", twostock_path, "--threshold", "1.0"]) == 1
        assert main(["analyze", twostock_path, "--top", "0"]) == 1


class TestGraphLoops:
    def test_exhaustive(self, greedy_miss_path, capsys):
        assert main(["graph-loops", greedy_miss_path, "--method", "exhaustive"]) == 0
        data = json.loads(capsys.readouterr().out)
        scores = {tuple(loop["cycle"]): loop["discovery_score"] for loop in data["loops"]}
        assert scores[("a", "b", "c")] == pytest.approx(1000.0, rel=1e-12)
        assert scores[("a", "d", "c")] == pytest.approx(100.0, rel=1e-12)

    def test_strongest_path_from_a(self, greedy_miss_path, capsys):
        assert main(["graph-loops", greedy_miss_path, "--start", "a", "--method", "strongest-path"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["provenance"] == "strongest-path"
        assert len(data["loops"]) == 1
        assert data["loops"][0]["cycle"] == ["a", "d", "c"]
        assert data["loops"][0]["discovery_score"] == pytest.approx(100.0, rel=1e-12)

    def test_empty_edge_file(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("src,dst,weight\n", encoding="utf-8")
        assert main(["graph-loops", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["loops"] == []

    def test_malformed_row(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("src,dst,weight\na,b,heavy\n", encoding="utf-8")
        assert main(["graph-loops", str(path)]) == 2
        assert "malformed weight" in capsys.readouterr().err

    def test_unknown_start_node(self, greedy_miss_path, capsys):
        assert main(["graph-loops", greedy_miss_path, "--start", "zz"]) == 2

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_weight(self, weight, tmp_path, capsys):
        path = tmp_path / "edges.csv"
        path.write_text(f"src,dst,weight\na,b,1\nb,a,{weight}\n", encoding="utf-8")
        assert main(["graph-loops", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"non-finite weight in row 3: {weight!r}" in captured.err

    def test_duplicate_edge(self, tmp_path, capsys):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,weight\na,b,1\nb,a,2\n\na,b,3\n", encoding="utf-8")
        assert main(["graph-loops", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "duplicate edge a,b in row 5 (first in row 2)" in captured.err

    def test_reverse_edge_is_not_a_duplicate(self, tmp_path, capsys):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,weight\na,b,1\nb,a,2\n", encoding="utf-8")
        assert main(["graph-loops", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["loops"][0]["cycle"] == ["a", "b"]

    @pytest.mark.parametrize("to_file", [False, True])
    def test_overflowing_loop_score_writes_nothing(self, to_file, tmp_path, capsys):
        # finite weights whose product is inf: JSON has no Infinity
        path = tmp_path / "edges.csv"
        path.write_text("a,b,1e200\nb,a,1e200\n", encoding="utf-8")
        out = tmp_path / "loops.json"
        assert main(["graph-loops", str(path)] + (["--out", str(out)] if to_file else [])) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not out.exists()
        assert "non-finite number in JSON output" in captured.err


class TestGen:
    def test_deterministic_output(self, capsys):
        assert main(["gen", "--stocks", "4", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "--stocks", "4", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first

    def test_generated_model_analyzable(self, tmp_path):
        out = tmp_path / "model.sdm"
        assert main(["gen", "--stocks", "3", "--density", "0.5", "--out", str(out)]) == 0
        model = sl.parse_model(out.read_text(encoding="utf-8"))
        assert sl.validate(model) == []

    def test_bad_args(self, capsys):
        assert main(["gen", "--stocks", "1"]) == 1
        assert main(["gen", "--stocks", "4", "--density", "0"]) == 1


class TestCompare:
    def test_model_scored_comparison(self, armsrace_path, tmp_path, capsys):
        ref_path = tmp_path / "ref.json"
        cand_path = tmp_path / "cand.json"
        model = sl.parse_model(sl.ARMS_RACE.source)
        series = sl.score_all(model, sl.simulate(model))
        ref_path.write_text(sl.discover(model, series).to_json(), encoding="utf-8")
        cand_path.write_text(
            sl.discover(model, series, method="strongest-path").to_json(), encoding="utf-8"
        )
        assert main(["compare", str(ref_path), str(cand_path), "--model", armsrace_path, "--top", "8"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["reference_size"] == 8
        assert data["intersection_size"] == len(
            sl.discover(model, series, method="strongest-path").cycles()
            & sl.discover(model, series).cycles()
        )

    def test_static_comparison_without_model(self, greedy_miss_path, tmp_path, capsys):
        graph = sl.WeightedDigraph.from_edges(
            (s, d, float(w))
            for s, d, w in (line.split(",") for line in sl.GREEDY_MISS_EDGES.source.strip().splitlines()[1:])
        )
        ref = sl.enumerate_loops(graph)
        cand = sl.LoopCatalog(provenance="strongest-path")
        sl.strongest_path_pass(graph, cand, targets=["a"])
        ref_path = tmp_path / "ref.json"
        cand_path = tmp_path / "cand.json"
        ref_path.write_text(ref.to_json(), encoding="utf-8")
        cand_path.write_text(cand.to_json(), encoding="utf-8")
        assert main(["compare", str(ref_path), str(cand_path), "--top", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["top_loops"][0] == {"cycle": ["a", "b", "c"], "present": False}

    def test_variable_mismatch(self, twostock_path, tmp_path, capsys):
        catalog = sl.LoopCatalog()
        catalog.add(("nope", "also_nope"), 1.0, "static")
        path = tmp_path / "cat.json"
        path.write_text(catalog.to_json(), encoding="utf-8")
        assert main(["compare", str(path), str(path), "--model", twostock_path]) == 2
        assert "unknown variables" in capsys.readouterr().err

    def test_known_variables_but_missing_edge(self, twostock_path, tmp_path, capsys):
        catalog = sl.LoopCatalog()
        catalog.add(("Stock_1", "Stock_2"), 1.0, "static")
        path = tmp_path / "cat.json"
        path.write_text(catalog.to_json(), encoding="utf-8")
        assert main(["compare", str(path), str(path), "--model", twostock_path]) == 2
        assert "not in the score series" in capsys.readouterr().err

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_below_one_is_a_usage_error(self, top, tmp_path, capsys):
        catalog = sl.LoopCatalog()
        catalog.add(("a", "b"), 1.0, "static")
        path = tmp_path / "cat.json"
        path.write_text(catalog.to_json(), encoding="utf-8")
        assert main(["compare", str(path), str(path), "--top", top]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--top must be >= 1" in captured.err

    @pytest.mark.parametrize("ratio", ["nan", "-0.1", "1.5"])
    def test_near_miss_ratio_outside_unit_interval_is_a_usage_error(self, ratio, tmp_path, capsys):
        path = tmp_path / "cat.json"
        path.write_text(sl.LoopCatalog().to_json(), encoding="utf-8")
        assert main(["compare", str(path), str(path), f"--near-miss-ratio={ratio}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --near-miss-ratio must be a number in [0, 1]\n"


class TestCompareMalformedCatalog:
    """A catalog file that is not a loop catalog is a diagnostic naming
    the file (exit 2), whichever side it is on."""

    GOOD = '{"loops": [{"cycle": ["a", "b"], "discovery_score": 1.0, "found_at": "static"}]}'

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("not json", "not valid JSON"),
            ("", "not valid JSON"),
            ("[1, 2]", "the top level is not a JSON object"),
            ('"catalog"', "the top level is not a JSON object"),
            ('{"loops": [{"discovery_score": 1.0, "found_at": 0}]}', "a loop is missing the field 'cycle'"),
            ('{"loops": [{"cycle": ["a", "b"], "found_at": 0}]}', "a loop is missing the field 'discovery_score'"),
            ('{"loops": [{"cycle": ["a", "b"], "discovery_score": 1.0}]}', "a loop is missing the field 'found_at'"),
            (
                '{"loops": [{"cycle": ["a", "b", "a"], "discovery_score": 1.0, "found_at": 0}]}',
                "repeated node in cycle",
            ),
            ('{"loops": [{"cycle": [], "discovery_score": 1.0, "found_at": 0}]}', "empty cycle"),
            ('{"loops": [{"cycle": "ab", "discovery_score": 1.0, "found_at": 0}]}', "cycle 'ab' is not a list"),
            ('{"loops": [{"cycle": ["a"], "discovery_score": "x", "found_at": 0}]}', "malformed loop entry"),
            *(
                (
                    f'{{"loops": [{{"cycle": ["a"], "discovery_score": {score}, "found_at": 0}}]}}',
                    f"malformed loop entry (discovery_score {shown} is not a finite number)",
                )
                for score, shown in (
                    ('"nan"', "'nan'"),
                    ('"2"', "'2'"),
                    ("true", "True"),
                    ('"1e999"', "'1e999'"),
                    ("NaN", "nan"),
                    ("1e999", "inf"),
                    ("-Infinity", "-inf"),
                )
            ),
            (
                '{"loops": [{"cycle": ["a", "b"], "discovery_score": 1.0, "found_at": 0},'
                ' {"cycle": ["b", "a"], "discovery_score": 2.0, "found_at": 1}]}',
                "loop a -> b is listed twice",
            ),
            ('{"loops": 5}', "malformed loop entry"),
            ("[" * 100_000, "JSON nested too deeply"),
            ('{"loops": ' + "[" * 100_000 + "]" * 100_000 + "}", "JSON nested too deeply"),
            ('{"loops": ["ab"]}', "malformed loop entry"),
        ],
    )
    @pytest.mark.parametrize("side", ["reference", "candidate"])
    def test_diagnostic_names_file(self, text, problem, side, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(self.GOOD, encoding="utf-8")
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        argv = ["compare", str(bad), str(good)] if side == "reference" else ["compare", str(good), str(bad)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{bad}: {problem}" in captured.err


def _one_flow_model(flow: str) -> str:
    return f"SPEC START = 0 STOP = 3 DT = 1\nSTOCK s = 1 {{ inflow: f }}\nFLOW f = {flow}\n"


class TestDeepNesting:
    """Model text nested deeper than the parser's recursion or Python's
    compiler allows is a diagnostic (exit 2), never a traceback."""

    @pytest.mark.parametrize(
        "flow, message",
        [
            ("(" * 150 + "s" + ")" * 150, "error: expression nested too deeply (line 3, col 1)"),
            ("s - (" * 150 + "s" + ")" * 150, "error: expression nested too deeply (line 3, col 1)"),
            ("-" * 3000 + "s", "error: expression nested too deeply (line 3, col 1)"),
            (" AND ".join(f"s > {i}" for i in range(120)), "error: equation of f is nested too deeply to compile"),
            ("IF s > 0 THEN " * 300 + "s" + " ELSE 0" * 300, "error: equation of f is nested too deeply to compile"),
            (" + ".join(["s"] * 3000), "error: equation of f is nested too deeply to compile"),
        ],
    )
    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_diagnostic_and_exit_2(self, flow, message, command, tmp_path, capsys):
        path = tmp_path / "deep.sdm"
        path.write_text(_one_flow_model(flow), encoding="utf-8")
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err.splitlines()[0]

    def test_deep_initial_value_is_a_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "deep.sdm"
        path.write_text(
            "SPEC START = 0 STOP = 3 DT = 1\nCONST c = " + " AND ".join(["1"] * 120) + "\n", encoding="utf-8"
        )
        assert main(["simulate", str(path)]) == 2
        assert "equation of c is nested too deeply to compile" in capsys.readouterr().err

    def test_long_sum_still_runs(self, tmp_path):
        path = tmp_path / "long.sdm"
        path.write_text(_one_flow_model(" + ".join(["0.001 * s"] * 500)), encoding="utf-8")
        assert main(["analyze", str(path), "--out", str(tmp_path / "out.json")]) == 0


class TestOneFaultOneDiagnostic:
    """A declaration line that fails after its keyword and name still
    declares that name and kind, so its readers and the flow list that
    names it report nothing more."""

    @pytest.mark.parametrize(
        "body, message",
        [
            pytest.param(
                "STOCK s = 1 { inflow: f }\nFLOW f = s +\n",
                "expected expression, got end of line (line 3, col 13)",
                id="flow",
            ),
            pytest.param(
                "STOCK s = 1 { inflow: f }\nAUX a = 1 +\nFLOW f = a * s\n",
                "expected expression, got end of line (line 3, col 12)",
                id="aux",
            ),
            pytest.param(
                "CONST c = 2 *\nSTOCK s = c { inflow: f }\nFLOW f = c\n",
                "expected expression, got end of line (line 2, col 14)",
                id="const",
            ),
            pytest.param(
                "STOCK s = { inflow: f }\nFLOW f = 0.1 * s\n",
                "expected expression, got '{' (line 2, col 11)",
                id="stock",
            ),
            pytest.param(
                "STOCK s = 1 { inflow: f }\nFLOW f = " + "(" * 150 + "s" + ")" * 150 + "\n",
                "expression nested too deeply (line 3, col 1)",
                id="nested-flow",
            ),
        ],
    )
    def test_stderr_has_one_line(self, body, message, tmp_path, capsys):
        path = tmp_path / "broken.sdm"
        path.write_text("SPEC START = 0 STOP = 3 DT = 1\n" + body, encoding="utf-8")
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestNotUtf8:
    """Input that is not UTF-8 is a diagnostic naming the file (exit 2),
    whichever command reads it."""

    @pytest.mark.parametrize(
        "command, content",
        [
            pytest.param("analyze", b"SPEC START = 0 STOP = 1 DT = 1\n# caf\xff\n", id="analyze"),
            pytest.param("graph-loops", b"src,dst,weight\na,b,1\nb,\xff,2\n", id="graph-loops"),
            pytest.param(
                "compare", b'{"loops": [{"cycle": ["a\xff"], "discovery_score": 1.0, "found_at": 0}]}', id="compare"
            ),
        ],
    )
    def test_diagnostic_names_file(self, command, content, tmp_path, capsys):
        path = tmp_path / "input"
        path.write_bytes(content)
        argv = [command, str(path)] + ([str(path)] if command == "compare" else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: not UTF-8 text (byte 0xff at offset {content.index(0xFF)})\n"


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_determinism_across_invocations(self, armsrace_path, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["analyze", armsrace_path, "--out", str(out1)]) == 0
        assert main(["analyze", armsrace_path, "--out", str(out2)]) == 0
        assert out1.read_text(encoding="utf-8") == out2.read_text(encoding="utf-8")
