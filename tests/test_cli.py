from __future__ import annotations

import contextlib
import errno
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import sdloops as sl
from reference import catalog_to_json_dict
from sdloops.cli import main
from strategies import OVERFLOWING_LOOP


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

    def test_overrides(self, twostock_path, capsys):
        assert main(["simulate", twostock_path, "--stop", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 4

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

    def test_flag_validation(self, twostock_path, capsys):
        assert main(["analyze", twostock_path, "--cap", "0"]) == 1
        assert main(["analyze", twostock_path, "--stride", "0"]) == 1
        assert main(["analyze", twostock_path, "--threshold", "1.0"]) == 1
        assert main(["analyze", twostock_path, "--top", "0"]) == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--method", "strongest-path", "--cap", "5"], "--cap needs --method auto or exhaustive"),
            (["--method", "exhaustive", "--stride", "2"], "--stride needs --method auto or strongest-path"),
        ],
    )
    def test_flag_the_method_never_reads_is_a_usage_error(self, flags, message, tmp_path, capsys):
        # checked before the model is read: the file does not exist
        assert main(["analyze", str(tmp_path / "missing.sdm"), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_flags_not_given_report_their_defaults(self, twostock_path, capsys):
        for method in ("auto", "exhaustive", "strongest-path"):
            assert main(["analyze", twostock_path, "--method", method]) == 0
            metadata = json.loads(capsys.readouterr().out)["metadata"]
            assert (metadata["cap"], metadata["stride"]) == (1000, 1)


class TestUnwritableOutput:
    """An output path that cannot be written is a usage error: exit 1 and
    one stderr line naming the path.  No other output is written."""

    @pytest.mark.parametrize(
        "command, target",
        [
            (["analyze", "{model}", "--out", "{target}"], "missing/x.json"),
            (["analyze", "{model}", "--out", "{tmp}/r.json", "--csv", "{target}"], "."),
            (["analyze", "{model}", "--out", "{tmp}/r.json", "--links-csv", "{target}"], "."),
            (["simulate", "{model}", "--out", "{target}"], "missing/run.csv"),
            (["gen", "--stocks", "3", "--out", "{target}"], "missing/m.sdm"),
        ],
    )
    def test_usage_error(self, command, target, twostock_path, tmp_path, capsys):
        target = str(tmp_path / target)
        argv = [arg.format(model=twostock_path, tmp=tmp_path, target=target) for arg in command]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}: ")
        assert len(captured.err.splitlines()) == 1
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "flags, paths, message",
        [
            (("--out", "--csv"), ("x", "x"), "--out and --csv name the same file: x"),
            (("--out", "--links-csv"), ("x", "./x"), "--out and --links-csv name the same file: ./x"),
            (("--csv", "--links-csv"), ("d/../x", "x"), "--csv and --links-csv name the same file: x"),
        ],
    )
    def test_one_file_named_twice_is_a_usage_error(self, flags, paths, message, twostock_path, tmp_path, monkeypatch, capsys):
        work = tmp_path / "work"
        (work / "d").mkdir(parents=True)
        monkeypatch.chdir(work)
        argv = ["analyze", twostock_path]
        for flag, path in zip(flags, paths):
            argv += [flag, path]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert [p.name for p in work.iterdir()] == ["d"]

    @pytest.mark.parametrize("flag", ["--csv", "--links-csv"])
    def test_existing_output_is_left_as_it_was(self, flag, twostock_path, tmp_path, capsys):
        out = tmp_path / "r.json"
        out.write_text("old", encoding="utf-8")
        assert main(["analyze", twostock_path, "--out", str(out), flag, str(tmp_path)]) == 1
        assert out.read_text(encoding="utf-8") == "old"

    def test_dangling_symlink_target_is_not_left_behind(self, twostock_path, tmp_path, capsys):
        target = tmp_path / "target.json"
        (tmp_path / "r.json").symlink_to(target)
        assert main(["analyze", twostock_path, "--out", str(tmp_path / "r.json"), "--csv", str(tmp_path)]) == 1
        assert not target.exists()
        assert (tmp_path / "r.json").is_symlink()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_fifo_output_is_opened_once(self, twostock_path, tmp_path, capsys):
        fifo = tmp_path / "r.json"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text(encoding="utf-8")), daemon=True)
        reader.start()
        codes = []
        run = threading.Thread(target=lambda: codes.append(main(["analyze", twostock_path, "--out", str(fifo)])), daemon=True)
        run.start()
        run.join(timeout=30)
        reader.join(timeout=5)
        assert codes == [0]
        assert json.loads(received[0])["metadata"]["model"] == twostock_path

    def test_unreadable_input_is_a_usage_error(self, twostock_path, monkeypatch, capsys):
        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", refuse)
        assert main(["simulate", twostock_path]) == 1
        assert capsys.readouterr().err == f"error: cannot read {twostock_path}: Permission denied\n"


class _FailingStdout:
    """A standard output whose every write and flush raises `error`."""

    def __init__(self, error):
        self.error = error

    def write(self, *args):
        raise self.error

    writelines = flush = write


def _checkout_env() -> dict:
    """The environment of a new interpreter that imports this checkout's
    package, with standard output buffered as it is by default."""
    src = str(Path(sl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)  # unbuffered, a failed write leaves nothing to flush at exit
    return env


def _cli_subprocess(*args, **kwargs):
    """Run the CLI in a new interpreter that imports this checkout's package."""
    return subprocess.Popen([sys.executable, "-m", "sdloops.cli", *args], env=_checkout_env(), stderr=subprocess.PIPE, **kwargs)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the address-space limit is enforced on Linux")
def test_running_out_of_memory_exits_3(tmp_path):
    """A run too large for memory is a runtime failure: exit 3 and one
    stderr line, no traceback.  The child lowers its own address-space
    limit to 200 MiB, where 2 stocks over 1e12 steps run out in about a
    second, as they list the run's times."""
    pytest.importorskip("resource")
    model = tmp_path / "m.sdm"
    model.write_text(
        "SPEC START = 0 STOP = 10 DT = 1\nSTOCK s = 1 { inflow: f }\nSTOCK r = 2 { inflow: g }\n"
        "FLOW f = 0.1 * r\nFLOW g = 0.1 * s\n",
        encoding="utf-8",
    )
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (200 << 20, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
        "from sdloops.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    argv = [sys.executable, "-c", child, "simulate", str(model), "--stop", "1e12"]
    proc = subprocess.run(argv, env=_checkout_env(), capture_output=True, encoding="utf-8", timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "error: out of memory\n")


class TestUnwritableStdout:
    """Standard output is an output like an --out file: a closed pipe, a
    full disk or a closed stdout is a usage error, exit 1 and one stderr
    line, whichever command writes to it."""

    @pytest.mark.parametrize(
        "command",
        [
            ["simulate", "{model}"],
            ["analyze", "{model}"],
            ["graph-loops", "{edges}"],
            ["gen", "--stocks", "3"],
            ["compare", "{catalog}", "{catalog}"],
        ],
        ids=lambda command: command[0],
    )
    @pytest.mark.parametrize("code", [errno.EPIPE, errno.ENOSPC, None], ids=["broken-pipe", "disk-full", "closed"])
    def test_usage_error(
        self, command, code, twostock_path, greedy_miss_path, greedy_miss_graph, tmp_path, capsys, monkeypatch
    ):
        catalog = tmp_path / "cat.json"
        catalog.write_text(sl.enumerate_loops(greedy_miss_graph).to_json(), encoding="utf-8")
        argv = [arg.format(model=twostock_path, edges=greedy_miss_path, catalog=catalog) for arg in command]
        if code is None:
            monkeypatch.setattr(sys, "stdout", None)
        else:
            monkeypatch.setattr(sys, "stdout", _FailingStdout(OSError(code, os.strerror(code))))
        assert main(argv) == 1
        reason = os.strerror(errno.EBADF if code is None else code)
        assert capsys.readouterr().err == f"error: cannot write standard output: {reason}\n"

    def test_reader_closing_the_pipe(self, tmp_path):
        model = tmp_path / "m.sdm"
        model.write_text(sl.gen_synthetic(sl.SyntheticSpec(stocks=6)), encoding="utf-8")
        proc = _cli_subprocess("analyze", str(model), stdout=subprocess.PIPE)  # over 1 MB, more than a pipe holds
        proc.stdout.read(1)
        proc.stdout.close()
        err = proc.stderr.read().decode("utf-8")
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == "error: cannot write standard output: Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device(self):
        with open("/dev/full", "wb") as full:
            proc = _cli_subprocess("gen", "--stocks", "3", stdout=full)
            err = proc.stderr.read().decode("utf-8")
            proc.stderr.close()
            assert proc.wait(timeout=60) == 1
        assert err == "error: cannot write standard output: No space left on device\n"


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
        assert main(["graph-loops", greedy_miss_path, "--start", "zz", "--method", "strongest-path"]) == 2
        assert "start node zz is not in the graph" in capsys.readouterr().err

    @pytest.mark.parametrize("method", [[], ["--method", "exhaustive"]])
    def test_start_without_strongest_path_is_a_usage_error(self, method, tmp_path, capsys):
        # checked before the edge file is read: the file does not exist
        assert main(["graph-loops", str(tmp_path / "missing.csv"), "--start", "c", *method]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --start needs --method strongest-path\n"

    def test_cap_with_strongest_path_is_a_usage_error(self, tmp_path, capsys):
        # the heuristic never reads --cap; checked before the edge file is read
        assert main(["graph-loops", str(tmp_path / "missing.csv"), "--method", "strongest-path", "--cap", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --cap needs --method exhaustive\n"

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

    @pytest.mark.parametrize("to_file", [False, True])
    def test_overflowing_score_of_the_last_loop_writes_nothing(self, to_file, tmp_path, capsys):
        """513 loops through a hub, more than two blocks of the catalog
        writer: only the last one listed overflows, the one whose first edge
        is the hub's weakest."""
        path = tmp_path / "edges.csv"
        rows = [f"hub,x{i:03d},1\nx{i:03d},hub,1\n" for i in range(512)]
        path.write_text("".join(rows) + "hub,x512,0.5\nx512,y,1e300\ny,hub,1e300\n", encoding="utf-8")
        out = tmp_path / "loops.json"
        out.write_bytes(b"old bytes")
        assert main(["graph-loops", str(path), "--cap", "513"] + (["--out", str(out)] if to_file else [])) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert out.read_bytes() == b"old bytes"
        assert captured.err == "error: non-finite number in JSON output (Out of range float values are not JSON compliant: inf)\n"
        assert main(["graph-loops", str(path), "--cap", "512"]) == 0  # the loops before it are written
        assert len(json.loads(capsys.readouterr().out)["loops"]) == 512

    @settings(max_examples=40, deadline=None)
    @given(st.binary(max_size=64), st.sampled_from(["exhaustive", "strongest-path"]))
    def test_overflowing_loop_score_keeps_an_existing_file(self, old, method):
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp, "edges.csv"), Path(tmp, "loops.json")
            path.write_text("a,b,1\nb,c,1e200\nc,a,1e200\nb,a,2\n", encoding="utf-8")
            out.write_bytes(old)
            assert main(["graph-loops", str(path), "--method", method, "--out", str(out)]) == 3
            assert out.read_bytes() == old


_nodes = st.sampled_from(["a", "b", "c", "d"])
_edge_lists = st.lists(
    st.tuples(_nodes, _nodes, st.sampled_from(["1", "-0.5", "2", "3.25", "-4", "1e-3"])),
    max_size=10,
    unique_by=lambda row: row[:2],
)


@settings(max_examples=60, deadline=None)
@given(_edge_lists, st.tuples(st.sampled_from(["a", "b", "c", "d", "e"]), st.sampled_from(["a", "b", "e", "f"])),
       st.sampled_from(["0", "0.0", "-0", "0e5"]))
def test_zero_weight_edge_changes_no_catalog(rows, extra, zero):
    """Metamorphic check: appending an edge of weight 0 (between known
    nodes, to a new node or a self-loop) leaves graph-loops output
    unchanged, byte for byte, for both methods."""
    assume(extra not in {row[:2] for row in rows})
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, "edges.csv"), Path(tmp, "with_zero.csv")]
        text = "src,dst,weight\n" + "".join(f"{s},{d},{w}\n" for s, d, w in rows)
        paths[0].write_text(text, encoding="utf-8")
        paths[1].write_text(text + f"{extra[0]},{extra[1]},{zero}\n", encoding="utf-8")
        for method in ("exhaustive", "strongest-path"):
            outputs = []
            for path in paths:
                out = Path(tmp, "loops.json")
                assert main(["graph-loops", str(path), "--method", method, "--out", str(out)]) == 0
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1]


@settings(max_examples=60, deadline=None)
@given(_edge_lists, st.sampled_from(["exhaustive", "strongest-path"]))
def test_written_catalog_is_json_dumps_text(rows, method):
    """The catalog file, written in pieces, is json.dumps's text of the
    catalog plus a line break, on stdout too."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "edges.csv"), Path(tmp, "loops.json")
        path.write_text("".join(f"{s},{d},{w}\n" for s, d, w in rows), encoding="utf-8")
        assert main(["graph-loops", str(path), "--method", method, "--out", str(out)]) == 0
        graph = sl.WeightedDigraph.from_edges((s, d, float(w)) for s, d, w in rows)
        if method == "exhaustive":
            catalog = sl.enumerate_loops(graph)
        else:
            catalog = sl.LoopCatalog(provenance="strongest-path")
            sl.strongest_path_pass(graph, catalog)
        expected = json.dumps(catalog_to_json_dict(catalog), indent=2, allow_nan=False) + "\n"
        assert out.read_bytes() == expected.encode("ascii")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["graph-loops", str(path), "--method", method]) == 0
        assert stdout.getvalue() == expected


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

    @pytest.mark.parametrize(
        "ref_loops, cand_loops, problem",
        [
            # catalog order, not sorted order: yy -> zz is listed before aa -> bb
            ([("Stock_1", "Stock_2"), ("zz", "yy"), ("aa", "bb")], [("cand",)], "reference catalog references unknown variables: yy, zz"),
            ([("Stock_1", "Stock_2")], [("zz", "yy"), ("aa",)], "candidate catalog references unknown variables: yy, zz"),
        ],
    )
    def test_variable_mismatch_names_the_first_loop_in_catalog_order(
        self, ref_loops, cand_loops, problem, twostock_path, tmp_path, capsys
    ):
        paths = []
        for name, loops in (("ref.json", ref_loops), ("cand.json", cand_loops)):
            catalog = sl.LoopCatalog()
            for cycle in loops:
                catalog.add(cycle, 1.0, "static")
            paths.append(tmp_path / name)
            paths[-1].write_text(catalog.to_json(), encoding="utf-8")
        assert main(["compare", *map(str, paths), "--model", twostock_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {problem}\n"

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


class TestCompareRanking:
    """`compare --model` ranks reference loops as `analyze` does: a loop
    whose score overflows comes first, wherever the file lists it."""

    def test_overflowing_loop_first_in_either_file_order(self, tmp_path, capsys):
        model = tmp_path / "m.sdm"
        model.write_text(OVERFLOWING_LOOP, encoding="utf-8")
        loops = [{"cycle": cycle, "discovery_score": 1.0, "found_at": "static"} for cycle in (["f", "s", "z"], ["g", "s"])]
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps({"loops": loops[1:]}), encoding="utf-8")
        outputs = []
        for order in (loops, loops[::-1]):
            ref = tmp_path / "ref.json"
            ref.write_text(json.dumps({"loops": order}), encoding="utf-8")
            assert main(["compare", str(ref), str(cand), "--model", str(model), "--top", "1"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["top_loops"] == [{"cycle": ["f", "s", "z"], "present": False}]


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
            *((f'{{"loops": [{{"cycle": ["a"], "discovery_score": 1.0, "found_at": {v}}}]}}', f"malformed loop entry (found_at {shown} is not a step or a string)")
              for v, shown in (("null", "None"), ("true", "True"), ("1.5", "1.5"), ("[1]", "[1]"), ("-3", "-3"))),
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
            ('{"overflow": "false", "loops": []}', "overflow 'false' is not true or false"),
            ('{"provenance": 5, "loops": []}', "provenance 5 is not a string"),
            pytest.param(
                '{"loops": [{"cycle": ["a"], "discovery_score": ' + "1" * 5000 + ', "found_at": 0}]}',
                # json.loads refuses the literal where int() has a digit limit
                "not valid JSON" if hasattr(sys, "get_int_max_str_digits") else "malformed loop entry",
                id="5000-digit-score",
            ),
            ("[" * 100_000, "JSON nested too deeply"),
            ('{"loops": ' + "[" * 100_000 + "]" * 100_000 + "}", "JSON nested too deeply"),
            ('{"loops": ["ab"]}', "malformed loop entry"),
            *(
                (f'{{"loops": [{{"cycle": {cycle}, "discovery_score": 1.0, "found_at": 0}}]}}', "non-string node in cycle")
                for cycle in ("[1, 2]", '["a", 1]', "[null]", '[["a"], ["b"]]', '[{"a": 1}, "b"]', "[true, false]")
            ),
            # values equal to one another but of other types are never shared as node names
            *(
                (f'{{"loops": [{{"cycle": {cycle}, "discovery_score": 1.0, "found_at": 0}}]}}', f"non-string node in cycle {shown}\n")
                for cycle, shown in (("[1, true]", "(1, True)"), ("[0, -0.0, false]", "(0, -0.0, False)"), ('["a", 1.0, 1]', "('a', 1.0, 1)"))
            ),
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

    @pytest.mark.parametrize(
        "nest",
        [
            lambda k: " + ".join(["s"] * k),
            lambda k: " AND ".join(f"s > {i}" for i in range(k)),
            lambda k: "IF s > 0 THEN " * k + "s" + " ELSE 0" * k,
        ],
        ids=["sum chain", "AND chain", "IF nest"],
    )
    def test_deepest_simulated_equation_analyzes_or_is_a_diagnostic(self, nest, tmp_path, capsys):
        """Scoring compiles each equation a second time, in column form, one
        comprehension deeper.  At the deepest nesting that `simulate`
        compiles (found by bisection: the limit differs between Python
        versions), `analyze` succeeds or names the equation (exit 2)."""
        path = tmp_path / "deep.sdm"

        def run(command, k):
            path.write_text(_one_flow_model(nest(k)), encoding="utf-8")
            code = main([command, str(path)])
            return code, capsys.readouterr().err

        ok, deep = 1, 2
        while run("simulate", deep)[0] == 0:
            ok, deep = deep, deep * 2
        while deep - ok > 1:  # simulate runs `ok` levels and refuses `deep`
            mid = (ok + deep) // 2
            ok, deep = (mid, deep) if run("simulate", mid)[0] == 0 else (ok, mid)
        assert run("simulate", deep) == (2, "error: equation of f is nested too deeply to compile (line 3, col 6)\n")
        code, err = run("analyze", ok)
        assert (code, err) in ((0, ""), (2, "error: equation of f is nested too deeply to compile (line 3, col 6)\n"))


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


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of an input file is dropped:
    the output is that of the same file without it."""

    @pytest.mark.parametrize(
        "command, text",
        [
            pytest.param("analyze", sl.TWO_STOCK.source, id="model"),
            pytest.param("graph-loops", sl.GREEDY_MISS_EDGES.source, id="edges"),
            pytest.param("compare", None, id="catalog"),
        ],
    )
    def test_same_output(self, command, text, greedy_miss_graph, tmp_path, capsys):
        if text is None:
            text = sl.enumerate_loops(greedy_miss_graph).to_json()
        path = tmp_path / "input"
        argv = [command, str(path)] + ([str(path)] if command == "compare" else [])
        outputs = []
        for bom in (b"", b"\xef\xbb\xbf"):
            path.write_bytes(bom + text.encode("utf-8"))
            assert main(argv) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0].err == outputs[1].err == ""
        assert outputs[0].out == outputs[1].out


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_determinism_across_invocations(self, armsrace_path, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["analyze", armsrace_path, "--out", str(out1)]) == 0
        assert main(["analyze", armsrace_path, "--out", str(out2)]) == 0
        assert out1.read_text(encoding="utf-8") == out2.read_text(encoding="utf-8")


class TestCollectorPaused:
    """main runs each command with the cyclic collector off and leaves it
    as it found it."""

    @pytest.fixture()
    def gc_state(self):
        was = gc.isenabled()
        yield
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "rows, argv, code",
        [
            ("a,b,1\nb,a,2\n", [], 0),
            ("a,b,1\nb,a,2\n", ["--cap", "0"], 1),
            ("a,b\n", [], 2),
            ("a,b,1e200\nb,a,1e200\n", [], 3),  # a product that overflows: JSON has no Infinity
        ],
    )
    def test_state_is_restored_for_every_exit_code(self, rows, argv, code, enabled, gc_state, tmp_path, capsys):
        path = tmp_path / "edges.csv"
        path.write_text(rows, encoding="utf-8")
        (gc.enable if enabled else gc.disable)()
        assert main(["graph-loops", str(path), *argv]) == code
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored_when_an_exception_escapes(self, enabled, gc_state, monkeypatch):
        seen = []

        def fail(args):
            seen.append(gc.isenabled())
            raise KeyError("escapes")

        monkeypatch.setattr(sl.cli, "cmd_gen", fail)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(KeyError):
            main(["gen", "--stocks", "2"])
        assert seen == [False]
        assert gc.isenabled() is enabled

    def test_no_collection_inside_a_listing_and_a_compare(self, gc_state, monkeypatch, tmp_path):
        """Left on, the collector walked the catalog's tuples whenever
        the young generation filled while a command built or read them.
        Paused, it runs once as main switches it back on, after the
        command has let go of its data, so the window is the command."""
        names = [f"n{i}" for i in range(8)]  # 16,064 circuits
        rows = [f"{a},{b},{0.1 + 0.01 * (i * 8 + j)!r}" for i, a in enumerate(names) for j, b in enumerate(names) if a != b]
        edges, catalog = tmp_path / "edges.csv", tmp_path / "catalog.json"
        edges.write_text("\n".join(rows) + "\n", encoding="utf-8")
        commands = [
            ["graph-loops", str(edges), "--cap", "5000", "--out", str(catalog)],
            ["compare", str(catalog), str(catalog), "--out", str(tmp_path / "report.json")],
        ]
        inside, collections = [], []

        def count(phase, info):
            if phase == "start" and inside:
                collections.append((inside[0], info["generation"]))

        def marked(name, command):
            def run(args):
                inside.append(name)
                try:
                    command(args)
                finally:
                    inside.clear()

            return run

        for name in ("cmd_graph_loops", "cmd_compare"):
            monkeypatch.setattr(sl.cli, name, marked(name, getattr(sl.cli, name)))
        gc.enable()
        gc.callbacks.append(count)
        try:
            for argv in commands:
                gc.collect()  # each command starts with an empty young generation
                assert main(argv) == 0
        finally:
            gc.callbacks.remove(count)
        assert collections == []
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert report["intersection_size"] == 5000
