"""Fuzz the CLI boundary: random model text, edge CSV and catalog JSON,
built from grammar fragments and from raw bytes (invalid UTF-8 included),
reach `analyze`, `simulate`, `graph-loops` and `compare`.  Whatever the
input, `main()` returns one of the documented exit codes 0-3 and never
raises.

Every generated run span is at most a few dozen steps: a valid long run
is not a fault, only a slow example."""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

import sdloops as sl
from sdloops.cli import main

_NAMES = ["s", "t", "f", "g", "a", "c"]
_names = st.sampled_from(_NAMES)
_numbers = st.sampled_from(["0", "1", "2", "0.5", "-1", "3", "1e999", "1e-320"])


def _combine(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        st.builds(lambda p, op: f"({p[0]} {op} {p[1]})", pairs, st.sampled_from("+-*/<>=")),
        st.builds(lambda p: f"(IF {p[0]} > {p[1]} THEN {p[0]} ELSE {p[1]})", pairs),
        st.builds(lambda p: f"MIN({p[0]}, {p[1]})", pairs),
        st.builds(lambda x: f"ABS({x})", children),
        st.builds(lambda x: f"-{x}", children),
    )


_exprs = st.recursive(st.one_of(_names, _numbers, st.sampled_from(["DT", "TIME"])), _combine, max_leaves=6)
# at most (24 + 1) / 0.5 = 50 steps; every other span is rejected
_spec_lines = st.one_of(
    st.just("SPEC START = 0 STOP = 5 DT = 1"),
    st.builds(
        "SPEC START = {} STOP = {} DT = {}".format,
        st.sampled_from(["0", "1", "-1", "1e999"]),
        st.sampled_from(["0", "5", "24", "-3", "1e999"]),
        st.sampled_from(["1", "0.5", "0", "-1", "0.3", "1e999", "1e-320"]),
    ),
)
_flow_lists = st.lists(_names, max_size=2).map(", ".join)
_declarations = st.one_of(
    st.builds("{} {} = {}".format, st.sampled_from(["CONST", "AUX", "FLOW"]), _names, _exprs),
    st.builds("STOCK {} = {} {{ inflow: {} }}".format, _names, _exprs, _flow_lists),
    st.builds("STOCK {} = {} {{ inflow: {} outflow: {} }}".format, _names, _exprs, _flow_lists, _flow_lists),
    st.text(alphabet=" (){}:=,+-*/<>#stfgac1.", max_size=20),
)
_stock_exprs = st.recursive(st.one_of(st.sampled_from(["s", "t", "c"]), _numbers), _combine, max_leaves=4)
# declarations that are well formed together: two stocks, a transfer flow
# between them, an inflow and an auxiliary
_valid_declarations = st.builds(
    (
        "CONST c = {}\nAUX a = {}\nFLOW f = {}\nFLOW g = {}\n"
        "STOCK s = {} {{ inflow: f }}\nSTOCK t = {} {{ inflow: g outflow: f }}"
    ).format,
    _numbers,
    _stock_exprs,
    _stock_exprs.map(lambda e: f"a * {e}"),
    _stock_exprs,
    _numbers,
    _numbers,
)
_model_text = st.builds(
    lambda spec, lines: "\n".join([spec, *lines]) + "\n",
    _spec_lines,
    st.one_of(st.lists(_declarations, max_size=6), _valid_declarations.map(lambda text: [text])),
)

_weights = st.sampled_from(["1", "-0.5", "2", "0", "1e200", "nan", "inf", "1e400", "x", ""])
_edge_rows = st.one_of(
    st.builds("{},{},{}".format, _names, _names, _weights),
    st.text(alphabet="stfg,01. ", max_size=12),
)
_edge_text = st.builds(
    lambda header, rows: "\n".join((["src,dst,weight"] if header else []) + rows) + "\n",
    st.booleans(),
    st.lists(_edge_rows, max_size=8),
)

_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.sampled_from(_NAMES + ["", "1e999"])
)
_json_junk = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3), st.dictionaries(st.sampled_from(["cycle", "loops", "x"]), children, max_size=3)
    ),
    max_leaves=8,
)
_loop_entries = st.one_of(
    st.fixed_dictionaries(
        {},
        optional={
            "cycle": st.one_of(st.lists(_names, max_size=4), _json_junk),
            "discovery_score": st.one_of(st.floats(), _json_junk),
            "found_at": st.one_of(st.sampled_from(["static", 0, 3]), _json_junk),
        },
    ),
    _json_junk,
)
_catalog_text = st.one_of(
    st.builds(lambda loops: json.dumps({"loops": loops}), st.lists(_loop_entries, max_size=4)),
    _json_junk.map(json.dumps),
)


def _file(text):
    """Grammar text (drawn twice as often); the same text with a byte that
    is never UTF-8 put somewhere in it; or raw bytes."""
    utf8 = text.map(lambda t: t.encode("utf-8"))
    return st.one_of(
        utf8,
        utf8,
        st.builds(
            lambda t, at: (t[:at] + "\udcff" + t[at:]).encode("utf-8", "surrogateescape"), text, st.integers(0, 200)
        ),
        st.binary(max_size=120),
    )


_span_values = st.sampled_from(["nan", "inf", "-inf", "1e999", "1e-320", "0", "1", "-1", "0.5", "12", "x"])
_span_flags = st.one_of(
    st.just([]),
    st.lists(st.tuples(st.sampled_from(["--start", "--stop", "--dt"]), _span_values).map(list), max_size=3),
)
_analyze_flags = st.lists(
    st.one_of(
        st.tuples(st.just("--method"), st.sampled_from(["auto", "exhaustive", "strongest-path"])),
        st.tuples(st.sampled_from(["--cap", "--stride", "--top"]), st.sampled_from(["0", "1", "3", "50"])),
        st.tuples(st.just("--threshold"), st.sampled_from(["0", "0.5", "1", "nan"])),
    ).map(list),
    max_size=3,
)
_graph_flags = st.lists(
    st.one_of(
        st.tuples(st.just("--method"), st.sampled_from(["exhaustive", "strongest-path"])),
        st.tuples(st.just("--start"), st.sampled_from(["all", "s", "zz"])),
        st.tuples(st.just("--cap"), st.sampled_from(["0", "1", "5"])),
    ).map(list),
    max_size=3,
)
_compare_flags = st.lists(
    st.one_of(
        st.just(["--model", "model"]),
        st.tuples(st.just("--top"), st.sampled_from(["0", "2"])).map(list),
        st.tuples(st.just("--near-miss-ratio"), st.sampled_from(["nan", "0.5", "2"])).map(list),
    ),
    max_size=2,
)


def _invocation(command, inputs, flags, files):
    return st.builds(
        lambda flag_pairs, contents: ((command, *inputs, *(x for pair in flag_pairs for x in pair)), contents),
        flags,
        st.fixed_dictionaries(files),
    )


_invocations = st.one_of(
    _invocation("simulate", ["model"], _span_flags, {"model": _file(_model_text)}),
    _invocation(
        "analyze",
        ["model"],
        st.builds(lambda a, b: a + b, _span_flags, _analyze_flags),
        {"model": _file(_model_text)},
    ),
    _invocation("graph-loops", ["edges"], _graph_flags, {"edges": _file(_edge_text)}),
    _invocation(
        "compare",
        ["ref", "cand"],
        _compare_flags,
        {"ref": _file(_catalog_text), "cand": _file(_catalog_text), "model": _file(_model_text)},
    ),
)

_GEN3 = sl.gen_synthetic(sl.SyntheticSpec(stocks=3)).encode("utf-8")


@settings(max_examples=120, deadline=None)
@given(_invocations)
@example((("simulate", "model", "--dt", "nan"), {"model": _GEN3}))
@example((("simulate", "model", "--stop", "inf"), {"model": _GEN3}))
@example((("simulate", "model", "--stop=1", "--dt=1e-320"), {"model": _GEN3}))
@example((("simulate", "model", "--start=-1e308", "--stop=1e308"), {"model": _GEN3}))
@example((("analyze", "model"), {"model": _GEN3.replace(b"STOP = 100", b"STOP = 1e999")}))
@example((("compare", "ref", "cand"), {"ref": b"[" * 100_000, "cand": b"[" * 100_000}))
def test_main_returns_a_documented_exit_code(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            Path(tmp, name).write_bytes(content)
        argv = [str(Path(tmp, arg)) if arg in files else arg for arg in argv]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2, 3)
