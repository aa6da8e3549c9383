from __future__ import annotations

import dataclasses
import re

import pytest
from hypothesis import example, given, settings, strategies as st

import sdloops as sl
from reference import ReferenceLineParser, format_expr, print_model, reference_parse_statement, reference_tokenize_line
from sdloops import dsl, engine
from sdloops.dsl import Bin, Builtin, Call, If, Num, Ref, Unary, expr_refs


def diagnostics_of(text):
    with pytest.raises(sl.ModelError) as err:
        sl.parse_model(text)
    return err.value.diagnostics


class TestParse:
    def test_two_stock_shape(self, two_stock_model):
        model = two_stock_model
        assert len(model.variables) == 4
        assert [v.kind for v in model.variables] == ["stock", "stock", "flow", "flow"]
        assert model.variable("Stock_1").inflows == ("Flow_1",)
        graph = sl.dependency_graph(model)
        assert len(graph.edges) == 6

    def test_single_const(self):
        model = sl.parse_model("SPEC START = 0 STOP = 1 DT = 1\nCONST c = 5\n")
        assert len(model.variables) == 1
        assert sl.dependency_graph(model).edges == ()

    def test_unresolved_reference(self):
        diags = diagnostics_of("SPEC START = 0 STOP = 1 DT = 1\nFLOW f = g + 1\n")
        assert any("unresolved reference g" in d.message for d in diags)

    def test_duplicate_name(self):
        diags = diagnostics_of("SPEC START = 0 STOP = 1 DT = 1\nCONST a = 1\nAUX a = 2\n")
        assert any("duplicate name a" in d.message for d in diags)

    def test_lexical_error_location(self):
        diags = diagnostics_of("SPEC START = 0 STOP = 1 DT = 1\nCONST a = 1 $\n")
        assert any("unexpected character" in d.message and d.loc.line == 2 for d in diags)

    def test_syntax_error(self):
        diags = diagnostics_of("SPEC START = 0 STOP = 1 DT = 1\nAUX a = 1 +\n")
        assert any("expected expression" in d.message for d in diags)

    def test_missing_spec(self):
        diags = diagnostics_of("CONST a = 1\n")
        assert any("missing SPEC" in d.message for d in diags)

    def test_bad_run_spec(self):
        diags = diagnostics_of("SPEC START = 0 STOP = 0 DT = 1\n")
        assert any("STOP must be greater" in d.message for d in diags)
        diags = diagnostics_of("SPEC START = 0 STOP = 1 DT = 0.3\n")
        assert any("whole number of steps" in d.message for d in diags)

    def test_unattached_flow_is_warning(self):
        model = sl.parse_model("SPEC START = 0 STOP = 1 DT = 1\nFLOW f = 1\n")
        assert any("not attached" in w.message for w in model.warnings)

    def test_const_may_only_reference_consts(self):
        diags = diagnostics_of(
            "SPEC START = 0 STOP = 1 DT = 1\nAUX a = 1\nCONST c = a\n"
        )
        assert any("may only reference constants" in d.message for d in diags)

    def test_stock_initial_reference_kinds(self):
        diags = diagnostics_of(
            "SPEC START = 0 STOP = 1 DT = 1\n"
            "AUX a = 1\n"
            "FLOW f = 1\n"
            "STOCK s = a { inflow: f }\n"
        )
        assert any("initial value of s" in d.message for d in diags)

    def test_flow_list_must_name_flows(self):
        diags = diagnostics_of(
            "SPEC START = 0 STOP = 1 DT = 1\nAUX a = 1\nSTOCK s = 0 { inflow: a }\n"
        )
        assert any("not a declared FLOW" in d.message for d in diags)

    def test_flow_attached_twice_to_one_stock_rejected(self):
        diags = diagnostics_of(
            "SPEC START = 0 STOP = 1 DT = 1\nFLOW f = 1\nSTOCK s = 0 { inflow: f outflow: f }\n"
        )
        assert any("more than once" in d.message for d in diags)

    def test_flow_may_serve_two_stocks(self):
        model = sl.parse_model(
            "SPEC START = 0 STOP = 1 DT = 1\n"
            "FLOW f = 1\n"
            "STOCK a = 0 { outflow: f }\n"
            "STOCK b = 0 { inflow: f }\n"
        )
        assert sl.validate(model) == []

    def test_keywords_case_insensitive_identifiers_case_sensitive(self):
        model = sl.parse_model(
            "spec start = 0 stop = 1 dt = 1\nconst Value = 1\nconst value = 2\n"
        )
        assert {v.name for v in model.variables} == {"Value", "value"}

    def test_abs_arity(self):
        diags = diagnostics_of("SPEC START = 0 STOP = 1 DT = 1\nAUX a = ABS(1, 2)\n")
        assert any("ABS takes exactly one argument" in d.message for d in diags)

    def test_comments_and_blank_lines(self):
        model = sl.parse_model("# header\n\nSPEC START = 0 STOP = 1 DT = 1\nCONST c = 1  # tail\n")
        assert len(model.variables) == 1


class TestValidate:
    def test_two_stock_valid(self, two_stock_model):
        assert sl.validate(two_stock_model) == []

    def test_algebraic_loop_names_members(self):
        model = sl.parse_model("SPEC START = 0 STOP = 1 DT = 1\nAUX a = b\nAUX b = a\n")
        diags = sl.validate(model)
        assert len(diags) == 1
        assert "algebraic loop" in diags[0].message
        assert "a" in diags[0].message and "b" in diags[0].message

    def test_aux_self_reference(self):
        model = sl.parse_model("SPEC START = 0 STOP = 1 DT = 1\nAUX a = a + 1\n")
        diags = sl.validate(model)
        assert any("algebraic loop" in d.message for d in diags)

    def test_cycle_through_stock_is_fine(self, two_stock_model):
        assert sl.validate(two_stock_model) == []

    def test_circular_constants(self):
        model = sl.parse_model("SPEC START = 0 STOP = 1 DT = 1\nCONST a = b\nCONST b = a\n")
        assert any("circular constant" in d.message for d in sl.validate(model))

    def test_circular_stock_initials(self):
        model = sl.parse_model(
            "SPEC START = 0 STOP = 1 DT = 1\n"
            "FLOW f = 1\n"
            "STOCK s = q { inflow: f }\n"
            "STOCK q = s { inflow: f }\n"
        )
        assert any("circular initial value" in d.message for d in sl.validate(model))

    def test_arms_race_valid(self, arms_model):
        assert sl.validate(arms_model) == []


class TestDependencyGraph:
    def test_two_stock_edges(self, two_stock_model):
        graph = sl.dependency_graph(two_stock_model)
        assert set(graph.edges) == {
            ("Stock_1", "Flow_1"),
            ("Stock_2", "Flow_1"),
            ("Stock_1", "Flow_2"),
            ("Stock_2", "Flow_2"),
            ("Flow_1", "Stock_1"),
            ("Flow_2", "Stock_2"),
        }

    def test_deterministic(self, two_stock_model):
        g1 = sl.dependency_graph(two_stock_model)
        g2 = sl.dependency_graph(two_stock_model)
        assert g1.edges == g2.edges

    def test_arms_race_edges(self, arms_model):
        graph = sl.dependency_graph(arms_model)
        edges = set(graph.edges)
        for stock, own_flow, others in (
            ("A", "build_A", ("target_B", "target_C")),
            ("B", "build_B", ("target_A", "target_C")),
            ("C", "build_C", ("target_A", "target_B")),
        ):
            assert (stock, own_flow) in edges
            for target in others:
                assert (stock, target) in edges

    def test_stock_initial_references_contribute_no_edges(self):
        model = sl.parse_model(
            "SPEC START = 0 STOP = 1 DT = 1\n"
            "CONST c = 3\n"
            "FLOW f = c\n"
            "STOCK s = c { inflow: f }\n"
            "STOCK q = s { inflow: f }\n"
        )
        graph = sl.dependency_graph(model)
        assert set(graph.edges) == {("c", "f"), ("f", "s"), ("f", "q")}

    def test_single_stock_const_inflow(self):
        model = sl.parse_model(
            "SPEC START = 0 STOP = 1 DT = 1\nFLOW f = 2\nSTOCK s = 0 { inflow: f }\n"
        )
        assert sl.dependency_graph(model).edges == (("f", "s"),)


class TestRoundTrip:
    def test_fixture_round_trips(self, two_stock_model, arms_model):
        for model in (two_stock_model, arms_model):
            printed = print_model(model)
            assert sl.parse_model(printed) == model

    def test_synthetic_round_trips(self):
        for seed in range(5):
            spec = sl.SyntheticSpec(stocks=4, density=0.5, seed=seed)
            model = sl.parse_model(sl.gen_synthetic(spec))
            assert sl.parse_model(print_model(model)) == model

    def test_parens_preserved_structurally(self):
        model = sl.parse_model("SPEC START = 0 STOP = 1 DT = 1\nAUX a = (1 + 2) * 3 - 4 / (5 - 6)\n")
        assert sl.parse_model(print_model(model)) == model


# hypothesis: random expression trees survive print -> parse unchanged

_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False).map(Num),
    st.sampled_from(["x", "y", "z_2"]).map(Ref),
    st.sampled_from(["DT", "TIME"]).map(Builtin),
)


def _compound(children):
    return st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*", "/", "<", ">", "<=", ">=", "=", "<>", "AND", "OR"]), children, children)
        .map(lambda t: Bin(t[0], t[1], t[2])),
        st.tuples(st.sampled_from(["-", "NOT"]), children).map(lambda t: Unary(t[0], t[1])),
        st.tuples(children, children, children).map(lambda t: If(t[0], t[1], t[2])),
        st.tuples(st.sampled_from(["MIN", "MAX"]), st.lists(children, min_size=1, max_size=3))
        .map(lambda t: Call(t[0], tuple(t[1]))),
        children.map(lambda c: Call("ABS", (c,))),
    )


expr_trees = st.recursive(_leaf, _compound, max_leaves=25)


@given(expr_trees)
def test_expression_print_parse_round_trip(expr):
    text = f"SPEC START = 0 STOP = 1 DT = 1\nCONST x = 0\nCONST y = 1\nCONST z_2 = 2\nAUX probe = {format_expr(expr)}\n"
    model = sl.parse_model(text)
    assert model.variable("probe").expr == expr
    assert sl.parse_model(print_model(model)) == model


@given(expr_trees)
def test_expr_refs_finds_every_reference(expr):
    refs = expr_refs(expr)
    assert len(refs) == len(set(refs))
    assert set(refs) <= {"x", "y", "z_2"}
    printed = format_expr(expr)
    for name in ("x", "y", "z_2"):
        assert (name in refs) == bool(re.search(rf"\b{name}\b", printed))


# --------------------------------------------------------------------------
# The table-driven lexer and parser must agree with the reference front end
# on every line: tokens, trees, every `loc`, diagnostics and the stand-in
# declaration of a line that fails.

def _explicit(obj):
    """`obj` as nested tuples of type names and field values, with every
    `loc` (which node equality ignores) and floats by repr."""
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, (tuple, list)):
        return tuple(_explicit(x) for x in obj)
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__, *(_explicit(getattr(obj, f.name)) for f in dataclasses.fields(obj)))
    return obj


def _line_outcome(tokenize, parser_cls, parse_statement, line):
    """What parse_model keeps of one line, as parse_model handles it."""
    out = []
    parser = None
    try:
        tokens = tokenize(line, 3)
        out.append([(t.kind, t.text, repr(t.value), t.loc) for t in tokens])
        if tokens[0].kind != "end":
            parser = parser_cls(tokens)
            out.append(_explicit(parse_statement(parser)))
    except dsl._LineError as err:
        out.append(_explicit(err.diagnostic))
    except RecursionError:
        out.append("nested too deeply")
    if parser is not None:
        out.append(_explicit(parser.declared))
    return out


_REFERENCE = (reference_tokenize_line, ReferenceLineParser, reference_parse_statement)
_CURRENT = (dsl._tokenize_line, dsl._LineParser, dsl._parse_statement)


def _any_case(word):
    return st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda lower: "".join(c.lower() if low else c for c, low in zip(word, lower))
    )


_fragments = st.one_of(
    st.sampled_from(sorted(dsl.KEYWORDS)).flatmap(_any_case),
    st.sampled_from(
        ["x", "s_1", "Flow_2", "IFx", "e5", "0", "12", "3.5", "2e3", "1E-2", "1e+2", "1e999", "3.", ".5", "1e",
         "(", ")", "{", "}", ",", ":", "=", "+", "-", "*", "/", "<", ">", "<=", ">=", "<>", "=<", "><", "=="]
    ),
    st.text(alphabet="\t #.%\u0663$x1(\u00e9\u00b2\x0b", max_size=3),
    expr_trees.map(format_expr),
)
_line_heads = st.sampled_from(
    ["", "SPEC START = 0 STOP = 1 DT = 1", "spec Start =", "AUX a = ", "flow f =", "Stock s = 1 {",
     "CONST c = ", "STOCK s = 0 { inflow: f, g outflow: h }", "STOCK s = 0 { outflow: h, "]
)
_lines = st.builds(
    lambda head, parts: head + "".join(sep + part for sep, part in parts),
    _line_heads,
    st.lists(st.tuples(st.sampled_from(["", " ", "  ", "\t", "\r"]), _fragments), max_size=10),
)


@settings(max_examples=400)
@given(_lines)
@example("AUX a = 1 < 2 < 3")
@example("AUX a = NOT - not x Or y aNd z >= 1 + 2 * 3 / -4 - 5")
@example("SPEC START = \u0663 STOP = 1e999 DT = 0.5 # comment")
@example("STOCK s = 1 { inflow: f outflow: }")
@example("FLOW f = s +")
@example("AUX a = 1 $")
@example("AUX a = MAX(1, 2,) ")
@example("AUX a = IF x THEN 1")
@example("CONST 1 = 2")
def test_front_end_matches_reference(line):
    assert _line_outcome(*_CURRENT, line) == _line_outcome(*_REFERENCE, line)


@pytest.mark.parametrize(
    "nest",
    [lambda k: "(" * k + "s" + ")" * k, lambda k: "s - (" * k + "s" + ")" * k, lambda k: "-" * k + "s"],
    ids=["brackets", "right operands", "unary minus"],
)
def test_nesting_limit_matches_reference(nest):
    def too_deep(tokenize, parser_cls, parse_statement, k):
        parser = parser_cls(tokenize(f"AUX a = {nest(k)}", 3))
        try:
            parse_statement(parser)
        except RecursionError:
            return True
        return False

    ok, deep = 1, 2
    while not too_deep(*_REFERENCE, deep):
        ok, deep = deep, deep * 2
    while deep - ok > 1:  # the reference parses `ok` levels and fails at `deep`
        mid = (ok + deep) // 2
        ok, deep = (ok, mid) if too_deep(*_REFERENCE, mid) else (mid, deep)
    assert not too_deep(*_CURRENT, ok)
    assert too_deep(*_CURRENT, deep)


def test_parser_printer_and_compiler_share_one_operator_set():
    assert set(engine._BINARY_OPS) == set(dsl._LEVELS)
