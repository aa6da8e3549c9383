from __future__ import annotations

import gc
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

import reference
import sdloops as sl
from reference import print_model
from sdloops.dsl import Bin, Builtin, Call, If, Num, Ref, Unary, expr_refs, iter_if_nodes
from sdloops.engine import compile_expr, run_to_csv
from strategies import DIVIDES_AT_ONE_MIXED_POINT, DIVIDES_BY_ZERO, DIVIDES_INSIDE_IF_AT_ONE_STEP
from strategies import models, synthetic_models


class TestEvaluationOrder:
    def test_two_stock_declaration_order(self, two_stock_model):
        assert sl.evaluation_order(two_stock_model) == ["Flow_1", "Flow_2"]

    def test_chain_forced_by_dependency(self):
        model = sl.parse_model(
            "SPEC START = 0 STOP = 1 DT = 1\nCONST c0 = 1\nAUX a = b\nAUX b = c0\n"
        )
        assert sl.evaluation_order(model) == ["b", "a"]

    def test_arms_race_targets_precede_flows(self, arms_model):
        order = sl.evaluation_order(arms_model)
        for party in "ABC":
            assert order.index(f"target_{party}") < order.index(f"build_{party}")

    def test_stocks_and_consts_excluded(self, arms_model):
        order = sl.evaluation_order(arms_model)
        assert set(order) == {f"target_{p}" for p in "ABC"} | {f"build_{p}" for p in "ABC"}


class TestSimulate:
    def test_two_stock_doubles(self, two_stock_run):
        assert two_stock_run.values["Stock_1"] == [float(2**k) for k in range(13)]
        assert two_stock_run.values["Stock_2"] == [float(2**k) for k in range(13)]

    def test_times(self, two_stock_run):
        assert two_stock_run.times == tuple(float(t) for t in range(13))

    def test_zero_net_flow_constant_stock(self):
        model = sl.parse_model(
            "SPEC START = 0 STOP = 5 DT = 1\n"
            "FLOW fill = 3\n"
            "FLOW drain = 3\n"
            "STOCK s = 7 { inflow: fill outflow: drain }\n"
        )
        run = sl.simulate(model)
        assert run.values["s"] == [7.0] * 6

    def test_euler_identity_exact(self, two_stock_model, two_stock_run):
        run = two_stock_run
        dt = run.dt
        for stock in two_stock_model.by_kind("stock"):
            for k in range(run.n):
                net = sum(run.values[f][k] for f in stock.inflows) - sum(
                    run.values[f][k] for f in stock.outflows
                )
                assert run.values[stock.name][k + 1] == run.values[stock.name][k] + dt * net

    def test_division_by_zero_aborts_with_location(self):
        model = sl.parse_model(
            "SPEC START = 0 STOP = 5 DT = 1\n"
            "FLOW drain = 1\n"
            "STOCK x = 2 { outflow: drain }\n"
            "AUX f = 1 / x\n"
        )
        with pytest.raises(sl.SimulationError) as err:
            sl.simulate(model)
        assert err.value.variable == "f"
        assert err.value.step == 2  # x: 2, 1, 0
        assert "division by zero" in str(err.value)

    def test_non_finite_aborts(self):
        model = sl.parse_model(
            "SPEC START = 0 STOP = 400 DT = 1\n"
            "FLOW f = s * 10\n"
            "STOCK s = 1e300 { inflow: f }\n"
        )
        with pytest.raises(sl.SimulationError) as err:
            sl.simulate(model)
        assert "non-finite" in str(err.value)

    def test_determinism(self, two_stock_model):
        a = sl.simulate(two_stock_model)
        b = sl.simulate(two_stock_model)
        assert a.values == b.values
        assert a.branch_trace == b.branch_trace

    def test_branch_trace_total(self, two_stock_run):
        for name, slots in two_stock_run.branch_trace.items():
            for slot in slots:
                assert all(isinstance(b, bool) for b in slot[: two_stock_run.n])

    def test_branch_trace_two_stock_pattern(self, two_stock_run):
        f1 = two_stock_run.branch_trace["Flow_1"][0]
        f2 = two_stock_run.branch_trace["Flow_2"][0]
        assert [k for k in range(13) if f1[k]] == list(range(6, 13))   # Stock_2 > 50 from t=6
        assert [k for k in range(13) if f2[k]] == [4]                  # 10 < Stock_1 < 20 at t=4 only

    def test_halved_dt_keeps_per_step_branches(self, two_stock_model, two_stock_run):
        # Flow = stock/DT doubles its stock every step at any dt, so the
        # per-step branch decisions are unchanged when dt is halved and the
        # step count doubled; the first then-branch stays at step 4.
        half = sl.simulate(two_stock_model, sl.RunSpec(0.0, 12.0, 0.5))
        full = two_stock_run
        for name in ("Flow_1", "Flow_2"):
            for slot in range(len(full.branch_trace[name])):
                full_steps = full.branch_trace[name][slot][: full.n]
                half_steps = half.branch_trace[name][slot][: full.n]
                assert half_steps == full_steps

    def test_time_builtin(self):
        model = sl.parse_model("SPEC START = 2 STOP = 6 DT = 2\nAUX now = TIME\n")
        run = sl.simulate(model)
        assert run.values["now"] == [2.0, 4.0, 6.0]

    def test_initials_may_chain_through_consts_and_stocks(self):
        model = sl.parse_model(
            "SPEC START = 0 STOP = 1 DT = 1\n"
            "CONST c = 4\n"
            "FLOW f = 0\n"
            "STOCK a = c * 2 { inflow: f }\n"
            "STOCK b = a + 1 { inflow: f }\n"
        )
        run = sl.simulate(model)
        assert run.values["a"][0] == 8.0
        assert run.values["b"][0] == 9.0

    def test_initials_see_override_spec(self):
        model = sl.parse_model(
            "SPEC START = 0 STOP = 4 DT = 1\n"
            "FLOW f = 0\n"
            "STOCK s = DT + TIME { inflow: f }\n"
        )
        run = sl.simulate(model, sl.RunSpec(10.0, 12.0, 0.5))
        assert run.values["s"][0] == 10.5

    def test_min_max_abs_and_logic(self):
        model = sl.parse_model(
            "SPEC START = 0 STOP = 1 DT = 1\n"
            "AUX a = MIN(3, 7, -2)\n"
            "AUX b = MAX(3, 7)\n"
            "AUX c = ABS(-5)\n"
            "AUX d = NOT 0\n"
            "AUX e = (1 < 2) AND (2 <> 3)\n"
            "AUX f = (1 = 2) OR 0\n"
        )
        run = sl.simulate(model)
        assert run.values["a"][0] == -2.0
        assert run.values["b"][0] == 7.0
        assert run.values["c"][0] == 5.0
        assert run.values["d"][0] == 1.0
        assert run.values["e"][0] == 1.0
        assert run.values["f"][0] == 0.0

    def test_single_argument_min(self):
        model = sl.parse_model("SPEC START = 0 STOP = 1 DT = 1\nCONST x = 3\nAUX a = MIN(x)\nAUX b = MAX(-x)\n")
        run = sl.simulate(model)
        assert run.values["a"] == [3.0, 3.0]
        assert run.values["b"] == [-3.0, -3.0]

    def test_infinite_literal_aborts_at_step_zero(self):
        model = sl.parse_model("SPEC START = 0 STOP = 1 DT = 1\nCONST c = 1e999\nAUX a = c\n")
        with pytest.raises(sl.SimulationError) as err:
            sl.simulate(model)
        assert err.value.variable == "c"
        assert err.value.step == 0
        assert "non-finite value" in str(err.value)

    def test_first_failing_initial_value_in_dependency_order_is_named(self):
        # c and b are both ready before a; c is declared first, so it fails first
        model = sl.parse_model("SPEC START = 0 STOP = 1 DT = 1\nCONST a = b\nCONST c = 1 / 0\nCONST b = 1 / 0\n")
        with pytest.raises(sl.SimulationError) as err:
            sl.simulate(model)
        assert err.value.variable == "c"
        assert err.value.step == 0


class TestCsv:
    def test_round_trip_exact(self, two_stock_model):
        run = sl.simulate(two_stock_model, sl.RunSpec(0.0, 3.0, 1.0))
        text = run_to_csv(run)
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        assert header == ["time", "Stock_1", "Stock_2", "Flow_1", "Flow_2"]
        assert len(lines) == 1 + 4
        for k, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert float(cells[0]) == run.times[k]
            for name, cell in zip(header[1:], cells[1:]):
                assert float(cell) == run.values[name][k]

    def test_irrational_values_round_trip(self):
        model = sl.parse_model(
            "SPEC START = 0 STOP = 2 DT = 1\nFLOW f = s / 3\nSTOCK s = 1 { inflow: f }\n"
        )
        run = sl.simulate(model)
        lines = run_to_csv(run).strip().splitlines()
        col = lines[0].split(",").index("s")
        row = lines[-1].split(",")
        assert float(row[col]) == run.values["s"][2]


class TestCompileExpr:
    def test_names_reach_the_source_only_as_literals(self):
        name = "x'] + __import__('os').getpid() + v['x"
        f = compile_expr(Bin("+", Ref(name), Num(1.0)))
        assert f({name: 2.0}, 0.0, 1.0, []) == 3.0

    @pytest.mark.parametrize(
        "node",
        [Bin("**", Num(2.0), Num(3.0)), Unary("~", Num(1.0)), Call("SQRT", (Num(4.0),))],
    )
    def test_unknown_operator_or_function_raises_at_compile_time(self, node):
        with pytest.raises(ValueError):
            compile_expr(node)

    def test_gated_if_without_recorded_branch_raises(self):
        f = compile_expr(If(Ref("x"), Num(1.0), Num(2.0)), column=True)
        assert f([0.0, 1.0], 1.0, range(2), [0.0, 0.0], [False, True]) == [2.0, 1.0]
        with pytest.raises(ValueError):
            f([0.0], 1.0, range(1), [0.0], [None])


# hypothesis: compiled equations against reference.eval_expr, the interpreter they replaced


_NAMES = ("x", "y", "z")
_numbers = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e308, float("inf")]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_leaf = st.one_of(
    _numbers.map(Num),
    st.sampled_from(_NAMES).map(Ref),
    st.sampled_from(["DT", "TIME"]).map(Builtin),
)
_OPS = ["+", "-", "*", "/", "<", ">", "<=", ">=", "=", "<>", "AND", "OR"]


def _compound(children):
    ifs = st.builds(If, children, children, children)
    return st.one_of(
        st.builds(Bin, st.sampled_from(_OPS), children, children),
        st.builds(Unary, st.sampled_from(["-", "NOT"]), children),
        ifs,
        st.builds(If, ifs, children, children),  # an IF inside a condition
        st.builds(Bin, st.sampled_from(["AND", "OR"]), children, ifs),  # evaluated right operand
        st.builds(Call, st.sampled_from(["MIN", "MAX"]), st.lists(children, min_size=1, max_size=3).map(tuple)),
        st.builds(lambda a: Call("ABS", (a,)), children),
    )


_trees = st.recursive(_leaf, _compound, max_leaves=25)
_envs = st.fixed_dictionaries({name: _numbers for name in _NAMES})


def _outcome(evaluate):
    """repr of the result, or the type of the exception raised."""
    try:
        return repr(evaluate())
    except Exception as err:
        return type(err).__name__


def _slots(expr):
    return {id(n): i for i, n in enumerate(iter_if_nodes(expr))}


@settings(max_examples=200, deadline=None)
@given(_trees, _envs, _numbers, _numbers)
def test_record_form_matches_reference(expr, env, t, dt):
    n = len(iter_if_nodes(expr))
    expected, got = [None] * n, [None] * n
    want = _outcome(lambda: reference.eval_expr(expr, dict(env), t, dt, _slots(expr), record=expected))
    assert _outcome(lambda: compile_expr(expr)(dict(env), t, dt, got)) == want
    assert got == expected


@settings(max_examples=200, deadline=None)
@given(_trees, _envs, _numbers, _numbers, st.data())
def test_gated_form_matches_override(expr, env, t, dt, data):
    n = len(iter_if_nodes(expr))
    branches = data.draw(st.lists(st.sampled_from([True, False, None]), min_size=n, max_size=n))
    want = _outcome(lambda: reference.eval_expr(expr, dict(env), t, dt, _slots(expr), override=branches))
    # the column form over one step: TIME, each name and each IF slot is a column of one
    columns = [[env[name]] for name in expr_refs(expr)] + [[b] for b in branches]
    assert _outcome(lambda: compile_expr(expr, column=True)([t], dt, range(1), *columns)[0]) == want


# synthetic models: every one has loops, so the catalogs compared are not all empty
_declarations = st.one_of(models(), synthetic_models())


@settings(max_examples=40, deadline=None)
@given(_declarations, st.data())
def test_declaration_order_changes_nothing(lines, data):
    """Metamorphic check: permuting the declaration lines leaves every
    value, every link score and the exhaustive catalog unchanged, or the
    step at which the run fails."""
    observed = []
    for order in (lines, data.draw(st.permutations(lines))):
        model = sl.parse_model("\n".join(order) + "\n")
        assert sl.validate(model) == []
        try:
            run = sl.simulate(model)
        except sl.SimulationError as err:
            observed.append(err.step)  # of the variables that fail at a step, the order picks one
            continue
        series = sl.score_all(model, run)
        catalog = sl.discover(model, series, cap=10_000, method="exhaustive")
        assert not catalog.overflow
        observed.append(
            (
                {name: repr(run.values[name]) for name in run.variables},
                {edge: repr(scores) for edge, scores in series.series.items()},
                {rec.cycle: rec.discovery_score for rec in catalog.loops()},
            )
        )
    assert observed[0] == observed[1]


def _renamed(node, names: dict[str, str]):
    """An expression tree with every reference renamed through `names`."""
    if isinstance(node, Ref):
        return Ref(names[node.name])
    if isinstance(node, Unary):
        return Unary(node.op, _renamed(node.operand, names))
    if isinstance(node, Bin):
        return Bin(node.op, _renamed(node.left, names), _renamed(node.right, names))
    if isinstance(node, If):
        return If(_renamed(node.cond, names), _renamed(node.then, names), _renamed(node.orelse, names))
    if isinstance(node, Call):
        return Call(node.fn, tuple(_renamed(arg, names) for arg in node.args))
    return node


# fresh identifiers: mixed case, and keywords in any case with a suffix
# (IFx, and_1, Dt_2), which the lexer must read as identifiers
_keyword_like = st.builds(
    lambda word, lower, suffix: "".join(c.lower() if low else c for c, low in zip(word, lower)) + suffix,
    st.sampled_from(sorted(sl.dsl.KEYWORDS)),
    st.lists(st.booleans(), min_size=7, max_size=7),
    st.sampled_from(["x", "X", "_1", "_2", "0", "_"]),
)
_fresh_names = st.one_of(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True), _keyword_like).filter(
    lambda name: name.upper() not in sl.dsl.KEYWORDS
)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(st.sampled_from([sl.TWO_STOCK.source, sl.ARMS_RACE.source]), _declarations.map("\n".join)),
    st.data(),
)
def test_renaming_changes_nothing_but_names(text, data):
    """Metamorphic check: renaming every variable, through printed text,
    leaves values, link scores and the exhaustive catalog unchanged up to
    the renaming, or the step at which the run fails."""
    model = sl.parse_model(text)
    fresh = data.draw(st.lists(_fresh_names, min_size=len(model.variables), max_size=len(model.variables), unique=True))
    names = dict(zip(model.names(), fresh))
    renamed = sl.Model(
        tuple(
            sl.Variable(
                names[v.name], v.kind, _renamed(v.expr, names),
                tuple(names[f] for f in v.inflows), tuple(names[f] for f in v.outflows),
            )
            for v in model.variables
        ),
        model.run_spec,
    )
    observed = []
    for m in (model, sl.parse_model(print_model(renamed))):
        assert sl.validate(m) == []
        try:
            run = sl.simulate(m)
        except sl.SimulationError as err:
            observed.append(err.step)
            continue
        series = sl.score_all(m, run)
        catalog = sl.discover(m, series, cap=10_000, method="exhaustive")
        assert not catalog.overflow
        observed.append((run, series, catalog))
    if not all(isinstance(o, tuple) for o in observed):
        assert observed[0] == observed[1]
        return
    (run, series, catalog), (run2, series2, catalog2) = observed
    assert {names[v]: repr(values) for v, values in run.values.items()} == {
        v: repr(values) for v, values in run2.values.items()
    }
    assert {(names[s], names[d]): repr(scores) for (s, d), scores in series.series.items()} == {
        edge: repr(scores) for edge, scores in series2.series.items()
    }
    assert {sl.canonical_form(names[v] for v in cycle) for cycle in catalog.cycles()} == catalog2.cycles()


# --------------------------------------------------------------------------
# hypothesis: the step loop against the one that looked everything up by name


def _simulation(simulate, model):
    """A run's values as bits, its branch trace, times and variables; or
    the SimulationError it raised, with its variable, step and location."""
    try:
        run = simulate(model)
    except sl.SimulationError as err:
        return ("error", str(err), err.variable, err.step, err.loc)
    values = {name: struct.pack(f"{len(column)}d", *column) for name, column in run.values.items()}
    return ("run", values, run.branch_trace, run.times, run.variables)


_FLOW_OVERFLOWS = "SPEC START = 0 STOP = 4 DT = 1\nSTOCK s = 1e100 { inflow: f }\nFLOW f = s * s\n"
_STOCK_OVERFLOWS = (
    "SPEC START = 0 STOP = 4 DT = 1\nSTOCK s = 1e308 { inflow: f, g }\nFLOW f = s\nFLOW g = IF s > 0 THEN s ELSE 0\n"
)


@settings(max_examples=300, deadline=None)
@given(models().map(lambda lines: sl.parse_model("\n".join(lines) + "\n")))
@example(sl.parse_model(DIVIDES_BY_ZERO))
@example(sl.parse_model(_FLOW_OVERFLOWS))
@example(sl.parse_model(_STOCK_OVERFLOWS))
# a lone -0.0 inflow adds 0.0, and an IF in an AUX that a flow reads
@example(sl.parse_model(
    "SPEC START = 0 STOP = 3 DT = 1\nSTOCK s = 0 { inflow: f outflow: g }\n"
    "AUX a = IF s > 0 THEN MIN(s, 1) ELSE ABS(s - 1)\nFLOW f = 0 * -1\nFLOW g = -a\n"
))
# a mixed point that divides by zero at one step only: that edge is scored again step by step
@example(sl.parse_model(DIVIDES_AT_ONE_MIXED_POINT))
@example(sl.parse_model(DIVIDES_INSIDE_IF_AT_ONE_STEP))
# sums of three flows whose bits depend on the order they are added in
@example(sl.parse_model(
    "SPEC START = 0 STOP = 2 DT = 1\nSTOCK s = 0 { inflow: a, b, c outflow: d, e, f }\n"
    "FLOW a = 0.1\nFLOW b = 0.2\nFLOW c = 0.3\nFLOW d = 0.3\nFLOW e = 0.2\nFLOW f = 0.1\n"
))
def test_simulate_and_score_all_match_reference(model):
    """The run, and then its link scores at every step (by repr), equal the references'."""
    outcome = _simulation(sl.simulate, model)
    assert outcome == _simulation(reference.simulate, model)
    if outcome[0] == "run":
        run = sl.simulate(model)
        series = sl.score_all(model, run)
        for k in range(1, run.n + 1):
            want = reference.reference_link_score_step(model, run, k)
            assert {e: repr(scores[k]) for e, scores in series.series.items()} == {e: repr(s) for e, s in want.items()}


@pytest.mark.parametrize(
    "text, variable, step",
    [(DIVIDES_BY_ZERO, "f", 1), (_FLOW_OVERFLOWS, "f", 1), (_STOCK_OVERFLOWS, "s", 1)],
)
def test_simulation_errors_match_reference(text, variable, step):
    model = sl.parse_model(text)
    outcome = _simulation(sl.simulate, model)
    assert outcome[0] == "error" and outcome[2:4] == (variable, step)
    assert outcome == _simulation(reference.simulate, model)


# --------------------------------------------------------------------------
# the generated run function: each case against reference.simulate, which
# calls one compiled equation at a time


def _by_repr(simulate, model):
    """A run's values and branch trace by repr, or the error it raised
    (ModelError or SimulationError, with its variable, step and location)."""
    try:
        run = simulate(model)
    except sl.SimulationError as err:
        return ("error", str(err), err.variable, err.step, err.loc)
    except sl.ModelError as err:
        return ("model error", str(err))
    return ("run", {name: repr(column) for name, column in run.values.items()}, repr(run.branch_trace))


def _matches_reference(model):
    model = sl.parse_model(model) if isinstance(model, str) else model
    outcome = _by_repr(sl.simulate, model)
    assert outcome == _by_repr(reference.simulate, model)
    return outcome


_SPEC = "SPEC START = 0 STOP = 5 DT = 1\n"


@pytest.mark.parametrize(
    "text",
    [
        _SPEC + "CONST c = 2\nAUX a = c * TIME\nAUX b = IF a > 2 THEN a ELSE -a\n",  # no stock
        _SPEC + "CONST c = 2\nSTOCK s = c { }\nSTOCK r = s + 1 { }\n",  # no aux or flow
        _SPEC + "CONST c = 2\n",
    ],
    ids=["no stock", "no aux or flow", "constants only"],
)
def test_models_without_stocks_or_equations(text):
    assert _matches_reference(text)[0] == "run"


def test_names_of_the_generated_source_are_model_names_too():
    # dt is a keyword of the language, so this model is built without the parser
    variables = [
        sl.Variable("k", "const", Num(0.5)),
        sl.Variable("t", "stock", Bin("*", Ref("k"), Num(2.0)), ("n",), ("c",)),
        sl.Variable("n", "flow", Bin("*", Ref("t"), Ref("k"))),
        sl.Variable("c", "flow", If(Bin(">", Ref("t"), Num(1.2)), Ref("dt"), Num(0.0))),
        sl.Variable("dt", "aux", Bin("-", Ref("t"), Num(1.0))),
    ]
    chain = ["dt", "T", "x0", "X0", "b0", "c0", "lambda", "None", "cells", "_take", "range"]
    for prev, name in zip(chain, chain[1:]):
        variables.append(sl.Variable(name, "aux", Bin("+", Bin("*", Ref(prev), Builtin("DT")), Builtin("TIME"))))
    model = sl.Model(tuple(variables), sl.RunSpec(0.0, 6.0, 0.5))
    assert sl.validate(model) == []
    assert _matches_reference(model)[0] == "run"


def test_signed_and_infinite_numbers_keep_their_bits():
    # the parser makes only unsigned numbers: these come from a model built in code
    variables = [
        sl.Variable("s", "stock", Num(1.0), ("f",)),
        sl.Variable("f", "flow", Bin("*", Num(-0.0), Ref("s"))),
        sl.Variable("a", "aux", Bin("+", Num(-2.5), Unary("-", Num(-0.0)))),
        sl.Variable("g", "aux", If(Bin(">", Builtin("TIME"), Num(100.0)), Num(float("inf")), Bin("*", Num(1e308), Num(0.5)))),
    ]
    model = sl.Model(tuple(variables), sl.RunSpec(0.0, 3.0, 1.0))
    assert sl.validate(model) == []
    assert _matches_reference(model)[0] == "run"
    assert repr(sl.simulate(model).values["f"]) == repr([-0.0] * 4)


def test_names_of_the_generated_source_parse_and_run():
    text = _SPEC + "CONST lambda = 0.5\nSTOCK None = 1 { inflow: k }\nFLOW k = lambda * None\nAUX T = k + TIME\n"
    assert _matches_reference(text)[0] == "run"


# at step 2, s = 3: big overflows to inf and d divides by zero
_BIG = "AUX big = IF s > 2 THEN 1e300 * 1e300 ELSE 0\n"
_DIVIDES = "AUX d = 1 / (s - 3)\n"
_RAMP = _SPEC + "FLOW f = 1\nSTOCK s = 1 { inflow: f }\n"


@pytest.mark.parametrize(
    "text, variable, message",
    [(_RAMP + _BIG + _DIVIDES, "big", "non-finite value"), (_RAMP + _DIVIDES + _BIG, "d", "division by zero")],
    ids=["non-finite first", "division first"],
)
def test_first_failure_of_a_step_in_evaluation_order(text, variable, message):
    outcome = _matches_reference(text)
    assert outcome[0] == "error" and outcome[2:4] == (variable, 2)
    assert outcome[1].startswith(message)


def test_stock_overflow_is_reported_at_the_next_step():
    # s doubles from 1e307: 1.6e308 at step 4, inf at step 5
    outcome = _matches_reference(_SPEC + "STOCK s = 1e307 { inflow: f }\nFLOW f = s\n")
    assert outcome[0] == "error" and outcome[2:4] == ("s", 5)
    assert outcome[1].startswith("non-finite value")


def test_if_nested_in_an_untaken_branch_records_nothing():
    model = sl.parse_model(_RAMP + "AUX a = IF s > 2 THEN (IF s > 4 THEN 1 ELSE 2) ELSE 0\n")
    assert _matches_reference(model)[0] == "run"
    outer, inner = sl.simulate(model).branch_trace["a"]  # s = 1, 2, ..., 6
    assert outer == [False, False, True, True, True, True]
    assert inner == [None, None, False, False, True, True]


def test_too_deep_equation_among_others_is_named():
    deep = " AND ".join(f"s > {i}" for i in range(120))
    text = _SPEC + f"STOCK s = 1 {{ inflow: f1, f2, f3 }}\nFLOW f1 = s\nFLOW f2 = {deep}\nFLOW f3 = 2 * s\n"
    outcome = _matches_reference(text)
    assert outcome == ("model error", "error: equation of f2 is nested too deeply to compile (line 4, col 6)")


def test_long_aux_chain_matches_reference():
    chain = "".join(f"AUX a_{i} = a_{i - 1} * 0.999 + 0.001\n" for i in range(1, 3001))
    text = "SPEC START = 0 STOP = 3 DT = 1\nSTOCK a_0 = 1 { inflow: f }\nFLOW f = 0.01 * a_3000\n" + chain
    assert _matches_reference(text)[0] == "run"


def test_simulating_and_scoring_leave_no_reference_cycle():
    """The CLI runs each command with the cyclic collector off, so a cycle
    made while compiling equations would stay until the command ends."""
    model = sl.parse_model(_RAMP + "AUX a = IF s > 2 THEN (IF s > 4 THEN 1 ELSE 2) ELSE MIN(s, 3)\n")
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        sl.score_all(model, sl.simulate(model))
        compile_expr(model.variable("a").expr)
        found = gc.collect()
    finally:
        if was:
            gc.enable()
    assert found == 0
