from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import sdloops as sl
from sdloops.dsl import Bin, Builtin, Call, If, Num, Ref, Unary, iter_if_nodes
from sdloops.engine import compile_expr, run_to_csv


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
        f = compile_expr(If(Ref("x"), Num(1.0), Num(2.0)), gated=True)
        assert f({}, 0.0, 1.0, [False]) == 2.0
        with pytest.raises(ValueError):
            f({}, 0.0, 1.0, [None])


# hypothesis: compiled equations against the tree-walking interpreter they
# replaced, kept here as the reference


def eval_expr(node, values, t, dt, slots=None, record=None, override=None):
    """Evaluate an expression tree against a value environment.

    With `record`, the branch of every evaluated IF node is written into
    record[slot].  With `override`, IF nodes take the recorded branch and
    their conditions are not evaluated at all (branch-gated evaluation).
    """
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Ref):
        return values[node.name]
    if isinstance(node, Builtin):
        return dt if node.name == "DT" else t
    if isinstance(node, Unary):
        v = eval_expr(node.operand, values, t, dt, slots, record, override)
        return -v if node.op == "-" else (1.0 if v == 0.0 else 0.0)
    if isinstance(node, Bin):
        left = eval_expr(node.left, values, t, dt, slots, record, override)
        right = eval_expr(node.right, values, t, dt, slots, record, override)
        op = node.op
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return left / right
        if op == "<":
            return 1.0 if left < right else 0.0
        if op == ">":
            return 1.0 if left > right else 0.0
        if op == "<=":
            return 1.0 if left <= right else 0.0
        if op == ">=":
            return 1.0 if left >= right else 0.0
        if op == "=":
            return 1.0 if left == right else 0.0
        if op == "<>":
            return 1.0 if left != right else 0.0
        if op == "AND":
            return 1.0 if (left != 0.0 and right != 0.0) else 0.0
        if op == "OR":
            return 1.0 if (left != 0.0 or right != 0.0) else 0.0
        raise ValueError(f"unknown operator {op!r}")
    if isinstance(node, If):
        if override is not None:
            taken = override[slots[id(node)]]
            if taken is None:
                raise ValueError("no recorded branch for IF node")
        else:
            taken = eval_expr(node.cond, values, t, dt, slots, record, override) != 0.0
            if record is not None:
                record[slots[id(node)]] = taken
        branch = node.then if taken else node.orelse
        return eval_expr(branch, values, t, dt, slots, record, override)
    if isinstance(node, Call):
        args = [eval_expr(a, values, t, dt, slots, record, override) for a in node.args]
        if node.fn == "MIN":
            return min(args)
        if node.fn == "MAX":
            return max(args)
        return abs(args[0])
    raise TypeError(f"not an expression node: {node!r}")


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
    want = _outcome(lambda: eval_expr(expr, dict(env), t, dt, _slots(expr), record=expected))
    assert _outcome(lambda: compile_expr(expr)(dict(env), t, dt, got)) == want
    assert got == expected


@settings(max_examples=200, deadline=None)
@given(_trees, _envs, _numbers, _numbers, st.data())
def test_gated_form_matches_override(expr, env, t, dt, data):
    n = len(iter_if_nodes(expr))
    branches = data.draw(st.lists(st.sampled_from([True, False, None]), min_size=n, max_size=n))
    want = _outcome(lambda: eval_expr(expr, dict(env), t, dt, _slots(expr), override=branches))
    assert _outcome(lambda: compile_expr(expr, gated=True)(dict(env), t, dt, branches)) == want


@st.composite
def _declarations(draw):
    """Declaration lines of a valid model: constants that form a random
    acyclic graph, stock initial values that reference constants and
    earlier stocks, and the flows of a synthetic model."""
    coef = st.sampled_from(["0.25", "0.5", "1.5", "2"])

    def expr(names: list[str]) -> str:
        picked = draw(st.lists(st.sampled_from(names), unique=True, max_size=3)) if names else []
        return " ".join([draw(coef)] + [f"{draw(st.sampled_from('+-'))} {draw(coef)} * {n}" for n in picked])

    spec = sl.SyntheticSpec(
        stocks=draw(st.integers(2, 4)), density=draw(st.sampled_from([0.5, 1.0])), seed=draw(st.integers(0, 999))
    )
    consts = [f"k{i}" for i in range(draw(st.integers(0, 8)))]
    lines = [f"CONST {c} = {expr(consts[:i])}" for i, c in enumerate(consts)]
    stocks: list[str] = []
    for line in sl.gen_synthetic(spec).splitlines():
        if line.startswith("SPEC"):
            lines.append(line.replace("STOP = 100", "STOP = 12"))
        elif line.startswith("FLOW"):
            lines.append(line)
        elif line.startswith("STOCK"):
            name, rest = line[len("STOCK "):].split(" = ", 1)
            lines.append(f"STOCK {name} = {expr(consts + stocks)} {rest[rest.index('{'):]}")
            stocks.append(name)
    return lines


@settings(max_examples=40, deadline=None)
@given(_declarations(), st.data())
def test_declaration_order_changes_nothing(lines, data):
    """Metamorphic check: permuting the declaration lines leaves every
    value, every link score and the exhaustive catalog unchanged."""
    observed = []
    for order in (lines, data.draw(st.permutations(lines))):
        model = sl.parse_model("\n".join(order) + "\n")
        assert sl.validate(model) == []
        run = sl.simulate(model)
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
