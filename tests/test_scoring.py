from __future__ import annotations

import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import sdloops as sl
from sdloops.engine import compile_equation
from sdloops.scoring import LinkScoreSeries, _sign, link_score_step

# Frozen by hand execution of the two-stock fixture (stocks double every
# step; Flow_2 takes its then-branch only at evaluation time 4, Flow_1
# from time 6 on; scores at t_k describe the change over [t_{k-1}, t_k]).
TWO_STOCK_EXPECTED = {
    ("Stock_1", "Flow_1"): {1, 2, 3, 4, 5, 6},
    ("Stock_2", "Flow_1"): {7, 8, 9, 10, 11, 12},
    ("Stock_1", "Flow_2"): {5},
    ("Stock_2", "Flow_2"): {1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12},
    ("Flow_1", "Stock_1"): set(range(1, 13)),
    ("Flow_2", "Stock_2"): set(range(1, 13)),
}


class TestTwoStockScores:
    def test_exact_patterns(self, two_stock_series):
        for edge, active in TWO_STOCK_EXPECTED.items():
            scores = two_stock_series.series[edge]
            assert scores[0] == 0.0
            for k in range(1, 13):
                assert scores[k] == (1.0 if k in active else 0.0), (edge, k)

    def test_t0_convention(self, two_stock_series):
        assert all(two_stock_series.series[e][0] == 0.0 for e in two_stock_series.edges)

    def test_single_flow_stock_scores_are_exactly_one(self, two_stock_series):
        for edge in (("Flow_1", "Stock_1"), ("Flow_2", "Stock_2")):
            assert all(s == 1.0 for s in two_stock_series.series[edge][1:])

    def test_branch_gating_blocks_untaken_branch_inputs(self, two_stock_series):
        # at the step after Stock_1 enters (10, 20) both stocks change by
        # the same amount; without gating Stock_2 -> Flow_2 would score 1
        assert two_stock_series.series[("Stock_2", "Flow_2")][5] == 0.0
        assert two_stock_series.series[("Stock_1", "Flow_2")][5] == 1.0

    def test_condition_only_inputs_score_zero(self):
        # gating replaces the whole IF with the taken branch, so a variable
        # used only in the condition never scores
        model = sl.parse_model(
            "SPEC START = 0 STOP = 6 DT = 1\n"
            "FLOW grow = s\n"
            "STOCK s = 1 { inflow: grow }\n"
            "FLOW fill = IF s > 4 THEN 9 ELSE 2\n"
            "STOCK gated = 0 { inflow: fill }\n"
        )
        run = sl.simulate(model)
        series = sl.score_all(model, run)
        assert any(
            run.values["fill"][k] != run.values["fill"][k - 1] for k in range(1, run.n + 1)
        )
        assert all(v == 0.0 for v in series.series[("s", "fill")])


class TestStepApi:
    def test_step_bounds(self, two_stock_model, two_stock_run):
        with pytest.raises(ValueError):
            link_score_step(two_stock_model, two_stock_run, 0)
        with pytest.raises(ValueError):
            link_score_step(two_stock_model, two_stock_run, 13)

    def test_step_matches_series(self, two_stock_model, two_stock_run, two_stock_series):
        for k in (1, 5, 7, 12):
            step = link_score_step(two_stock_model, two_stock_run, k)
            assert step == {e: two_stock_series.series[e][k] for e in two_stock_series.edges}

    def test_branches_read_once_per_destination_per_step(
        self, two_stock_model, two_stock_run, two_stock_series, monkeypatch
    ):
        calls = []
        original = two_stock_run.branches_at

        def branches_at(name, k):
            calls.append((name, k))
            return original(name, k)

        monkeypatch.setattr(two_stock_run, "branches_at", branches_at)
        assert sl.score_all(two_stock_model, two_stock_run).series == two_stock_series.series
        assert calls and len(calls) == len(set(calls))
        destinations = {dst for _, dst in two_stock_series.edges}
        assert {name for name, _ in calls} <= destinations

    def test_constant_input_scores_zero(self):
        model = sl.parse_model(
            "SPEC START = 0 STOP = 4 DT = 1\n"
            "CONST c = 2\n"
            "FLOW f = c + s\n"
            "STOCK s = 1 { inflow: f }\n"
        )
        run = sl.simulate(model)
        series = sl.score_all(model, run)
        assert all(s == 0.0 for s in series.series[("c", "f")])
        assert any(s != 0.0 for s in series.series[("s", "f")])

    def test_no_change_anywhere_all_zero(self):
        model = sl.parse_model(
            "SPEC START = 0 STOP = 4 DT = 1\n"
            "FLOW fill = 0 * s\n"
            "STOCK s = 5 { inflow: fill }\n"
        )
        run = sl.simulate(model)
        series = sl.score_all(model, run)
        assert all(v == 0.0 for scores in series.series.values() for v in scores)


def _coefficients(model, aux_name):
    """Exact linear coefficients of the non-constant inputs, by
    unit-vector evaluation with constants held at their values."""
    from sdloops.dsl import expr_refs
    from sdloops.engine import _eval_initials, compile_expr

    var = model.variable(aux_name)
    refs = expr_refs(var.expr)
    consts = {v.name for v in model.by_kind("const")}
    initials = _eval_initials(model)
    base = {r: (initials[r] if r in consts else 0.0) for r in refs}
    f = compile_expr(var.expr)
    zero = f(dict(base), 0.0, 1.0, {})
    coefs = {}
    for r in refs:
        if r in consts:
            continue
        env = dict(base)
        env[r] = 1.0
        coefs[r] = f(env, 0.0, 1.0, {}) - zero
    return coefs


class TestArmsRaceScores:
    def test_closed_form_oracle_for_equation_edges(self, arms_model, arms_run, arms_series):
        # every aux/flow equation in the fixture is linear, so the score of
        # x -> z must equal |coef * dx / dz| with the matching sign
        run = arms_run
        for dst in ("target_A", "target_B", "target_C", "build_A", "build_B", "build_C"):
            coefs = _coefficients(arms_model, dst)
            for src, coef in coefs.items():
                for k in range(1, run.n + 1):
                    dz = run.values[dst][k] - run.values[dst][k - 1]
                    dx = run.values[src][k] - run.values[src][k - 1]
                    if dz == 0.0 or dx == 0.0:
                        expected = 0.0
                    else:
                        dxz = coef * dx
                        sign = 1.0 if dxz * dx > 0 else (-1.0 if dxz * dx < 0 else 0.0)
                        expected = abs(dxz / dz) * sign
                    got = arms_series.series[(src, dst)][k]
                    assert got == pytest.approx(expected, rel=1e-9, abs=1e-12), (src, dst, k)

    def test_share_rule(self, arms_model, arms_run, arms_series):
        # linear equations, no branches: one-at-a-time changes add up to
        # the whole change, so score magnitudes into a variable sum to >= 1
        run = arms_run
        consts = {v.name for v in arms_model.by_kind("const")}
        graph = sl.dependency_graph(arms_model)
        for dst in ("target_A", "target_B", "target_C", "build_A", "build_B", "build_C"):
            srcs = [s for s in graph.in_edges(dst) if s not in consts]
            for k in range(2, run.n + 1):
                dz = run.values[dst][k] - run.values[dst][k - 1]
                if dz == 0.0:
                    continue
                total = sum(abs(arms_series.series[(s, dst)][k]) for s in srcs)
                assert total >= 1.0 - 1e-9

    def test_flow_partition(self, arms_model, arms_run):
        # single inflow per stock: the flow's contribution is the whole change
        run = arms_run
        for stock in arms_model.by_kind("stock"):
            flow = stock.inflows[0]
            for k in range(1, run.n + 1):
                ds = run.values[stock.name][k] - run.values[stock.name][k - 1]
                contribution = run.values[flow][k - 1] * run.dt
                assert contribution == pytest.approx(ds, rel=1e-12, abs=1e-12)

    def test_minor_loop_stock_links_negative(self, arms_series):
        for party in "ABC":
            scores = arms_series.series[(party, f"build_{party}")]
            assert all(s <= 0.0 for s in scores)
            assert any(s < 0.0 for s in scores)

    def test_scores_finite_everywhere(self, arms_series, two_stock_series):
        for series in (arms_series, two_stock_series):
            assert all(math.isfinite(s) for scores in series.series.values() for s in scores)

    def test_single_flow_stock_scores_near_one(self, arms_series):
        # one attached flow means the flow accounts for the whole change;
        # fixture values are not dyadic so allow integration rounding
        for party in "ABC":
            scores = arms_series.series[(f"build_{party}", party)]
            assert all(abs(abs(s) - 1.0) < 1e-12 for s in scores[1:])


class TestTransferFlow:
    def test_flow_attached_to_two_stocks(self):
        model = sl.parse_model(
            "SPEC START = 0 STOP = 4 DT = 1\n"
            "FLOW move = source / 2\n"
            "STOCK source = 8 { outflow: move }\n"
            "STOCK sink = 0 { inflow: move }\n"
        )
        run = sl.simulate(model)
        assert [a + b for a, b in zip(run.values["source"], run.values["sink"])] == [8.0] * 5
        series = sl.score_all(model, run)
        assert all(s == -1.0 for s in series.series[("move", "source")][1:])
        assert all(s == 1.0 for s in series.series[("move", "sink")][1:])


class TestComposites:
    def test_two_stock_max_mode_all_ones(self, two_stock_series):
        weights = sl.composite_scores(two_stock_series, "max").weights
        assert all(w == 1.0 for w in weights.values())

    def test_two_stock_avg_mode(self, two_stock_series):
        weights = sl.composite_scores(two_stock_series, "avg").weights
        assert weights[("Stock_1", "Flow_1")] == pytest.approx(6 / 12)
        assert weights[("Stock_2", "Flow_2")] == pytest.approx(11 / 12)
        assert weights[("Stock_1", "Flow_2")] == pytest.approx(1 / 12)
        assert weights[("Stock_2", "Flow_1")] == pytest.approx(6 / 12)
        assert weights[("Flow_1", "Stock_1")] == pytest.approx(1.0)
        assert weights[("Flow_2", "Stock_2")] == pytest.approx(1.0)

    def test_all_zero_series_all_zero_weights(self):
        model = sl.parse_model(
            "SPEC START = 0 STOP = 4 DT = 1\n"
            "FLOW fill = 0 * s\n"
            "STOCK s = 5 { inflow: fill }\n"
        )
        series = sl.score_all(model, sl.simulate(model))
        for mode in ("max", "avg"):
            weights = sl.composite_scores(series, mode).weights
            assert all(w == 0.0 for w in weights.values())
            assert all(math.copysign(1.0, w) == 1.0 for w in weights.values())

    def test_composite_dominance(self, arms_series):
        wmax = sl.composite_scores(arms_series, "max").weights
        wavg = sl.composite_scores(arms_series, "avg").weights
        for edge in arms_series.edges:
            assert all(abs(s) <= abs(wmax[edge]) + 1e-15 for s in arms_series.series[edge])
            assert abs(wavg[edge]) <= abs(wmax[edge]) + 1e-15

    def test_max_mode_sign_from_largest_observation(self, arms_series):
        weights = sl.composite_scores(arms_series, "max").weights
        for party in "ABC":
            assert weights[(party, f"build_{party}")] < 0.0

    def test_avg_mode_majority_sign(self, arms_series):
        weights = sl.composite_scores(arms_series, "avg").weights
        for party in "ABC":
            assert weights[(party, f"build_{party}")] < 0.0
            assert weights[(f"target_{party}", f"build_{party}")] > 0.0

    def test_bad_mode_rejected(self, two_stock_series):
        with pytest.raises(ValueError):
            sl.composite_scores(two_stock_series, "median")


class TestSeriesCsv:
    def test_format(self, two_stock_series):
        lines = sl.series_to_csv(two_stock_series).strip().splitlines()
        assert lines[0] == "time,src,dst,score"
        assert len(lines) == 1 + 13 * 6
        cells = lines[1].split(",")
        assert cells[0] == "0"
        assert float(cells[3]) == 0.0


# hypothesis: the per-destination scoring loop and composite weights
# against the two-loop forms they replaced, kept here as the reference


def reference_link_score_step(model, run, k):
    """Scores at step k: one loop over (src, dst) edges into aux/flow
    equations, recomputing dz per edge, then one loop over flow edges."""
    byname = {v.name: v for v in model.variables}
    eq_edges, flow_edges = [], []
    for src, dst in sl.dependency_graph(model).edges:
        if byname[dst].kind == "stock":
            flow_edges.append((src, dst, 1.0 if src in byname[dst].inflows else -1.0))
        else:
            eq_edges.append((src, dst))
    gated = {v.name: compile_equation(v, gated=True) for v in model.by_kind("aux", "flow")}
    dt = run.dt
    t_old = run.times[k - 1]
    values = run.values
    env_old = {name: values[name][k - 1] for name in run.variables}
    scores = {}
    for src, dst in eq_edges:
        dz = values[dst][k] - values[dst][k - 1]
        if dz == 0.0:
            scores[(src, dst)] = 0.0
            continue
        dx = values[src][k] - values[src][k - 1]
        if dx == 0.0:
            scores[(src, dst)] = 0.0
            continue
        saved = env_old[src]
        env_old[src] = values[src][k]
        try:
            mixed = gated[dst](env_old, t_old, dt, run.branches_at(dst, k - 1))
        except (ZeroDivisionError, ValueError):
            scores[(src, dst)] = 0.0
            continue
        finally:
            env_old[src] = saved
        dxz = mixed - values[dst][k - 1]
        if not math.isfinite(dxz):
            scores[(src, dst)] = 0.0
            continue
        scores[(src, dst)] = abs(dxz / dz) * _sign(dxz * dx)
    for flow, stock, sign in flow_edges:
        ds = values[stock][k] - values[stock][k - 1]
        if ds == 0.0:
            s = 0.0
        else:
            contribution = sign * values[flow][k - 1] * dt
            s = abs(contribution / ds) * sign
        scores[(flow, stock)] = s
    # a score that overflowed, in either formula, is 0
    return {edge: s if math.isfinite(s) else 0.0 for edge, s in scores.items()}


@st.composite
def _small_models(draw):
    """Model text with up to three stocks, two constants, two auxiliaries
    and three flows.  Equations mix IF, MIN, ABS and division; a flow may
    be an inflow, an outflow, a transfer between two stocks or constant."""
    stocks = [f"s{i}" for i in range(draw(st.integers(1, 3)))]
    consts = [f"c{i}" for i in range(draw(st.integers(0, 2)))]
    number = st.sampled_from(["0", "1", "2", "0.5", "3"])

    def expr(names, depth=2):
        leaf = draw(st.sampled_from(names + ["NUM"]))
        if leaf == "NUM":
            leaf = draw(number)
        if depth == 0 or draw(st.booleans()):
            return leaf
        a, b, c = (expr(names, depth - 1) for _ in range(3))
        return draw(st.sampled_from([
            f"({leaf} + {a})",
            f"({leaf} - {a})",
            f"({leaf} * {a})",
            f"({leaf} / ({a} - {b}))",
            f"(IF {leaf} > {a} THEN {b} ELSE {c})",
            f"MIN({leaf}, {a})",
            f"ABS({leaf} - {a})",
        ]))

    lines = [f"SPEC START = 0 STOP = 6 DT = {draw(st.sampled_from(['1', '0.5']))}"]
    lines += [f"CONST {c} = {draw(number)}" for c in consts]
    names = stocks + consts
    for i in range(draw(st.integers(0, 2))):
        lines.append(f"AUX a{i} = {expr(names)}")
        names = names + [f"a{i}"]
    inflows = {s: [] for s in stocks}
    outflows = {s: [] for s in stocks}
    for i in range(draw(st.integers(1, 3))):
        flow = f"f{i}"
        lines.append(f"FLOW {flow} = {expr(names)}")
        into = draw(st.sampled_from(stocks + [None]))
        out_of = draw(st.sampled_from([s for s in stocks if s != into] + [None]))
        if into:
            inflows[into].append(flow)
        if out_of:
            outflows[out_of].append(flow)
    for s in stocks:
        sections = [
            f"{kind}: {', '.join(flows)}" for kind, flows in (("inflow", inflows[s]), ("outflow", outflows[s])) if flows
        ]
        lines.append(f"STOCK {s} = {draw(number)} {{ {' '.join(sections)} }}")
    return "\n".join(lines) + "\n"


# s1's change alone makes the denominator of g zero at the mixed point
_DIVIDES_AT_MIXED_POINT = """\
SPEC START = 0 STOP = 4 DT = 1
FLOW up = 1
FLOW g = IF s0 > 0 THEN 1 / (s0 - s1) + s0 ELSE s1
STOCK s0 = 1 { inflow: up }
STOCK s1 = 0 { inflow: up }
STOCK s2 = 0 { inflow: g }
"""
_TRANSFER = """\
SPEC START = 0 STOP = 4 DT = 1
CONST c0 = 2
AUX a0 = IF s0 > 6 THEN c0 ELSE s0 / 2
FLOW move = MIN(a0, s0)
STOCK s0 = 8 { outflow: move }
STOCK s1 = 0 { inflow: move }
"""
# a and b cancel, so the flow-share quotients of a and b overflow
_CANCELLING_INFLOWS = """\
SPEC START = 0 STOP = 2 DT = 1
FLOW a = 1e300
FLOW b = -1e300
FLOW c = 1e-300
STOCK s = 0 { inflow: a, b, c }
"""
# s moves z by 1e300 * 0.1 at the mixed point while z moves by 1e-15
_STEEP_GATE = """\
SPEC START = 0 STOP = 3 DT = 1
STOCK s = 4.9 { inflow: f }
FLOW f = 0.2 * z
AUX z = IF s > 5 THEN 1.000000000000001 ELSE 1e300 * (s - 4.9) + 1
"""


@settings(max_examples=150, deadline=None)
@given(_small_models())
@example(_DIVIDES_AT_MIXED_POINT)
@example(_TRANSFER)
@example(_CANCELLING_INFLOWS)
@example(_STEEP_GATE)
def test_link_score_step_matches_two_loop_reference(text):
    model = sl.parse_model(text)
    assert sl.validate(model) == []
    try:
        run = sl.simulate(model)
    except sl.SimulationError:
        assume(False)
    series = sl.score_all(model, run)
    for k in range(1, run.n + 1):
        got = link_score_step(model, run, k)
        want = reference_link_score_step(model, run, k)
        assert list(got) == list(series.edges)
        assert {e: repr(s) for e, s in got.items()} == {e: repr(s) for e, s in want.items()}
        assert all(repr(series.series[e][k]) == repr(s) for e, s in got.items())


@pytest.mark.parametrize(
    "text, edge", [(_CANCELLING_INFLOWS, ("a", "s")), (_CANCELLING_INFLOWS, ("b", "s")), (_STEEP_GATE, ("s", "z"))]
)
def test_overflowing_score_is_zero(text, edge):
    model = sl.parse_model(text)
    series = sl.score_all(model, sl.simulate(model))
    assert all(math.isfinite(s) for scores in series.series.values() for s in scores)
    assert series.series[edge][1] == 0.0


def test_mixed_point_division_by_zero_scores_zero():
    model = sl.parse_model(_DIVIDES_AT_MIXED_POINT)
    run = sl.simulate(model)
    for k in range(1, run.n + 1):
        assert run.values["g"][k] != run.values["g"][k - 1]
        assert link_score_step(model, run, k)[("s1", "g")] == 0.0
        assert link_score_step(model, run, k)[("s0", "g")] != 0.0


def reference_composite_weight(scores, mode):
    if mode == "max":
        best = 0.0
        best_mag = 0.0
        for s in scores:
            if abs(s) > best_mag:
                best_mag = abs(s)
                best = s
        return best
    n = len(scores) - 1
    mag = sum(abs(s) for s in scores[1:]) / n
    if mag == 0.0:
        return 0.0
    pos = sum(1 for s in scores[1:] if s > 0)
    neg = sum(1 for s in scores[1:] if s < 0)
    return mag if pos >= neg else -mag


_observations = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_observations, min_size=1, max_size=8), min_size=1, max_size=4))
def test_composite_weights_match_reference(columns):
    n = max(len(c) for c in columns)
    edges = tuple((f"x{i}", "z") for i in range(len(columns)))
    series = LinkScoreSeries(
        edges,
        tuple(float(t) for t in range(n + 1)),
        {e: [0.0] + c + [0.0] * (n - len(c)) for e, c in zip(edges, columns)},
    )
    for mode in ("max", "avg"):
        weights = sl.composite_scores(series, mode).weights
        for e in edges:
            assert repr(weights[e]) == repr(reference_composite_weight(series.series[e], mode))
