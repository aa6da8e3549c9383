from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

import reference
import sdloops as sl
from sdloops import scoring
from sdloops.dsl import Bin, Call, Num, Ref
from sdloops.engine import compile_equation
from sdloops.scoring import LinkScoreSeries, link_score_step
from strategies import CANCELLING_INFLOWS, DIVIDES_AT_MIXED_POINT, DIVIDES_AT_ONE_MIXED_POINT, STEEP_GATE

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
            assert list(step.items()) == [(e, two_stock_series.series[e][k]) for e in two_stock_series.edges]

    def test_one_column_compile_per_destination_per_score_all(
        self, two_stock_model, two_stock_run, two_stock_series, monkeypatch
    ):
        compiled = []
        original = scoring.compile_equation

        def compile_equation(var, column=False):
            compiled.append((var.name, column))
            return original(var, column)

        monkeypatch.setattr(scoring, "compile_equation", compile_equation)
        series = sl.score_all(two_stock_model, two_stock_run)
        assert sorted(compiled) == sorted((v.name, True) for v in two_stock_model.by_kind("aux", "flow"))
        assert series.series == two_stock_series.series
        for k in range(1, two_stock_run.n + 1):
            want = reference.reference_link_score_step(two_stock_model, two_stock_run, k)
            assert {e: repr(scores[k]) for e, scores in series.series.items()} == {e: repr(s) for e, s in want.items()}

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


class TestArmsRaceScores:
    def test_closed_form_oracle_for_equation_edges(self, arms_model, arms_run, arms_series):
        # every aux/flow equation in the fixture is linear, so the score of
        # x -> z must equal |coef * dx / dz| with the matching sign
        run = arms_run
        for dst in ("target_A", "target_B", "target_C", "build_A", "build_B", "build_C"):
            coefs = reference.linear_coefficients(arms_model, dst)
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
            srcs = [s for s, d in graph.edges if d == dst and s not in consts]
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
        weights = sl.composite_scores(two_stock_series, "max")
        assert all(w == 1.0 for w in weights.values())

    def test_two_stock_avg_mode(self, two_stock_series):
        weights = sl.composite_scores(two_stock_series, "avg")
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
            weights = sl.composite_scores(series, mode)
            assert all(w == 0.0 for w in weights.values())
            assert all(math.copysign(1.0, w) == 1.0 for w in weights.values())

    def test_composite_dominance(self, arms_series):
        wmax = sl.composite_scores(arms_series, "max")
        wavg = sl.composite_scores(arms_series, "avg")
        for edge in arms_series.edges:
            assert all(abs(s) <= abs(wmax[edge]) + 1e-15 for s in arms_series.series[edge])
            assert abs(wavg[edge]) <= abs(wmax[edge]) + 1e-15

    def test_max_mode_sign_from_largest_observation(self, arms_series):
        weights = sl.composite_scores(arms_series, "max")
        for party in "ABC":
            assert weights[(party, f"build_{party}")] < 0.0

    def test_avg_mode_majority_sign(self, arms_series):
        weights = sl.composite_scores(arms_series, "avg")
        for party in "ABC":
            assert weights[(party, f"build_{party}")] < 0.0
            assert weights[(f"target_{party}", f"build_{party}")] > 0.0

    def test_bad_mode_rejected(self, two_stock_series):
        with pytest.raises(ValueError):
            sl.composite_scores(two_stock_series, "median")

    def test_avg_mode_needs_a_step(self):
        series = LinkScoreSeries((("x", "z"),), (0.0,), {("x", "z"): [0.0]})
        assert sl.composite_scores(series, "max") == {("x", "z"): 0.0}
        with pytest.raises(ValueError, match="at least one step"):
            sl.composite_scores(series, "avg")


class TestSeriesCsv:
    def test_format(self, two_stock_series):
        lines = "".join(sl.series_to_csv(two_stock_series)).strip().splitlines()
        assert lines[0] == "time,src,dst,score"
        assert len(lines) == 1 + 13 * 6
        cells = lines[1].split(",")
        assert cells[0] == "0"
        assert float(cells[3]) == 0.0


_AB, _BA = ("a", "b"), ("b", "a")


@pytest.mark.parametrize(
    "edges, columns",
    [
        ((_AB, _BA), {_AB: [0, 1, 3], _BA: [0, 2]}),
        ((_AB, _BA), {_AB: [0, 1, 3], _BA: [0, 2, 1, 4]}),
        ((_AB, _BA), {_AB: [0, 1, 3]}),
        ((_AB,), {_AB: [0, 1, 3], _BA: [0, 2, 1]}),
        ((_AB, _BA), {_BA: [0, 2, 1], _AB: [0, 1, 3]}),
        ((_AB, _BA, _AB), {_AB: [0, 1, 3], _BA: [0, 2, 1]}),
    ],
    ids=["short-column", "long-column", "missing-key", "extra-key", "keys-in-another-order", "edge-listed-twice"],
)
def test_series_columns_must_match_edges_and_times(edges, columns):
    with pytest.raises(ValueError, match="one column per edge, in edges order, with one score per time"):
        LinkScoreSeries(edges, (0.0, 1.0, 2.0), columns)


def test_a_short_column_does_not_rank():
    """Ranking would truncate the rows to the shortest column and score
    loop a->b [0.0, 2.0, 0.0], step 2 silently inactive; the series is
    refused instead."""
    catalog = sl.LoopCatalog()
    catalog.add(("a", "b"), 1.0, "static")
    with pytest.raises(ValueError):
        sl.rank_and_filter(catalog, LinkScoreSeries((_AB, _BA), (0.0, 1.0, 2.0), {_AB: [0, 1, 3], _BA: [0, 2]}))


@pytest.mark.parametrize(
    "text, edge", [(CANCELLING_INFLOWS, ("a", "s")), (CANCELLING_INFLOWS, ("b", "s")), (STEEP_GATE, ("s", "z"))]
)
def test_overflowing_score_is_zero(text, edge):
    model = sl.parse_model(text)
    series = sl.score_all(model, sl.simulate(model))
    assert all(math.isfinite(s) for scores in series.series.values() for s in scores)
    assert series.series[edge][1] == 0.0


def test_mixed_point_division_by_zero_scores_zero():
    model = sl.parse_model(DIVIDES_AT_MIXED_POINT)
    run = sl.simulate(model)
    for k in range(1, run.n + 1):
        assert run.values["g"][k] != run.values["g"][k - 1]
        assert link_score_step(model, run, k)[("s1", "g")] == 0.0
        assert link_score_step(model, run, k)[("s0", "g")] != 0.0


def test_one_mixed_point_division_by_zero_scores_zero_at_that_step_alone():
    """The whole-run call for a -> f divides by zero at step 1 alone, so the
    edge is scored again step by step: step 1 scores 0, the others keep
    the scores the reference gives them."""
    model = sl.parse_model(DIVIDES_AT_ONE_MIXED_POINT)
    run = sl.simulate(model)
    series = sl.score_all(model, run).series
    scores = series[("a", "f")]
    assert scores[1] == 0.0
    for k in range(2, run.n + 1):
        assert scores[k] != 0.0
        assert repr(scores[k]) == repr(reference.reference_link_score_step(model, run, k)[("a", "f")])
        assert repr(scores[k]) == repr(link_score_step(model, run, k)[("a", "f")])
    assert all(s != 0.0 for s in series[("b", "f")][1:])


def test_signed_tiny_huge_and_infinite_constants_score_as_the_reference_does():
    """A finite unsigned number reaches a column-form equation as a float
    literal, any other through its constants tuple; both keep their bits.
    The parser makes only unsigned numbers: this model is built in code."""
    inf = math.inf
    variables = (
        sl.Variable("s", "stock", Num(1.0), ("f",)),
        sl.Variable("a", "aux", Call("MIN", (Bin("*", Ref("s"), Num(1e308)), Num(inf)))),
        sl.Variable("b", "aux", Bin("+", Bin("*", Ref("a"), Num(1e-308)), Bin("*", Ref("s"), Num(5e-324)))),
        sl.Variable("f", "flow", Bin("+", Bin("*", Num(0.1), Ref("b")), Bin("*", Num(-0.0), Ref("s")))),
    )
    model = sl.Model(variables, sl.RunSpec(0.0, 3.0, 1.0))
    assert sl.validate(model) == []
    constants = {v.name: compile_equation(v, column=True).__globals__["c"] for v in variables[1:]}
    assert repr(constants) == repr({"a": (inf,), "b": (), "f": (-0.0,)})
    run = sl.simulate(model)
    series = sl.score_all(model, run).series
    assert any(scores[k] != 0.0 for scores in series.values() for k in range(1, run.n + 1))
    for k in range(1, run.n + 1):
        want = reference.reference_link_score_step(model, run, k)
        assert {e: repr(scores[k]) for e, scores in series.items()} == {e: repr(s) for e, s in want.items()}


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
        weights = sl.composite_scores(series, mode)
        for e in edges:
            assert repr(weights[e]) == repr(reference.reference_composite_weight(series.series[e], mode))
