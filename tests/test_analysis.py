from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

import sdloops as sl
from sdloops import analysis
from sdloops.analysis import (
    AnalysisError,
    _cyclic_overlap_ratio,
    classify_polarity,
    loop_id,
    loop_score_series,
    profiles_to_csv,
    ranking_to_json_dict,
)
from sdloops.discovery import LoopCatalog, WeightedDigraph, canonical_form, enumerate_loops
from sdloops.scoring import LinkScoreSeries


@pytest.fixture(scope="module")
def two_stock_catalog(two_stock_model, two_stock_series):
    return sl.discover(two_stock_model, two_stock_series)


@pytest.fixture(scope="module")
def arms_catalog(arms_model, arms_series):
    return sl.discover(arms_model, arms_series)


MINOR_1 = ("Flow_1", "Stock_1")
MINOR_2 = ("Flow_2", "Stock_2")
LONG = ("Flow_1", "Stock_1", "Flow_2", "Stock_2")


class TestLoopScores:
    def test_long_loop_identically_zero(self, two_stock_series):
        scores = loop_score_series(LONG, two_stock_series)
        assert scores == [0.0] * 13

    def test_minor_loop_one_while_driving(self, two_stock_series):
        scores = loop_score_series(MINOR_1, two_stock_series)
        assert scores == [0.0] + [1.0] * 6 + [0.0] * 6
        assert all(s >= 0.0 for s in scores)

    def test_product_semantics(self, two_stock_series):
        series = sl.scoring.LinkScoreSeries(
            edges=(("a", "b"), ("b", "a")),
            times=(0.0, 1.0),
            series={("a", "b"): [0.0, -0.5], ("b", "a"): [0.0, 1.0]},
        )
        assert loop_score_series(("a", "b"), series) == [0.0, -0.5]

    def test_missing_edge_raises(self, two_stock_series):
        with pytest.raises(AnalysisError):
            loop_score_series(("Stock_1", "Stock_2"), two_stock_series)


class TestRelativeScores:
    def test_single_loop_catalog(self, two_stock_series):
        catalog = LoopCatalog()
        catalog.add(MINOR_1, 1.0, "static")
        rel = sl.relative_scores(catalog, two_stock_series)[MINOR_1]
        assert rel == [0.0] + [1.0] * 6 + [0.0] * 6

    def test_normalization_sums(self, two_stock_catalog, two_stock_series):
        rel = sl.relative_scores(two_stock_catalog, two_stock_series)
        for k in range(13):
            total = sum(series[k] for series in rel.values())
            assert total == pytest.approx(1.0, abs=1e-12) or total == 0.0

    def test_exactly_one_active_in_cross_driving_phase(self, two_stock_catalog, two_stock_series):
        rel = sl.relative_scores(two_stock_catalog, two_stock_series)
        cross_active = [
            k
            for k in range(1, 13)
            if two_stock_series.series[("Stock_1", "Flow_2")][k] != 0.0
            or two_stock_series.series[("Stock_2", "Flow_1")][k] != 0.0
        ]
        assert cross_active == [5, 7, 8, 9, 10, 11, 12]
        for k in cross_active:
            assert sorted(series[k] for series in rel.values()) == [0.0, 0.0, 1.0]

    def test_three_party_dominates_late(self, arms_catalog, arms_series):
        rel = sl.relative_scores(arms_catalog, arms_series)
        tri = [c for c in rel if len(c) == 9]
        others = [c for c in rel if len(c) < 9]
        for k in range(80, 101):
            combined = sum(rel[c][k] for c in tri)
            assert combined > max(rel[c][k] for c in others)

    def test_uniform_scaling_preserves_ranking_for_equal_length_loops(self):
        # loop scores scale by c**len, so among equal-length loops a
        # uniform per-step rescaling changes no relative value or ordering
        def series_with(scale):
            return sl.scoring.LinkScoreSeries(
                edges=(("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")),
                times=(0.0, 1.0, 2.0),
                series={
                    ("a", "b"): [0.0, 0.4 * scale, 0.7 * scale],
                    ("b", "a"): [0.0, 0.5 * scale, 0.2 * scale],
                    ("c", "d"): [0.0, 0.9 * scale, 0.3 * scale],
                    ("d", "c"): [0.0, 0.2 * scale, 0.8 * scale],
                },
            )

        catalog = LoopCatalog()
        catalog.add(("a", "b"), 1.0, "static")
        catalog.add(("c", "d"), 1.0, "static")
        base = sl.relative_scores(catalog, series_with(1.0))
        scaled = sl.relative_scores(catalog, series_with(3.0))
        for cycle in base:
            for k in range(3):
                assert scaled[cycle][k] == pytest.approx(base[cycle][k], abs=1e-12)
        for k in (1, 2):
            assert max(base, key=lambda c: base[c][k]) == max(scaled, key=lambda c: scaled[c][k])


# --------------------------------------------------------------------------
# hypothesis: loop scores and relative shares match a step-by-step reference
# bit for bit, signed zeros included

def _reference_loop_scores(cycle, series):
    edges = [(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]
    out = []
    for k in range(series.n + 1):
        score = 1.0
        for edge in edges:
            s = series.series[edge][k]
            if s == 0.0:
                score = 0.0
                break
            score *= s
        out.append(score)
    return out


def _reference_relative(catalog, series):
    raw = {rec.cycle: _reference_loop_scores(rec.cycle, series) for rec in catalog.loops()}
    rel = {cycle: [0.0] * (series.n + 1) for cycle in raw}
    for k in range(series.n + 1):
        total = sum(abs(raw[cycle][k]) for cycle in raw)
        if total > 0.0:
            for cycle in raw:
                rel[cycle][k] = abs(raw[cycle][k]) / total
    return raw, rel


@st.composite
def _scored_graphs(draw):
    pairs = [(src, dst) for src in "abcd" for dst in "abcd"]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=10, unique=True))
    n = draw(st.integers(min_value=1, max_value=6))
    score = st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(min_value=-4.0, max_value=4.0),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    series = {edge: draw(st.lists(score, min_size=n + 1, max_size=n + 1)) for edge in edges}
    return LinkScoreSeries(tuple(edges), tuple(float(k) for k in range(n + 1)), series)


def _bits(values):
    return [repr(v) for v in values]


@settings(max_examples=100, deadline=None)
@given(_scored_graphs())
def test_profiles_match_stepwise_reference(series):
    catalog = enumerate_loops(WeightedDigraph.from_edges((src, dst, 1.0) for src, dst in series.edges))
    raw, rel = _reference_relative(catalog, series)
    profiles = sl.build_profiles(catalog, series)
    assert [p.cycle for p in profiles] == [rec.cycle for rec in catalog.loops()]
    for p in profiles:
        assert _bits(loop_score_series(p.cycle, series)) == _bits(raw[p.cycle])
        assert _bits(p.score_series) == _bits(raw[p.cycle])
        assert _bits(p.relative_series) == _bits(rel[p.cycle])
        assert repr(p.avg_contribution) == repr(sum(rel[p.cycle][1:]) / series.n)
        assert (p.polarity, p.note) == classify_polarity(raw[p.cycle])
    relative = sl.relative_scores(catalog, series)
    assert {cycle: _bits(r) for cycle, r in relative.items()} == {cycle: _bits(r) for cycle, r in rel.items()}


class TestOneScorePass:
    """Ranking and comparing compute each reference loop's series once."""

    @pytest.fixture()
    def scored_cycles(self, monkeypatch):
        calls = []
        original = analysis.loop_score_series

        def counting(loop, series):
            calls.append(loop.cycle)
            return original(loop, series)

        monkeypatch.setattr(analysis, "loop_score_series", counting)
        return calls

    def test_rank_and_filter(self, scored_cycles, arms_catalog, arms_series):
        sl.rank_and_filter(arms_catalog, arms_series, top=2)
        assert sorted(scored_cycles) == sorted(arms_catalog.cycles())

    def test_compare_catalogs(self, scored_cycles, arms_catalog, arms_series):
        candidate = LoopCatalog()
        candidate.add(arms_catalog.loops()[0].cycle, 1.0, "static")
        sl.compare_catalogs(arms_catalog, candidate, arms_series, top_n=8)
        assert sorted(scored_cycles) == sorted(arms_catalog.cycles())


class TestPolarity:
    def test_reinforcing(self):
        assert classify_polarity([0.0, 0.5, 1.0]) == ("reinforcing", None)

    def test_balancing(self):
        assert classify_polarity([0.0, -0.5, -0.1]) == ("balancing", None)

    def test_mixed(self):
        assert classify_polarity([0.0, -0.5, 0.1]) == ("mixed", None)

    def test_never_active(self):
        assert classify_polarity([0.0, 0.0]) == ("mixed", "never active")

    def test_arms_race_minor_loops_balancing(self, arms_catalog, arms_series):
        profiles = {p.cycle: p for p in sl.build_profiles(arms_catalog, arms_series)}
        for cycle, profile in profiles.items():
            if len(cycle) == 2:
                assert profile.polarity == "balancing"
            else:
                assert profile.polarity == "reinforcing"

    def test_polarity_matches_sign_product_for_constant_sign_edges(self, arms_catalog, arms_series):
        # every fixture edge keeps one sign whenever active, so loop
        # polarity must equal the product of those signs
        weights = sl.composite_scores(arms_series, "max").weights
        for profile in sl.build_profiles(arms_catalog, arms_series):
            sign = 1.0
            cycle = profile.cycle
            for i, src in enumerate(cycle):
                sign *= 1.0 if weights[(src, cycle[(i + 1) % len(cycle)])] > 0 else -1.0
            expected = "reinforcing" if sign > 0 else "balancing"
            assert profile.polarity == expected


class TestRankAndFilter:
    def test_threshold_zero_keeps_everything_sorted(self, two_stock_catalog, two_stock_series):
        profiles = sl.rank_and_filter(two_stock_catalog, two_stock_series, threshold=0.0)
        assert len(profiles) == 3
        contributions = [p.avg_contribution for p in profiles]
        assert contributions == sorted(contributions, reverse=True)

    def test_two_stock_threshold_drops_long_loop(self, two_stock_catalog, two_stock_series):
        profiles = sl.rank_and_filter(two_stock_catalog, two_stock_series, threshold=0.001)
        assert {p.cycle for p in profiles} == {MINOR_1, MINOR_2}

    def test_arms_race_point_one_percent_keeps_all_eight(self, arms_catalog, arms_series):
        profiles = sl.rank_and_filter(arms_catalog, arms_series, threshold=0.001)
        assert len(profiles) == 8

    def test_top_caps_output(self, arms_catalog, arms_series):
        profiles = sl.rank_and_filter(arms_catalog, arms_series, top=3)
        assert len(profiles) == 3

    def test_avg_contribution_values(self, two_stock_catalog, two_stock_series):
        profiles = {p.cycle: p for p in sl.build_profiles(two_stock_catalog, two_stock_series)}
        assert profiles[MINOR_1].avg_contribution == pytest.approx(3.5 / 12)
        assert profiles[MINOR_2].avg_contribution == pytest.approx(8.5 / 12)
        assert profiles[LONG].avg_contribution == 0.0

    def test_avg_contributions_sum_to_one_when_always_active(
        self, two_stock_catalog, two_stock_series, arms_catalog, arms_series
    ):
        for catalog, series in (
            (two_stock_catalog, two_stock_series),
            (arms_catalog, arms_series),
        ):
            profiles = sl.build_profiles(catalog, series)
            assert all(p.avg_contribution <= 1.0 + 1e-12 for p in profiles)
            assert sum(p.avg_contribution for p in profiles) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("order", [[("a", "b"), ("c", "d")], [("c", "d"), ("a", "b")]])
    def test_overflowing_loop_ranks_first_and_is_kept(self, order):
        # (a, b)'s finite scores multiply to inf, so its share is inf / inf
        series = LinkScoreSeries(
            edges=(("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")),
            times=(0.0, 1.0),
            series={("a", "b"): [0.0, 1e300], ("b", "a"): [0.0, 1e300], ("c", "d"): [0.0, 0.5], ("d", "c"): [0.0, 0.5]},
        )
        catalog = LoopCatalog()
        for cycle in order:
            catalog.add(cycle, 1.0, "static")
        for limits in ({}, {"threshold": 0.5}, {"top": 1}):
            profiles = sl.rank_and_filter(catalog, series, **limits)
            assert profiles[0].cycle == ("a", "b")
            assert math.isnan(profiles[0].avg_contribution)

    def test_bad_args(self, two_stock_catalog, two_stock_series):
        with pytest.raises(ValueError):
            sl.rank_and_filter(two_stock_catalog, two_stock_series, threshold=1.0)
        with pytest.raises(ValueError):
            sl.rank_and_filter(two_stock_catalog, two_stock_series, top=0)


class TestOverlapRatio:
    def test_identical(self):
        assert _cyclic_overlap_ratio(("a", "b", "c"), ("b", "c", "a")) == 1.0

    def test_disjoint(self):
        assert _cyclic_overlap_ratio(("a", "b"), ("c", "d")) == 0.0

    def test_rotation_invariant_segment(self):
        a = ("a", "b", "c", "d", "e", "f")
        b = ("x", "c", "d", "e", "y", "z")
        assert _cyclic_overlap_ratio(a, b) == pytest.approx(3 / 6)

    def test_wraparound_segment(self):
        a = ("m", "n", "o", "p")
        b = ("o", "p", "m", "q")
        # contiguous run o,p,m crosses a's wrap point
        assert _cyclic_overlap_ratio(a, b) == pytest.approx(3 / 4)


def reference_overlap_ratio(a, b):
    """Longest common substring of a + a and b + b, capped at the shorter
    cycle's length, by dynamic programming over every pair of positions."""
    if not a or not b:
        return 0.0
    if canonical_form(a) == canonical_form(b):
        return 1.0
    aa = a + a
    bb = b + b
    cap = min(len(a), len(b))
    best = 0
    prev = [0] * (len(bb) + 1)
    for i in range(1, len(aa) + 1):
        cur = [0] * (len(bb) + 1)
        for j in range(1, len(bb) + 1):
            if aa[i - 1] == bb[j - 1]:
                cur[j] = min(prev[j - 1] + 1, cap)
                best = max(best, cur[j])
        prev = cur
    return best / max(len(a), len(b))


_cycles = st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8, unique=True).map(tuple)


@settings(max_examples=300, deadline=None)
@given(_cycles, _cycles)
def test_overlap_ratio_matches_reference(a, b):
    assert _cyclic_overlap_ratio(a, b) == reference_overlap_ratio(a, b)


class TestCompare:
    def test_identical_catalogs(self, arms_catalog, arms_series):
        report = sl.compare_catalogs(arms_catalog, arms_catalog, arms_series, top_n=8)
        assert report.reference_size == report.candidate_size == 8
        assert report.intersection_size == 8
        assert all(entry["present"] for entry in report.top_loops)
        assert report.near_misses == []

    def test_greedy_miss_report(self, greedy_miss_graph):
        reference = enumerate_loops(greedy_miss_graph)
        candidate = LoopCatalog(provenance="strongest-path")
        sl.strongest_path_pass(greedy_miss_graph, candidate, targets=["a"])
        report = sl.compare_catalogs(reference, candidate, top_n=1)
        assert report.reference_size == 3
        assert report.candidate_size == 1
        assert report.top_loops[0] == {"cycle": ["a", "b", "c"], "present": False}

    def test_two_stock_static_heuristic_equals_exhaustive(self, two_stock_model, two_stock_series):
        # on the 4-node composite graph the pruned search explores fully
        stocks = [v.name for v in two_stock_model.by_kind("stock")]
        graph = sl.composite_graph(two_stock_series, stocks)
        exhaustive = sl.discover(two_stock_model, two_stock_series, method="exhaustive")
        heuristic = LoopCatalog(provenance="strongest-path")
        sl.strongest_path_pass(graph, heuristic)
        report = sl.compare_catalogs(exhaustive, heuristic, two_stock_series, top_n=3)
        assert report.intersection_size == 3
        assert all(entry["present"] for entry in report.top_loops)

    def test_two_stock_per_step_heuristic_misses_never_active_loop(
        self, two_stock_model, two_stock_series
    ):
        # the long loop's edges are never simultaneously active, so no
        # per-step pass can close it
        heuristic = sl.discover(two_stock_model, two_stock_series, method="strongest-path")
        assert heuristic.cycles() == {MINOR_1, MINOR_2}

    def test_near_miss_pairing(self):
        reference = LoopCatalog()
        reference.add(("a", "b", "c", "d", "e", "f", "g", "h"), 10.0, "static")
        candidate = LoopCatalog()
        candidate.add(("a", "b", "c", "d", "e", "f", "x", "y"), 5.0, "static")
        report = sl.compare_catalogs(reference, candidate, top_n=1, near_miss_ratio=0.6)
        assert len(report.near_misses) == 1
        miss = report.near_misses[0]
        assert miss["reference_cycle"] == list("abcdefgh")
        assert miss["candidate_cycle"] == list("abcdefxy")
        assert miss["overlap"] == pytest.approx(6 / 8)

    def test_near_miss_threshold_respected(self):
        reference = LoopCatalog()
        reference.add(("a", "b", "c", "d"), 10.0, "static")
        candidate = LoopCatalog()
        candidate.add(("a", "x", "y", "z"), 5.0, "static")
        report = sl.compare_catalogs(reference, candidate, top_n=1, near_miss_ratio=0.6)
        assert report.near_misses == []


class TestOutputs:
    def test_profiles_csv(self, two_stock_catalog, two_stock_series, two_stock_run):
        profiles = sl.rank_and_filter(two_stock_catalog, two_stock_series)
        text = profiles_to_csv(profiles, two_stock_run.times)
        lines = text.strip().splitlines()
        assert lines[0] == "time,loop_id,score,relative"
        assert len(lines) == 1 + 13 * 3
        assert loop_id(MINOR_1) == "Flow_1->Stock_1"

    def test_ranking_json(self, two_stock_catalog, two_stock_series):
        profiles = sl.rank_and_filter(two_stock_catalog, two_stock_series, threshold=0.001)
        data = ranking_to_json_dict(profiles, two_stock_catalog, {"threshold": 0.001})
        assert data["provenance"] == "exhaustive"
        assert "normalization" in data
        assert data["metadata"]["threshold"] == 0.001
        assert len(data["loops"]) == 2
        for item in data["loops"]:
            assert set(item) >= {"cycle", "polarity", "avg_contribution", "score_series", "relative_series"}
