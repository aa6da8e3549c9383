from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

import reference
import sdloops as sl
from reference import _bits, _left_sum, _reference_ranking, _reference_relative, reference_compare_catalogs
from reference import reference_overlap_ratio
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
from sdloops.discovery import LoopCatalog, WeightedDigraph, enumerate_loops
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


def _series(**columns):
    """A hand-built series over steps 0..n; each keyword names an edge by
    its two nodes, so ab=[...] is the edge a -> b."""
    n = len(next(iter(columns.values()))) - 1
    series = {(name[0], name[1]): column for name, column in columns.items()}
    return LinkScoreSeries(tuple(series), tuple(float(k) for k in range(n + 1)), series)


def _missing_edge_error(catalog, series):
    """The message loop_score_series raises for the first catalog loop
    with an edge absent from the series, or None."""
    for rec in catalog.loops():
        for edge in zip(rec.cycle, rec.cycle[1:] + rec.cycle[:1]):
            if edge not in series.series:
                return f"loop edge {edge[0]} -> {edge[1]} is not in the score series"
    return None


def _ranked_bits(profiles):
    return [
        (p.cycle, repr(p.avg_contribution), _bits(p.score_series), _bits(p.relative_series), p.polarity, p.note)
        for p in profiles
    ]


_small_cycles = st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True).map(tuple)


@settings(max_examples=200, deadline=None)
@given(
    _scored_graphs(),
    st.lists(_small_cycles, max_size=2),
    st.sampled_from([0.0, 0.25, 0.6]),
    st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
)
# every product underflows to 0.0 at an active step, so the total there is 0
@example(_series(ab=[0.0, 1e-200], ba=[0.0, 1e-200]), [], 0.0, None)
# a product underflows to -0.0 beside an active loop
@example(_series(ab=[0.0, -1e-200], ba=[0.0, 1e-200], cd=[0.0, 0.5], dc=[0.0, 0.5]), [], 0.0, None)
# a product overflows to inf: its avg is NaN, it ranks first and no threshold drops it
@example(_series(ab=[0.0, 1e300], ba=[0.0, 1e300], cd=[0.0, 0.5], dc=[0.0, 0.5]), [], 0.6, 1)
# -0.0 in a column makes the loop inactive at that step
@example(_series(ab=[-0.0, 2.0, -0.0], ba=[3.0, -0.0, 0.5], bb=[-0.0, 1.5, 2.0]), [], 0.0, 2)
# a self loop is a one-edge cycle
@example(_series(aa=[0.0, -2.0, 0.5], ab=[0.0, 1.0, 1.0], ba=[0.0, 1.0, 0.5]), [], 0.25, None)
# a nonzero score at step 0 counts in the relative series, not in the average
@example(_series(ab=[2.0, 1.0], ba=[0.5, 1.0], cc=[4.0, 0.0]), [], 0.0, None)
# missing edges: the first loop in catalog order that has one is reported
@example(_series(ab=[0.0, 1.0]), [("b", "c"), ("a", "b")], 0.0, None)
def test_profiles_match_stepwise_reference(series, extra, threshold, top):
    catalog = enumerate_loops(WeightedDigraph.from_edges((src, dst, 1.0) for src, dst in series.edges))
    for cycle in extra:
        catalog.add(cycle, 1.0, "static")
    error = _missing_edge_error(catalog, series)
    if error is not None:
        for call in (sl.build_profiles, sl.relative_scores, sl.rank_and_filter):
            with pytest.raises(AnalysisError) as info:
                call(catalog, series)
            assert str(info.value) == error
        return
    raw, rel = _reference_relative(catalog, series)
    profiles = sl.build_profiles(catalog, series)
    assert [p.cycle for p in profiles] == [rec.cycle for rec in catalog.loops()]
    for p in profiles:
        assert _bits(loop_score_series(p.cycle, series)) == _bits(raw[p.cycle])
        assert _bits(p.score_series) == _bits(raw[p.cycle])
        assert _bits(p.relative_series) == _bits(rel[p.cycle])
        assert repr(p.avg_contribution) == repr(_left_sum(rel[p.cycle][1:]) / series.n)
        assert (p.polarity, p.note) == classify_polarity(raw[p.cycle])
    relative = sl.relative_scores(catalog, series)
    assert {cycle: _bits(r) for cycle, r in relative.items()} == {cycle: _bits(r) for cycle, r in rel.items()}

    ranked = sl.rank_and_filter(catalog, series, threshold, top)
    assert _ranked_bits(ranked) == _reference_ranking(catalog, series, threshold, top)
    assert _ranked_bits(ranked) == _ranked_bits(sl.rank_and_filter(catalog, series, threshold)[:top])


class TestOneScorePass:
    """Ranking and comparing compute each reference loop's scores once."""

    @pytest.fixture()
    def scored_cycles(self, monkeypatch):
        calls = []
        original = analysis._active_scores

        def counting(cycle, *tables):
            calls.append(cycle)
            return original(cycle, *tables)

        monkeypatch.setattr(analysis, "_active_scores", counting)
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
        weights = sl.composite_scores(arms_series, "max")
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

    def test_a_single_time_is_an_analysis_error(self):
        catalog = LoopCatalog()
        catalog.add(("a", "b"), 1.0, "static")
        for call in (sl.build_profiles, sl.relative_scores, sl.rank_and_filter):
            for loops in (catalog, LoopCatalog()):  # an empty catalog too
                with pytest.raises(AnalysisError, match="single time"):
                    call(loops, _series(ab=[1.0], ba=[1.0]))


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


# --------------------------------------------------------------------------
# hypothesis: compare_catalogs gives the report of the earlier version, which
# sorted and searched on its own (its sort assumed no NaN, so scores here
# stay finite)

_free_cycles = st.lists(st.sampled_from("abcde"), min_size=1, max_size=5, unique=True)
_tied_scores = st.sampled_from([1.0, -1.0, 2.0, -2.0, 0.5])  # equal magnitudes of either sign


@st.composite
def _compare_cases(draw):
    """Catalogs over a few nodes, so scores, overlaps and ranks tie often.
    With a series, reference loops use its edges and link scores come from
    a small set of values, so average contributions tie as well."""
    series = None
    reference_cycles = st.lists(_free_cycles, max_size=8)
    if draw(st.booleans()):
        pairs = [(src, dst) for src in "abcd" for dst in "abcd"]
        edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=10, unique=True))
        n = draw(st.integers(min_value=1, max_value=4))
        column = st.lists(st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0]), min_size=n + 1, max_size=n + 1)
        series = LinkScoreSeries(tuple(edges), tuple(float(k) for k in range(n + 1)), {e: draw(column) for e in edges})
        pool = sorted(enumerate_loops(WeightedDigraph.from_edges((s, d, 1.0) for s, d in edges)).cycles())
        reference_cycles = st.lists(st.sampled_from(pool), max_size=8) if pool else st.just([])
    catalogs = []
    for cycles in (reference_cycles, st.lists(_free_cycles, max_size=6)):
        catalog = LoopCatalog()
        for cycle in draw(cycles):
            catalog.add(cycle, draw(_tied_scores), "static")
        catalogs.append(catalog)
    return (*catalogs, series)


@settings(max_examples=300, deadline=None)
@given(_compare_cases(), st.integers(min_value=-1, max_value=6), st.sampled_from([0.0, 0.6, 1.0]))
def test_compare_matches_reference(case, top_n, near_miss_ratio):
    reference, candidate, series = case
    report = sl.compare_catalogs(reference, candidate, series, top_n=top_n, near_miss_ratio=near_miss_ratio)
    assert report.to_json_dict() == reference_compare_catalogs(reference, candidate, series, top_n, near_miss_ratio)


class TestOutputs:
    def test_profiles_csv(self, two_stock_catalog, two_stock_series, two_stock_run):
        profiles = sl.rank_and_filter(two_stock_catalog, two_stock_series)
        text = "".join(profiles_to_csv(profiles, two_stock_run.times))
        lines = text.strip().splitlines()
        assert lines[0] == "time,loop_id,score,relative"
        assert len(lines) == 1 + 13 * 3
        assert loop_id(MINOR_1) == "Flow_1->Stock_1"

    def test_csv_pieces_join_to_the_whole_text(self, arms_catalog, arms_series, arms_run):
        """Both CSV writers return one piece per line, which join to the text
        the writers that built one string gave."""
        profiles = sl.rank_and_filter(arms_catalog, arms_series)
        pieces = profiles_to_csv(profiles, arms_run.times)
        assert len(pieces) == 1 + len(arms_run.times) * len(profiles)
        assert "".join(pieces) == reference.profiles_to_csv(profiles, arms_run.times)
        pieces = sl.series_to_csv(arms_series)
        assert len(pieces) == 1 + len(arms_run.times) * len(arms_series.edges)
        assert "".join(pieces) == reference.series_to_csv(arms_series)

    @pytest.mark.parametrize(
        "active, expected",
        [
            # an active step whose product underflowed to -0.0 keeps its sign
            (b"\x00\x01\x01", ["0,a->b,0.0,0.0", "1,a->b,-0.0,0.0", "2.5,a->b,0.5,1.0"]),
            # without a mask every entry is formatted, the -0.0 of step 0 too
            (None, ["0,a->b,-0.0,0.0", "1,a->b,-0.0,0.0", "2.5,a->b,0.5,1.0"]),
            # a mask whose length is not the series' is not read
            (b"\x00\x00", ["0,a->b,-0.0,0.0", "1,a->b,-0.0,0.0", "2.5,a->b,0.5,1.0"]),
        ],
    )
    def test_profiles_csv_reads_the_active_mask(self, active, expected):
        score = [-0.0 if active is None or len(active) != 3 else 0.0, -0.0, 0.5]
        record = sl.LoopRecord(("a", "b"), 1.0, "static")
        profiles = [analysis.LoopProfile(record, score, [0.0, 0.0, 1.0], 0.5, "reinforcing", None, active)]
        text = "".join(profiles_to_csv(profiles, (0.0, 1.0, 2.5)))
        assert text == reference.profiles_to_csv(profiles, (0.0, 1.0, 2.5))
        assert text.splitlines()[1:] == expected

    def test_ranking_json(self, two_stock_catalog, two_stock_series):
        profiles = sl.rank_and_filter(two_stock_catalog, two_stock_series, threshold=0.001)
        data = ranking_to_json_dict(profiles, two_stock_catalog, {"threshold": 0.001})
        assert data["provenance"] == "exhaustive"
        assert "normalization" in data
        assert data["metadata"]["threshold"] == 0.001
        assert len(data["loops"]) == 2
        for item in data["loops"]:
            assert set(item) >= {"cycle", "polarity", "avg_contribution", "score_series", "relative_series"}
