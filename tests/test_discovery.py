from __future__ import annotations

import dataclasses
import gc
import json
import math
import random
import struct
import sys

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

import reference
import sdloops as sl
from reference import _enumerate_with_cycle_score, _reference_sweep, cycle_score
from sdloops._jsonutil import _LOOP_BLOCK
from sdloops.discovery import (
    LoopCatalog,
    LoopRecord,
    MalformedCycleError,
    WeightedDigraph,
    _elementary_circuits,
    _gc_paused,
    canonical_form,
    enumerate_loops,
    step_graph,
    strongest_path_pass,
)
from sdloops.scoring import LinkScoreSeries


class TestCanonicalForm:
    def test_already_canonical(self):
        assert canonical_form(["F1", "S1"]) == ("F1", "S1")

    def test_rotation_only(self):
        assert canonical_form(["S1", "F2", "S2", "F1"]) == ("F1", "S1", "F2", "S2")

    def test_repeated_node_rejected(self):
        with pytest.raises(MalformedCycleError):
            canonical_form(["a", "b", "a"])

    def test_empty_rejected(self):
        with pytest.raises(MalformedCycleError):
            canonical_form([])

    @pytest.mark.parametrize("cycle", [[1, 2], ["a", 1], [None], [["a"], ["b"]], [True]])
    def test_non_string_node_rejected(self, cycle):
        with pytest.raises(MalformedCycleError, match="non-string node in cycle"):
            canonical_form(cycle)

    @given(st.lists(st.text(alphabet="abcdef", min_size=1, max_size=3), min_size=1, max_size=8, unique=True),
           st.integers(min_value=0, max_value=7))
    def test_rotation_invariant(self, cycle, shift):
        shift %= len(cycle)
        rotated = cycle[shift:] + cycle[:shift]
        assert canonical_form(rotated) == canonical_form(cycle)
        assert canonical_form(cycle)[0] == min(cycle)


class TestWeightedDigraph:
    def test_outbound_sorted_by_magnitude(self, greedy_miss_graph):
        assert [d for d, _ in greedy_miss_graph.out["a"]] == ["d", "b"]

    def test_unsorted_keeps_insertion_order(self):
        g = WeightedDigraph.from_edges([("a", "b", 1.0), ("a", "c", 5.0)], sort=False)
        assert [d for d, _ in g.out["a"]] == ["b", "c"]

    def test_all_nodes_are_stocks_by_default(self, greedy_miss_graph):
        assert greedy_miss_graph.stocks == frozenset("abcd")

    def test_cycle_score(self, greedy_miss_graph):
        assert cycle_score(greedy_miss_graph, ("a", "b", "c")) == pytest.approx(1000.0)
        assert cycle_score(greedy_miss_graph, ("a", "d", "c")) == pytest.approx(100.0)


class TestEnumerate:
    def test_two_stock_loops(self, two_stock_model):
        catalog = enumerate_loops(sl.dependency_graph(two_stock_model))
        assert catalog.cycles() == {
            ("Flow_1", "Stock_1"),
            ("Flow_2", "Stock_2"),
            ("Flow_1", "Stock_1", "Flow_2", "Stock_2"),
        }
        assert not catalog.overflow
        assert catalog.provenance == "exhaustive"

    def test_arms_race_eight_loops(self, arms_model):
        catalog = enumerate_loops(sl.dependency_graph(arms_model))
        lengths = sorted(len(c) for c in catalog.cycles())
        assert lengths == [2, 2, 2, 6, 6, 6, 9, 9]

    def test_greedy_miss_graph_loops(self, greedy_miss_graph):
        # the six edges force an incidental b<->c two-cycle alongside the
        # two loops through a
        catalog = enumerate_loops(greedy_miss_graph)
        scores = {rec.cycle: rec.discovery_score for rec in catalog.loops()}
        assert set(scores) == {("a", "b", "c"), ("a", "d", "c"), ("b", "c")}
        assert scores[("a", "b", "c")] == pytest.approx(1000.0, rel=1e-12)
        assert scores[("a", "d", "c")] == pytest.approx(100.0, rel=1e-12)
        assert scores[("b", "c")] == pytest.approx(100.0, rel=1e-12)

    def test_acyclic_graph_empty(self):
        g = WeightedDigraph.from_edges([("a", "b", 1.0), ("b", "c", 1.0)])
        assert len(enumerate_loops(g)) == 0

    def test_self_loop(self):
        g = WeightedDigraph.from_edges([("a", "a", 2.0), ("a", "b", 1.0), ("b", "a", 1.0)])
        catalog = enumerate_loops(g)
        assert catalog.cycles() == {("a",), ("a", "b")}

    def test_cap_truncates_and_flags(self):
        g = WeightedDigraph.from_edges(
            [(f"n{i}", f"n{j}", 1.0) for i in range(5) for j in range(5) if i != j]
        )
        full = enumerate_loops(g, cap=1000)
        assert not full.overflow
        capped = enumerate_loops(g, cap=10)
        assert capped.overflow
        assert len(capped) == 10
        assert capped.cycles() <= full.cycles()

    @pytest.mark.parametrize("self_loops", [(), ("n0", "n2")])
    def test_cap_boundary(self, self_loops):
        """At a cap of exactly the circuit count nothing overflows; one
        below, the listing is the first cap circuits in the same order."""
        rows = [(f"n{i}", f"n{j}", 0.5 + 0.1 * i - 0.05 * j) for i in range(4) for j in range(4) if i != j]
        g = WeightedDigraph.from_edges(rows + [(v, v, -2.0) for v in self_loops])
        n = 20 + len(self_loops)  # the complete 4-node digraph has 6 + 8 + 6 circuits
        assert sum(1 for _ in _elementary_circuits(g.nodes, {v: dict(g.out[v]) for v in g.nodes})) == n
        full = enumerate_loops(g, cap=n)
        assert not full.overflow and len(full) == n
        capped = enumerate_loops(g, cap=n - 1)
        assert capped.overflow and len(capped) == n - 1
        assert list(capped.entries()) == list(full.entries())[: n - 1]

    def test_zero_weight_edges_excluded(self):
        g = WeightedDigraph.from_edges([("a", "b", 1.0), ("b", "a", 0.0)])
        assert len(enumerate_loops(g)) == 0

    def test_cap_must_be_positive(self, greedy_miss_graph):
        with pytest.raises(ValueError):
            enumerate_loops(greedy_miss_graph, cap=0)


def _random_digraph_strategy():
    return st.builds(
        lambda n, pairs: [(f"v{i}", f"v{j}") for i, j in pairs if i != j and i < n and j < n],
        st.integers(min_value=2, max_value=7),
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=30, unique=True),
    )


@settings(max_examples=60, deadline=None)
@given(_random_digraph_strategy())
def test_enumerate_matches_networkx_oracle(edges):
    if not edges:
        return
    mine = enumerate_loops(WeightedDigraph.from_edges((s, d, 1.0) for s, d in edges), cap=100000)
    oracle = nx.DiGraph(edges)
    expected = {canonical_form(c) for c in nx.simple_cycles(oracle)}
    assert mine.cycles() == expected


def _records(catalog: LoopCatalog) -> list[tuple]:
    return [(rec.cycle, repr(rec.discovery_score), rec.found_at) for rec in catalog.loops()]


_weights = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False) | st.sampled_from([0.0, -0.0, 1e-300, 0.1, 3.0])


@settings(max_examples=150, deadline=None)
@given(
    # repeated (src, dst) pairs and self loops included: the first weight of a repeated edge counts
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), _weights), min_size=1, max_size=30),
    st.integers(min_value=1, max_value=60),
)
@example(rows=[(0, 1, 1.0), (0, 1, 1.0), (1, 0, 1.0)], cap=1)
@example(rows=[(0, 1, 0.0), (0, 1, -2.0), (1, 0, 3.0), (1, 0, 3.5), (1, 1, 0.5)], cap=5)
@example(rows=[(0, 1, 0.1), (1, 2, 0.2), (2, 0, 0.3), (2, 1, 0.7)], cap=60)
# products that overflow to inf or underflow to 0.0 part of the way round: listed from
# v1, the search starts at v1 and its carried product is not the canonical one
@example(rows=[(1, 2, 1e200), (2, 0, 1e200), (0, 1, 1e-200)], cap=5)
@example(rows=[(1, 2, 1e-200), (2, 0, 1e-200), (0, 1, 1e200)], cap=5)
@example(rows=[(0, 1, 1e200), (1, 2, 1e200), (2, 0, 1e-200), (1, 0, 1e-300), (2, 2, 1e308)], cap=5)
@example(rows=[(0, 1, 1e-200), (1, 2, 1e-200), (2, 0, 1e200), (2, 1, -1e300)], cap=5)
def test_enumerate_scores_are_cycle_scores_bit_for_bit(rows, cap):
    graph = WeightedDigraph.from_edges((f"v{i}", f"v{j}", w) for i, j, w in rows)
    catalog = enumerate_loops(graph, cap=cap)
    for rec in catalog.loops():
        assert rec.discovery_score == cycle_score(graph, rec.cycle)
        assert repr(rec.discovery_score) == repr(cycle_score(graph, rec.cycle))
    reference = _enumerate_with_cycle_score(graph, cap)
    assert _records(catalog) == _records(reference)
    assert catalog.overflow == reference.overflow


def test_enumerate_rotates_circuits_that_start_after_their_smallest_node():
    # listed from "b", so the search starts each circuit at "b"; (0.1 * 0.2) * 0.3 from "b"
    # is 0.006000000000000001, the canonical (0.3 * 0.1) * 0.2 from "a" is 0.006
    graph = WeightedDigraph.from_edges(
        [("b", "c", 0.1), ("c", "a", 0.2), ("a", "b", 0.3), ("b", "a", 0.9), ("c", "b", 1.1), ("a", "c", 0.35)]
    )
    assert graph.nodes == ("b", "c", "a")
    adj = {v: dict(out) for v, out in graph.out.items()}
    assert [score for _, score in _elementary_circuits(graph.nodes, adj)] == [None] * 5
    catalog = enumerate_loops(graph)
    assert {rec.cycle for rec in catalog.loops()} == {
        ("a", "b"), ("a", "c"), ("b", "c"), ("a", "b", "c"), ("a", "c", "b")
    }
    for rec in catalog.loops():
        assert rec.cycle == canonical_form(rec.cycle)
        assert repr(rec.discovery_score) == repr(cycle_score(graph, rec.cycle))
    scores = {rec.cycle: rec.discovery_score for rec in catalog.loops()}
    assert repr(scores["a", "b", "c"]) == "0.006"
    assert _records(catalog) == _records(_enumerate_with_cycle_score(graph, 1000))


def test_enumerate_scores_on_a_complete_graph_are_cycle_scores():
    rng = random.Random(3)
    graph = WeightedDigraph.from_edges(
        (f"n{i:02d}", f"n{j:02d}", rng.uniform(0.05, 1.0) * rng.choice((1.0, -1.0)))
        for i in range(9)
        for j in range(9)
        if i != j
    )
    catalog = enumerate_loops(graph, cap=3000)
    assert catalog.overflow and len(catalog) == 3000
    assert all(rec.discovery_score == cycle_score(graph, rec.cycle) for rec in catalog.loops())
    assert _records(catalog) == _records(_enumerate_with_cycle_score(graph, 3000))


class TestStrongestPath:
    def test_greedy_miss_from_a(self, greedy_miss_graph):
        registry = LoopCatalog(provenance="strongest-path")
        strongest_path_pass(greedy_miss_graph, registry, targets=["a"])
        records = registry.loops()
        assert len(records) == 1
        assert records[0].cycle == ("a", "d", "c")
        assert records[0].discovery_score == pytest.approx(100.0, rel=1e-12)

    def test_greedy_miss_visit_trace(self, greedy_miss_graph):
        # the canonical failure narrative, step by step: a starts at 1,
        # the sorted edges go to d first (100), then c (100 * 0.1 = 10),
        # then b (10 * 10 = 100); the direct a->b start carries only 10
        # and is pruned, so nothing else is ever expanded
        trace = []
        registry = LoopCatalog(provenance="strongest-path")
        strongest_path_pass(
            greedy_miss_graph,
            registry,
            targets=["a"],
            on_visit=lambda node, score, depth: trace.append((node, score, depth)),
        )
        assert trace == [("a", 1.0, 0), ("d", 100.0, 1), ("c", 10.0, 2), ("b", 100.0, 3)]

    def test_double_pass_never_duplicates(self, greedy_miss_graph):
        registry = LoopCatalog(provenance="strongest-path")
        strongest_path_pass(greedy_miss_graph, registry)
        size = len(registry)
        strongest_path_pass(greedy_miss_graph, registry)
        assert len(registry) == size
        cycles = [rec.cycle for rec in registry.loops()]
        assert len(cycles) == len(set(cycles))

    def test_greedy_miss_from_b_finds_strong_loop(self, greedy_miss_graph):
        registry = LoopCatalog(provenance="strongest-path")
        strongest_path_pass(greedy_miss_graph, registry, targets=["b"])
        assert ("a", "b", "c") in registry.cycles()

    def test_single_stock_self_loop(self):
        g = WeightedDigraph.from_edges([("S", "F", 1.0), ("F", "S", 1.0)], stocks=["S"])
        registry = LoopCatalog(provenance="strongest-path")
        strongest_path_pass(g, registry)
        records = registry.loops()
        assert len(records) == 1
        assert records[0].cycle == ("F", "S")
        assert records[0].discovery_score == 1.0

    def test_all_zero_weights_find_nothing(self):
        g = WeightedDigraph.from_edges([("S", "F", 0.0), ("F", "S", 0.0)], stocks=["S"])
        registry = LoopCatalog(provenance="strongest-path")
        strongest_path_pass(g, registry)
        assert len(registry) == 0

    def test_signed_scores_compared_by_magnitude(self):
        g = WeightedDigraph.from_edges(
            [("S", "F", -1.0), ("F", "S", 1.0)], stocks=["S"]
        )
        registry = LoopCatalog(provenance="strongest-path")
        strongest_path_pass(g, registry)
        assert registry.loops()[0].discovery_score == -1.0

    def test_best_scores_persist_across_targets_within_pass(self):
        # two stocks sharing a hub: the second search reaches the hub with
        # a strictly lower score than the first left behind, so it prunes
        g = WeightedDigraph.from_edges(
            [("S1", "H", 1.0), ("H", "S1", 1.0), ("S2", "H", 0.5), ("H", "S2", 1.0)],
            stocks=["S1", "S2"],
        )
        registry = LoopCatalog(provenance="strongest-path")
        strongest_path_pass(g, registry)
        assert ("H", "S1") in registry.cycles()
        assert ("H", "S2") not in registry.cycles()

    def test_equal_scores_do_not_prune(self):
        # ties re-expand (strictly-lower prunes), so parallel unit-score
        # loops through a shared hub are all found in one pass
        g = WeightedDigraph.from_edges(
            [("S1", "H", 1.0), ("H", "S1", 1.0), ("S2", "H", 1.0), ("H", "S2", 1.0)],
            stocks=["S1", "S2"],
        )
        registry = LoopCatalog(provenance="strongest-path")
        strongest_path_pass(g, registry)
        assert registry.cycles() == {("H", "S1"), ("H", "S2")}

    def test_pruning_monotone_for_subunit_weights(self):
        g = WeightedDigraph.from_edges(
            [("a", "b", 0.9), ("b", "c", -0.5), ("c", "a", 0.8), ("b", "a", 0.7), ("c", "b", 0.6)],
        )
        seen = []
        registry = LoopCatalog(provenance="strongest-path")
        strongest_path_pass(g, registry, on_visit=lambda node, score, depth: seen.append((depth, abs(score))))
        last_at_depth = {}
        for depth, mag in seen:
            if depth > 0:
                assert mag <= last_at_depth[depth - 1] + 1e-15
            last_at_depth[depth] = mag

    def test_returns_visit_count(self, greedy_miss_graph):
        registry = LoopCatalog(provenance="strongest-path")
        visits = strongest_path_pass(greedy_miss_graph, registry)
        assert visits > 0

    def test_no_recursion_on_long_chain(self):
        n = 10000
        edges = [(f"v{i}", f"v{(i + 1) % n}", 1.0) for i in range(n)]
        g = WeightedDigraph.from_edges(edges)
        registry = LoopCatalog(provenance="strongest-path")
        strongest_path_pass(g, registry, targets=["v0"])
        assert len(registry) == 1
        assert len(registry.loops()[0].cycle) == n
        catalog = enumerate_loops(g, cap=10)
        assert len(catalog) == 1


class TestDiscover:
    def test_arms_race_exhaustive(self, arms_model, arms_series):
        catalog = sl.discover(arms_model, arms_series)
        assert catalog.provenance == "exhaustive"
        assert len(catalog) == 8

    def test_two_stock_exhaustive(self, two_stock_model, two_stock_series):
        catalog = sl.discover(two_stock_model, two_stock_series)
        assert catalog.provenance == "exhaustive"
        assert len(catalog) == 3

    def test_overflow_switches_to_strongest_path(self):
        text = sl.gen_synthetic(sl.SyntheticSpec(stocks=8, density=1.0, seed=3))
        model = sl.parse_model(text)
        run = sl.simulate(model)
        series = sl.score_all(model, run)
        catalog = sl.discover(model, series, cap=1000)
        assert catalog.provenance == "strongest-path"
        exhaustive = sl.discover(model, series, cap=100000, method="exhaustive")
        assert not exhaustive.overflow
        assert catalog.cycles() <= exhaustive.cycles()

    def test_forced_methods(self, two_stock_model, two_stock_series):
        heuristic = sl.discover(two_stock_model, two_stock_series, method="strongest-path")
        exhaustive = sl.discover(two_stock_model, two_stock_series, method="exhaustive")
        assert heuristic.provenance == "strongest-path"
        assert heuristic.cycles() <= exhaustive.cycles()

    def test_stride_subsamples_steps(self, two_stock_model, two_stock_series):
        registry = sl.discover(two_stock_model, two_stock_series, method="strongest-path", stride=3)
        for rec in registry.loops():
            assert rec.found_at in range(1, 13, 3)

    def test_discover_idempotent_no_duplicates(self, arms_model, arms_series):
        a = sl.discover(arms_model, arms_series, method="strongest-path")
        b = sl.discover(arms_model, arms_series, method="strongest-path")
        assert a.cycles() == b.cycles()
        cycles = [rec.cycle for rec in a.loops()]
        assert len(cycles) == len(set(cycles))

    def test_every_loop_is_a_real_circuit(self, arms_model, arms_series):
        graph_edges = set(sl.dependency_graph(arms_model).edges)
        catalog = sl.discover(arms_model, arms_series, method="strongest-path")
        for rec in catalog.loops():
            cycle = rec.cycle
            for i, src in enumerate(cycle):
                assert (src, cycle[(i + 1) % len(cycle)]) in graph_edges

    def test_every_loop_contains_a_stock(self, arms_model, arms_series):
        stocks = {v.name for v in arms_model.by_kind("stock")}
        for rec in sl.discover(arms_model, arms_series).loops():
            assert stocks & set(rec.cycle)

    def test_every_structural_loop_contains_a_stock_on_synthetics(self):
        # instantaneous edges cannot cycle in a validated model, so every
        # circuit of the raw dependency graph passes through a stock
        for seed in range(8):
            model = sl.parse_model(sl.gen_synthetic(sl.SyntheticSpec(stocks=4, density=0.7, seed=seed)))
            stocks = {v.name for v in model.by_kind("stock")}
            catalog = enumerate_loops(sl.dependency_graph(model), cap=100_000)
            assert len(catalog) > 0
            for rec in catalog.loops():
                assert stocks & set(rec.cycle)

    def test_found_at_matches_active_step(self, two_stock_model, two_stock_series):
        registry = sl.discover(two_stock_model, two_stock_series, method="strongest-path")
        for rec in registry.loops():
            graph = step_graph(two_stock_series, rec.found_at, ["Stock_1", "Stock_2"])
            assert abs(cycle_score(graph, rec.cycle) - rec.discovery_score) < 1e-12

    def test_validation_args(self, two_stock_model, two_stock_series):
        with pytest.raises(ValueError):
            sl.discover(two_stock_model, two_stock_series, cap=0)
        with pytest.raises(ValueError):
            sl.discover(two_stock_model, two_stock_series, stride=0)
        with pytest.raises(ValueError):
            sl.discover(two_stock_model, two_stock_series, method="dowsing")


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.floats(min_value=0.3, max_value=1.0),
    st.integers(min_value=0, max_value=10_000),
)
def test_heuristic_subset_of_exhaustive_on_synthetics(stocks, density, seed):
    model = sl.parse_model(sl.gen_synthetic(sl.SyntheticSpec(stocks, density, seed)))
    run = sl.simulate(model, sl.RunSpec(0.0, 20.0, 1.0))
    series = sl.score_all(model, run)
    heuristic = sl.discover(model, series, method="strongest-path")
    exhaustive = sl.discover(model, series, cap=100000, method="exhaustive")
    assert not exhaustive.overflow
    assert heuristic.cycles() <= exhaustive.cycles()


_names = st.text(st.characters(blacklist_categories=()), min_size=1, max_size=4)


@st.composite
def _catalogs(draw):
    """Catalogs of up to 8 loops over a few names; scores finite, found_at
    a step or "static"."""
    names = draw(st.lists(_names, min_size=1, max_size=6, unique=True))
    catalog = LoopCatalog(provenance=draw(st.sampled_from(["exhaustive", "strongest-path"])), overflow=draw(st.booleans()))
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        cycle = draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names), unique=True))
        score = draw(st.floats(allow_nan=False, allow_infinity=False))
        found_at = draw(st.one_of(st.just("static"), st.integers(min_value=0, max_value=500)))
        catalog.add(cycle, score, found_at)
    return catalog


def _catalog_of(found_at) -> LoopCatalog:
    catalog = LoopCatalog()
    catalog.add(("a", "b"), 0.5, found_at)
    return catalog


def _catalog_with_int_score() -> LoopCatalog:
    catalog = LoopCatalog()
    catalog.add(("a", "b"), 2, 0)
    catalog.add(("c",), 0.25, "static")
    return catalog


_read_found_at = st.one_of(st.just("static"), st.integers(min_value=0, max_value=500), _names)
_found_at_values = st.one_of(
    _read_found_at, st.integers(-5, -1), st.booleans(), st.none(), st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.integers(0, 9), max_size=2),
)


@st.composite
def _catalogs_beyond_the_template(draw):
    """Catalogs with loops the writer's template does not fit, mixed with
    loops it does: int node names (listed by enumerate_loops), and found_at
    values that are neither a step nor a str and int scores (both added
    directly); any of them may be empty."""
    if draw(st.booleans()):
        rows = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), _weights), max_size=12))
        return enumerate_loops(WeightedDigraph.from_edges(rows), cap=40)
    names = draw(st.lists(_names, min_size=1, max_size=5, unique=True))
    loops, seen = [], set()
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        cycle = draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names), unique=True))
        if canonical_form(cycle) not in seen:
            seen.add(canonical_form(cycle))
            score = draw(st.floats(allow_nan=False, allow_infinity=False))
            loops.append({"cycle": cycle, "discovery_score": score, "found_at": draw(_read_found_at)})
    catalog = LoopCatalog.from_json_dict({"provenance": draw(st.sampled_from(["exhaustive", "unknown"])), "loops": loops})
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        cycle = draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names), unique=True))
        catalog.add(cycle, draw(st.integers(min_value=-(10**20), max_value=10**20)), draw(_found_at_values))
    return catalog


class TestCatalogJson:
    def test_schema_round_trip(self, greedy_miss_graph):
        catalog = enumerate_loops(greedy_miss_graph)
        data = json.loads(catalog.to_json())
        assert set(data) == {"provenance", "overflow", "loops"}
        assert data["provenance"] == "exhaustive"
        assert data["overflow"] is False
        for item in data["loops"]:
            assert set(item) == {"cycle", "discovery_score", "found_at"}
            assert item["cycle"] == sorted(item["cycle"], key=str)[0:1] + item["cycle"][1:]
            assert item["found_at"] == "static"
        back = LoopCatalog.from_json(catalog.to_json())
        assert back.cycles() == catalog.cycles()

    def test_cycles_in_canonical_rotation(self, arms_model, arms_series):
        catalog = sl.discover(arms_model, arms_series)
        data = reference.catalog_to_json_dict(catalog)
        for item in data["loops"]:
            cycle = tuple(item["cycle"])
            assert cycle == canonical_form(cycle)

    def test_integer_score_is_read_as_float(self):
        data = {"loops": [{"cycle": ["b", "a"], "discovery_score": 2, "found_at": 3}]}
        (rec,) = LoopCatalog.from_json_dict(data).loops()
        assert rec.cycle == ("a", "b")
        assert type(rec.discovery_score) is float and rec.discovery_score == 2.0

    @pytest.mark.parametrize("score", ["nan", "2", True, False, None, "1e999", math.nan, math.inf, -math.inf, 10**400, [1.0]])
    def test_score_must_be_a_finite_number(self, score):
        data = {"loops": [{"cycle": ["a", "b"], "discovery_score": score, "found_at": "static"}]}
        with pytest.raises(ValueError, match="is not a finite number"):
            LoopCatalog.from_json_dict(data)

    def test_non_finite_json_literals_are_rejected(self):
        for literal in ("NaN", "Infinity", "-Infinity", "1e999"):
            text = f'{{"loops": [{{"cycle": ["a"], "discovery_score": {literal}, "found_at": 0}}]}}'
            with pytest.raises(ValueError, match="is not a finite number"):
                LoopCatalog.from_json(text)

    @pytest.mark.parametrize(
        "head, problem",
        [
            ({"overflow": "false"}, "overflow 'false' is not true or false"),
            ({"overflow": 1}, "overflow 1 is not true or false"),
            ({"overflow": None}, "overflow None is not true or false"),
            ({"provenance": 5}, "provenance 5 is not a string"),
            ({"provenance": ["exhaustive"]}, r"provenance \['exhaustive'\] is not a string"),
        ],
    )
    def test_head_fields_must_have_their_json_types(self, head, problem):
        with pytest.raises(MalformedCycleError, match=problem):
            LoopCatalog.from_json_dict({**head, "loops": []})
        catalog = LoopCatalog.from_json_dict({"provenance": "exhaustive", "overflow": True, "loops": []})
        assert (catalog.provenance, catalog.overflow) == ("exhaustive", True)

    @pytest.mark.parametrize("second", [["a", "b", "c"], ["c", "a", "b"]])
    def test_repeated_loop_is_rejected(self, second):
        loops = [{"cycle": cycle, "discovery_score": 1.0, "found_at": 0} for cycle in (["b", "c", "a"], second)]
        with pytest.raises(MalformedCycleError, match="loop a -> b -> c is listed twice"):
            LoopCatalog.from_json_dict({"loops": loops})

    def test_records_are_slotted_and_frozen(self):
        rec = LoopRecord(("a", "b"), 1.0, "static")
        assert not hasattr(rec, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.found_at = 0

    @settings(max_examples=80, deadline=None)
    @given(_catalogs())
    def test_pieces_are_the_text_of_json_dumps(self, catalog):
        expected = json.dumps(reference.catalog_to_json_dict(catalog), indent=2, allow_nan=False)
        assert "".join(catalog.iter_json()) == catalog.to_json() == expected

    @settings(max_examples=120, deadline=None)
    @given(_catalogs_beyond_the_template())
    @example(_catalog_with_int_score())
    @example(_catalog_of(True))
    @example(_catalog_of(None))
    @example(_catalog_of(1.5))
    @example(_catalog_of([1]))
    @example(enumerate_loops(WeightedDigraph.from_edges([(1, 2, 0.5), (2, 1, 3.0), (2, 2, -1.0)])))
    @example(LoopCatalog())
    def test_loops_the_template_does_not_fit_are_the_text_of_json_dumps(self, catalog):
        expected = json.dumps(reference.catalog_to_json_dict(catalog), indent=2, allow_nan=False)
        assert "".join(catalog.iter_json()) == expected

    @settings(max_examples=80, deadline=None)
    @given(_catalogs())
    def test_round_trip_shares_node_names(self, catalog):
        back = LoopCatalog.from_json(catalog.to_json())
        assert (back.provenance, back.overflow) == (catalog.provenance, catalog.overflow)
        assert [(r.cycle, repr(r.discovery_score), r.found_at) for r in back.loops()] == [
            (r.cycle, repr(r.discovery_score), r.found_at) for r in catalog.loops()
        ]
        first: dict[str, str] = {}
        for rec in back.loops():
            for name in rec.cycle + ((rec.found_at,) if isinstance(rec.found_at, str) else ()):
                assert first.setdefault(name, name) is name

    def test_found_at_that_is_not_a_str_is_not_shared(self):
        # shared by equality, the true would become the 1 before it, a step
        text = '{"loops": [{"cycle": ["a"], "discovery_score": 1, "found_at": 1}, {"cycle": ["b"], "discovery_score": 1, "found_at": true}]}'
        with pytest.raises(MalformedCycleError, match="found_at True is not a step or a string"):
            LoopCatalog.from_json(text)

    @pytest.mark.parametrize("size", [0, 1, _LOOP_BLOCK - 1, _LOOP_BLOCK, _LOOP_BLOCK + 1, 2 * _LOOP_BLOCK + 1])
    def test_blocks_of_loops_join_to_the_text_of_json_dumps(self, size):
        """One piece per block of loops, whatever the block boundaries;
        the second loop has an int score, which the template does not fit."""
        catalog = LoopCatalog(overflow=True)
        for i in range(size):
            score = 3 if i == 1 else (-1) ** i * 0.1 * (i + 1)
            catalog.add((f"n{i:04d}", "\u00e9", "a"), score, i if i % 3 else "static")
        pieces = list(catalog.iter_json())
        assert "".join(pieces) == json.dumps(reference.catalog_to_json_dict(catalog), indent=2)
        assert sum('"cycle"' in piece for piece in pieces) == -(-size // _LOOP_BLOCK)

    @pytest.mark.parametrize(
        "size, at", [(1, 0), (2 * _LOOP_BLOCK + 1, _LOOP_BLOCK - 1), (2 * _LOOP_BLOCK + 1, _LOOP_BLOCK), (2 * _LOOP_BLOCK + 1, 2 * _LOOP_BLOCK)]
    )
    @pytest.mark.parametrize("score", [math.inf, -math.inf, math.nan])
    def test_non_finite_score_is_not_written(self, size, at, score):
        catalog = LoopCatalog()
        for i in range(size):
            catalog.add(("a", f"n{i:04d}"), score if i == at else 1.5, "static")
        with pytest.raises(ValueError) as expected:
            json.dumps(reference.catalog_to_json_dict(catalog), indent=2, allow_nan=False)
        with pytest.raises(ValueError):
            catalog.to_json()
        with pytest.raises(ValueError, match=f"^{expected.value}$"):  # before the first block is rendered
            next(catalog.iter_json())


class TestGcPaused:
    """The bulk builds run with the cyclic collector off and leave its
    state as they found it."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_the_previous_state(self, enabled):
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            with pytest.raises(KeyError):
                with _gc_paused():
                    assert not gc.isenabled()
                    raise KeyError("x")
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_at_most_one_young_collection_per_build(self):
        """Paused, the collector runs at most once per build: a young
        collection when it is switched back on.  Left on, it ran 4 to 10
        times in each of these builds (Python 3.10 to 3.12)."""
        graph = WeightedDigraph.from_edges((f"n{i}", f"n{j}", 0.5) for i in range(7) for j in range(7) if i != j)
        collections = []

        def count(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        gc.collect()  # start each build with an empty young generation
        gc.callbacks.append(count)
        try:
            catalog = enumerate_loops(graph, cap=1500)
            in_enumerate = collections[:]
            text = catalog.to_json()
            gc.collect()
            del collections[:]
            back = LoopCatalog.from_json(text)
        finally:
            gc.callbacks.remove(count)
        assert len(back) == len(catalog) == 1500
        assert in_enumerate in ([], [0])
        assert collections in ([], [0])


# --------------------------------------------------------------------------
# The catalog reader against its frozen reference

_LOOP = {"cycle": ["b", "a"], "discovery_score": 0.5, "found_at": 1}  # an entry from_json_dict reads
# CPython keeps one object per one-character str, so only longer names can
# show whether equal names were read as one object or as copies
_SHARED_NAMES = [
    {"cycle": ["beta", "alpha"], "discovery_score": 0.5, "found_at": "static"},
    {"cycle": ["alpha", "gamma", "beta"], "discovery_score": -2.0, "found_at": "static"},
]
_odd_values = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.sampled_from([2**53 + 1, 10**400, -0.0, 1.5]),
    st.floats(), st.sampled_from(["a", "static", ""]), st.just(_LOOP), st.lists(st.sampled_from(["a", 1, None]), max_size=2),
)


def _usually(draw, faults: bool, usual, odd):
    """A value drawn from `usual`, or, where the document has faults, now
    and then from `odd`."""
    return draw(odd if faults and draw(st.integers(0, 9)) == 9 else usual)


@st.composite
def _catalog_texts(draw):
    """Catalog texts: cycles in any rotation over a few names, found_at a
    step or a string, finite float scores.  In a document with faults, now
    and then a field is missing, of another type or loop-shaped, a loop
    repeats in another rotation, an extra key holds any value, or the
    document is not an object."""
    names = ["a", "b", "c", "\u00e9", "a b"]
    faults = draw(st.booleans())
    now_and_then = st.integers(0, 9).map(lambda n: faults and n == 9)
    loops, cycles = [], []
    for _ in range(draw(st.integers(0, 6))):
        if cycles and draw(now_and_then):
            earlier = draw(st.sampled_from(cycles))
            at = draw(st.integers(0, len(earlier) - 1))
            cycle = earlier[at:] + earlier[:at]
        else:
            nodes = st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True)
            odd = st.lists(st.sampled_from(names), min_size=2, max_size=4) | st.lists(st.sampled_from(names) | _odd_values, max_size=3)
            cycle = _usually(draw, faults, nodes, odd | _odd_values)
        if type(cycle) is list and cycle:
            cycles.append(cycle)
        entry = {
            "cycle": cycle,
            "discovery_score": _usually(draw, faults, st.floats(allow_nan=False, allow_infinity=False), _odd_values),
            "found_at": _usually(draw, faults, st.integers(0, 5) | st.sampled_from(["static", "a"]), _odd_values),
        }
        if draw(now_and_then):
            del entry[draw(st.sampled_from(list(entry)))]
        if draw(now_and_then):
            entry["extra"] = draw(_odd_values)
        loops.append(_usually(draw, faults, st.just(entry), _odd_values))
    doc = {
        "provenance": _usually(draw, faults, st.sampled_from(["exhaustive", "strongest-path"]), _odd_values),
        "overflow": _usually(draw, faults, st.booleans(), _odd_values),
        "loops": _usually(draw, faults, st.just(loops), _odd_values),
    }
    if draw(now_and_then):
        del doc[draw(st.sampled_from(list(doc)))]
    if draw(now_and_then):
        doc["extra"] = draw(_odd_values)
    doc = _usually(draw, faults, st.just(doc), _odd_values)
    return json.dumps(doc, indent=draw(st.sampled_from([None, 2])))


def _loops_text(*entries: str) -> str:
    return '{"provenance": "exhaustive", "overflow": false, "loops": [' + ", ".join(entries) + "]}"


def _read_by(read, text: str):
    """What read(text) gives: its exception's type and message, or the
    catalog's head, its records, and for each of the records' strings (node
    names, then a found_at string, record by record) the position of the
    first one that is the same object."""
    try:
        catalog = read(text)
    except Exception as err:
        return type(err), str(err)
    records = catalog.loops()
    strings = [s for r in records for s in r.cycle + ((r.found_at,) if type(r.found_at) is str else ())]
    first: dict[int, int] = {}
    return (
        catalog.provenance,
        catalog.overflow,
        [(r.cycle, repr(r.discovery_score), type(r.found_at), r.found_at) for r in records],
        [first.setdefault(id(s), i) for i, s in enumerate(strings)],
    )


@settings(max_examples=300, deadline=None)
@given(_catalog_texts())
@example(json.dumps(_LOOP))  # the whole document
@example(json.dumps({**_LOOP, "loops": [_LOOP]}))
@example(_loops_text(f'{{"cycle": [{json.dumps(_LOOP)}], "discovery_score": 1.0, "found_at": 0}}'))  # as a node
@example(_loops_text(f'{{"cycle": ["a", {json.dumps(_LOOP)}], "discovery_score": 1.0, "found_at": 0}}'))
@example(_loops_text(f'{{"cycle": ["a"], "discovery_score": 1.0, "found_at": {json.dumps(_LOOP)}}}'))  # as found_at
@example(json.dumps({"provenance": _LOOP, "loops": [_LOOP]}))  # as provenance
@example(json.dumps({"loops": [{**_LOOP, "extra": _LOOP}], "extra": _LOOP}))  # under extra keys
@example(_loops_text('{"cycle": ["c", "a", "b"], "discovery_score": 0.5, "found_at": "static"}'))  # rotated
@example(_loops_text('{"cycle": ["b", "a"], "discovery_score": 2, "found_at": 0}'))  # an int score
@example(_loops_text('{"cycle": ["b", "a"], "discovery_score": true, "found_at": 0}'))
@example(_loops_text(f'{{"cycle": ["b", "a"], "discovery_score": {10**400}, "found_at": 0}}'))
@example(_loops_text('{"cycle": ["b", "a"], "discovery_score": 1e999, "found_at": 0}'))
@example(_loops_text(*(f'{{"cycle": {c}, "discovery_score": 1.0, "found_at": 0}}' for c in ('["b", "c", "a"]', '["c", "a", "b"]'))))
@example(_loops_text('{"cycle": ["a"], "discovery_score": 1.0, "found_at": 1}', '{"cycle": ["b"], "discovery_score": 1.0, "found_at": true}'))
@example(_loops_text('{"cycle": ["a", "b", "a"], "discovery_score": 1.0, "found_at": 0}'))  # a repeated node
@example(_loops_text('{"cycle": ["a"], "discovery_score": 1.0, "found_at": -1}'))
@example('{"provenance": "exhaustive", "overflow": 0, "loops": []}')
@example('{"loops": [{"cycle": ["a"], "discovery_score": 1.0, "found_at": 0}')  # not JSON
@example(_loops_text('[["a", "b"], 1.0, 0]'))  # a loop as the array of its fields
@example(_loops_text('{"cycle": ["a"], "discovery_score": 1.0, "found_at": 0}', '[["b", "c"], 1.0, "static"]'))
@example('{"provenance": "exhaustive", "overflow": false, "loops": [["a", "b"], 1.0, 0]}')  # as the whole loops value
@example(json.dumps({**_SHARED_NAMES[0], "loops": _SHARED_NAMES}))  # a loop-shaped top level
@example(_loops_text(*(json.dumps({**loop, "discovery_score": score}) for loop, score in zip(_SHARED_NAMES, (2, 2**53 + 1)))))
def test_from_json_reads_as_the_reference_reader(text):
    assert _read_by(LoopCatalog.from_json, text) == _read_by(reference.reference_read_catalog, text)


def test_a_written_catalog_is_read_in_one_parse(greedy_miss_graph, monkeypatch):
    """A catalog that the program writes, or one written by hand with int
    scores, takes no second parse: its loops become records as the text is
    parsed, and from_json_dict is not called."""
    catalog = enumerate_loops(greedy_miss_graph)
    catalog.add(("x", "y"), -0.25, 3)
    text = catalog.to_json()
    by_hand = _loops_text(*(json.dumps({**loop, "discovery_score": score}) for loop, score in zip(_SHARED_NAMES, (2, -(2**53) - 1))))
    monkeypatch.setattr(LoopCatalog, "from_json_dict", classmethod(lambda cls, data: pytest.fail("parsed twice")))
    back = LoopCatalog.from_json(text)
    assert [(r.cycle, repr(r.discovery_score), r.found_at) for r in back.loops()] == [
        (r.cycle, repr(r.discovery_score), r.found_at) for r in catalog.loops()
    ]
    assert [(r.cycle, repr(r.discovery_score)) for r in LoopCatalog.from_json(by_hand).loops()] == [
        (("alpha", "beta"), "2.0"), (("alpha", "gamma", "beta"), repr(float(-(2**53) - 1)))
    ]


class _RecordingCatalog(LoopCatalog):
    """A catalog that also lists, in order, each loop `add` took as new."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.added: list[tuple] = []

    def add(self, cycle, discovery_score, found_at) -> bool:
        new = super().add(cycle, discovery_score, found_at)
        if new:
            self.added.append((canonical_form(cycle), repr(discovery_score), found_at))
        return new


def _built_and_expected(route: str, graph: WeightedDigraph) -> tuple[LoopCatalog, list]:
    """A catalog built by one route, and its loops in the order that route
    stored them, as (cycle, repr(score), found_at), derived without loops()."""
    if route == "add":
        catalog = _RecordingCatalog()
        for cycle, score, found_at in [(("b", "a"), -0.5, 3), (("c",), 2.0, "static"), (("a", "b"), 9.0, 0), (("e", "d"), 0.0, "x")]:
            catalog.add(cycle, score, found_at)
        return catalog, catalog.added
    if route == "strongest_path_pass":
        catalog = _RecordingCatalog(provenance="strongest-path")
        strongest_path_pass(graph, catalog, found_at=4)
        return catalog, catalog.added
    if route == "enumerate_loops":
        adj = {v: {w: weight for w, weight in graph.out[v] if weight != 0.0} for v in graph.nodes}
        cycles = [canonical_form(cycle) for cycle, _ in _elementary_circuits(graph.nodes, adj)]
        return enumerate_loops(graph), [(c, repr(cycle_score(graph, c)), "static") for c in cycles]
    text = enumerate_loops(graph).to_json().replace('"static"', '"x"', 2).replace('"found_at": "static"', '"found_at": 7', 2)
    loops = json.loads(text)["loops"]
    expected = [(canonical_form(item["cycle"]), repr(item["discovery_score"]), item["found_at"]) for item in loops]
    if route == "from_json":
        return LoopCatalog.from_json(text), expected
    return LoopCatalog.from_json_dict(json.loads(text)), expected


@pytest.mark.parametrize("route", ["add", "enumerate_loops", "strongest_path_pass", "from_json", "from_json_dict"])
def test_loops_are_fresh_equal_records_in_catalog_order(route):
    names = "dcba"  # the search starts at d, so enumerate_loops rotates its circuits
    graph = WeightedDigraph.from_edges(
        (src, dst, (-1) ** (i + j) * (1.0 + i + 0.3 * j)) for i, src in enumerate(names) for j, dst in enumerate(names) if i != j
    )
    catalog, expected = _built_and_expected(route, graph)
    first, second = catalog.loops(), catalog.loops()
    assert len(first) == len(catalog) == len(expected) > 1
    assert all(type(rec) is LoopRecord for rec in first)
    assert [(r.cycle, repr(r.discovery_score), r.found_at) for r in first] == expected
    assert first == second and all(a is not b for a, b in zip(first, second))
    first.clear()  # the list is the caller's own
    assert catalog.loops() == second


# --------------------------------------------------------------------------
# The strongest-path search against its frozen string-keyed reference

# equal magnitudes of both signs, zeros of both signs, and magnitudes whose
# products underflow to 0.0, go subnormal or overflow to inf along a path
_sweep_weights = st.sampled_from(
    [0.5, -0.5, 2.0, -2.0, 1.0, -1.0, 0.0, -0.0, 1e-200, -1e-200, 1e200, -1e200, 1e308, 5e-324, 1e-160]
) | st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@st.composite
def _sweep_graphs(draw):
    """Edge rows over up to 6 nodes, repeated edges and self loops
    included; the stocks (None: every node); the targets (None: the
    stocks), drawn from the nodes with repeats; and whether to sort."""
    n = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), _sweep_weights), max_size=24))
    edges = [(f"v{i}", f"v{j}", w) for i, j, w in rows]
    present = list(dict.fromkeys(v for src, dst, _ in edges for v in (src, dst)))
    stocks = draw(st.none() | st.lists(st.sampled_from([f"v{i}" for i in range(n)]), unique=True))
    targets = None
    if present and draw(st.booleans()):
        targets = draw(st.lists(st.sampled_from(present), max_size=6))
    return edges, stocks, targets, draw(st.booleans())


def _pass_result(kernel, graph, targets=None, found_at="static", registry=None) -> tuple:
    """A pass's expansions, its registry's records in insertion order and
    its on_visit trace (name, repr(score), depth); and the expansions and
    records of the same pass run without on_visit."""
    registry = registry if registry is not None else LoopCatalog(provenance="strongest-path")
    trace = []
    visits = kernel(graph, registry, targets=targets, found_at=found_at,
                    on_visit=lambda node, score, depth: trace.append((node, repr(score), depth)))
    quiet = LoopCatalog(provenance="strongest-path")
    quiet_visits = kernel(graph, quiet, targets=targets, found_at=found_at)
    return visits, _records(registry), trace, quiet_visits, _records(quiet)


def _graph_state(graph) -> tuple:
    return graph.nodes, graph.stocks, [(v, [(d, repr(w)) for d, w in out]) for v, out in graph.out.items()]


@settings(max_examples=400, deadline=None)
@given(_sweep_graphs())
# ties in |w| leave a's outbound order to insertion order
@example(([("a", "b", 0.5), ("a", "c", -0.5), ("b", "a", 1.0), ("c", "a", 1.0), ("c", "b", 1.0)], None, None, True))
# a hub reached with equal magnitudes from two stocks expands both times
@example(([("S1", "H", 1.0), ("H", "S1", 1.0), ("S2", "H", 1.0), ("H", "S2", 1.0)], ["S1", "S2"], None, True))
# products that overflow to inf, and inf times a zero weight: nan closes a loop
@example(([("a", "b", 1e200), ("b", "c", 1e200), ("c", "a", 0.0), ("c", "a", 2.0), ("b", "a", -1e-320)], None, None, True))
@example(([("a", "a", -3.0), ("a", "b", 5e-324), ("b", "a", 0.5), ("b", "a", 1e308)], None, ["b", "a", "b"], False))
def test_strongest_path_pass_matches_the_string_keyed_reference(case):
    edges, stocks, targets, sort = case
    graph = WeightedDigraph.from_edges(edges, stocks=stocks, sort=sort)
    frozen = reference.graph_from_edges(edges, stocks=stocks, sort=sort)
    assert _graph_state(graph) == _graph_state(frozen)
    assert _pass_result(strongest_path_pass, graph, targets, 7) == _pass_result(
        reference.strongest_path_pass, frozen, targets, 7
    )


def _late_stock_series(series: LinkScoreSeries, stocks: list[str], steps) -> LinkScoreSeries:
    """A copy of `series` where, at each of `steps`, every edge into the
    stock that is first in the run-wide numbering scores 0.  The stock's
    flows list it first, so at those steps it appears only through its
    own outbound edges, after other stocks."""
    names, _ = series.numbering
    first = next(v for v in names if v in stocks)
    columns = {edge: list(column) for edge, column in series.series.items()}
    for k in steps:
        for src, dst in series.edges:
            if dst == first:
                columns[(src, dst)][k] = 0.0
    return LinkScoreSeries(series.edges, series.times, columns)


def _check_sweep_against_reference(model, series: LinkScoreSeries) -> None:
    stocks = [v.name for v in model.by_kind("stock")]
    names, columns = series.numbering
    assert [(names[s], names[d]) for s, d, _ in columns] == list(series.edges)
    assert all(column is series.series[edge] for (_, _, column), edge in zip(columns, series.edges))
    weights = ((s, d, reference.reference_composite_weight(series.series[(s, d)], "max")) for s, d in series.edges)
    frozen = reference.graph_from_edges([(s, d, w) for s, d, w in weights if w != 0.0], stocks=stocks)
    assert _graph_state(sl.composite_graph(series, stocks)) == _graph_state(frozen)
    for stride in (1, 3):
        ref_visits, ref_registry = _reference_sweep(series, stocks, stride)
        assert _records(sl.discover(model, series, method="strongest-path", stride=stride)) == _records(ref_registry)
        registry = LoopCatalog(provenance="strongest-path")
        visits = [
            strongest_path_pass(step_graph(series, k, stocks), registry, found_at=k)
            for k in range(1, series.n + 1, stride)
        ]
        assert (visits, _records(registry)) == (ref_visits, _records(ref_registry))
    for k in range(1, series.n + 1, 2):
        for sort in (True, False):
            graph, frozen = step_graph(series, k, stocks, sort=sort), reference.step_graph(series, k, stocks, sort=sort)
            assert _graph_state(graph) == _graph_state(frozen)
            assert _pass_result(strongest_path_pass, graph, found_at=k) == _pass_result(
                reference.strongest_path_pass, frozen, found_at=k
            )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.sampled_from([0.5, 1.0]),
    st.integers(min_value=0, max_value=10_000),
    st.sets(st.integers(min_value=1, max_value=12), max_size=6),
)
def test_sweep_matches_the_string_keyed_reference(stocks, density, seed, late_steps):
    model = sl.parse_model(sl.gen_synthetic(sl.SyntheticSpec(stocks, density, seed)))
    series = sl.score_all(model, sl.simulate(model, sl.RunSpec(0.0, 12.0, 1.0)))
    names = [v.name for v in model.by_kind("stock")]
    _check_sweep_against_reference(model, _late_stock_series(series, names, sorted(late_steps)))


def test_sweep_matches_the_reference_where_a_stock_appears_late():
    model = sl.parse_model(sl.gen_synthetic(sl.SyntheticSpec(stocks=5, density=1.0, seed=3)))
    series = sl.score_all(model, sl.simulate(model, sl.RunSpec(0.0, 12.0, 1.0)))
    stocks = [v.name for v in model.by_kind("stock")]
    late = _late_stock_series(series, stocks, range(1, 13, 2))
    run_wide = [v for v in late.numbering[0] if v in stocks]
    for k in range(1, 13):
        step_order = [v for v in step_graph(late, k, stocks).nodes if v in stocks]
        assert (step_order == run_wide) == (k % 2 == 0), k
    _check_sweep_against_reference(model, late)


_float_extremes = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, math.nextafter(sys.float_info.min, 0.0),
     sys.float_info.max, -sys.float_info.max, math.nextafter(sys.float_info.max, 0.0),
     math.inf, -math.inf, math.nan, 1.0, -1.0, 0.5, 3.0]
)


@settings(max_examples=1000)
@given(st.floats() | _float_extremes, st.floats() | _float_extremes)
@example(5e-324, 0.5)
@example(-5e-324, -0.5)
@example(sys.float_info.max, -1.0000000000000002)
@example(math.inf, 0.0)
@example(3e-162, -3e-162)
def test_magnitude_of_a_product_is_the_product_of_magnitudes(c, w):
    """The identity that lets the search carry |score| and call no abs():
    rounding to nearest is symmetric in sign, so the two agree bit for bit."""
    left, right = abs(c * w), abs(c) * abs(w)
    assert (math.isnan(left) and math.isnan(right)) or struct.pack("<d", left) == struct.pack("<d", right)
