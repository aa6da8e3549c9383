from __future__ import annotations

import json
import math
import random

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

import sdloops as sl
from sdloops.discovery import (
    LoopCatalog,
    MalformedCycleError,
    WeightedDigraph,
    _elementary_circuits,
    canonical_form,
    enumerate_loops,
    step_graph,
    strongest_path_pass,
)


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
        assert greedy_miss_graph.cycle_score(("a", "b", "c")) == pytest.approx(1000.0)
        assert greedy_miss_graph.cycle_score(("a", "d", "c")) == pytest.approx(100.0)


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


def _enumerate_with_cycle_score(graph: WeightedDigraph, cap: int) -> LoopCatalog:
    """Reference: every circuit through LoopCatalog.add, scored by the
    linear-scan cycle_score.  A repeated edge makes the search yield its
    circuits again; those repeats neither count nor overflow the cap."""
    adj = {v: [w for w, weight in graph.out.get(v, ()) if weight != 0.0] for v in graph.nodes}
    catalog = LoopCatalog(provenance="exhaustive")
    for cycle in _elementary_circuits(graph.nodes, adj):
        if cycle in catalog:
            continue
        if len(catalog) >= cap:
            catalog.overflow = True
            break
        catalog.add(cycle, graph.cycle_score(canonical_form(cycle)), "static")
    return catalog


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
def test_enumerate_scores_are_cycle_scores_bit_for_bit(rows, cap):
    graph = WeightedDigraph.from_edges((f"v{i}", f"v{j}", w) for i, j, w in rows)
    catalog = enumerate_loops(graph, cap=cap)
    for rec in catalog.loops():
        assert rec.discovery_score == graph.cycle_score(rec.cycle)
        assert repr(rec.discovery_score) == repr(graph.cycle_score(rec.cycle))
    reference = _enumerate_with_cycle_score(graph, cap)
    assert _records(catalog) == _records(reference)
    assert catalog.overflow == reference.overflow


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
    assert all(rec.discovery_score == graph.cycle_score(rec.cycle) for rec in catalog.loops())
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
            assert abs(graph.cycle_score(rec.cycle) - rec.discovery_score) < 1e-12

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
        data = catalog.to_json_dict()
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

    @pytest.mark.parametrize("second", [["a", "b", "c"], ["c", "a", "b"]])
    def test_repeated_loop_is_rejected(self, second):
        loops = [{"cycle": cycle, "discovery_score": 1.0, "found_at": 0} for cycle in (["b", "c", "a"], second)]
        with pytest.raises(MalformedCycleError, match="loop a -> b -> c is listed twice"):
            LoopCatalog.from_json_dict({"loops": loops})

    @pytest.mark.parametrize("score", [math.inf, -math.inf, math.nan])
    def test_non_finite_score_is_not_written(self, score):
        catalog = LoopCatalog()
        catalog.add(("a", "b"), score, "static")
        with pytest.raises(ValueError):
            catalog.to_json()
