from __future__ import annotations

import pytest

import sdloops as sl
from sdloops.fixtures import stock_projection_circuit_count


class TestBundledFixtures:
    def test_every_model_fixture_parses_and_validates(self):
        for fixture in (sl.TWO_STOCK, sl.ARMS_RACE, sl.GREEDY_MISS_EDGES):
            assert fixture.notes
            if fixture.name == "greedy-miss":
                continue
            model = sl.parse_model(fixture.source)
            assert sl.validate(model) == []
            assert model.warnings == ()

    def test_greedy_miss_edge_list_loads(self, greedy_miss_graph):
        assert set(greedy_miss_graph.nodes) == set("abcd")

    def test_arms_race_variable_count(self, arms_model):
        assert len(arms_model.by_kind("stock", "flow", "aux")) == 9
        assert len(arms_model.by_kind("const")) == 2

    def test_arms_race_grows(self, arms_run):
        for party in "ABC":
            values = arms_run.values[party]
            assert values[-1] > values[0]
            tail = values[75:]
            assert all(b > a for a, b in zip(tail, tail[1:]))


class TestSynthetic:
    def test_deterministic_text(self):
        spec = sl.SyntheticSpec(stocks=5, density=0.7, seed=123)
        assert sl.gen_synthetic(spec) == sl.gen_synthetic(spec)

    def test_different_seeds_differ(self):
        a = sl.gen_synthetic(sl.SyntheticSpec(stocks=5, density=0.7, seed=1))
        b = sl.gen_synthetic(sl.SyntheticSpec(stocks=5, density=0.7, seed=2))
        assert a != b

    def test_generated_models_validate(self):
        for seed in range(10):
            model = sl.parse_model(sl.gen_synthetic(sl.SyntheticSpec(stocks=6, density=0.5, seed=seed)))
            assert sl.validate(model) == []

    def test_two_stocks_full_density_matches_twostock_topology(self):
        model = sl.parse_model(sl.gen_synthetic(sl.SyntheticSpec(stocks=2, density=1.0, seed=0)))
        graph = sl.dependency_graph(model)
        assert len(graph.edges) == 6
        catalog = sl.enumerate_loops(graph)
        assert len(catalog) == 3

    def test_eight_stocks_overflows_thousand_cap(self):
        assert stock_projection_circuit_count(8) == 16072
        model = sl.parse_model(sl.gen_synthetic(sl.SyntheticSpec(stocks=8, density=1.0, seed=0)))
        catalog = sl.enumerate_loops(sl.dependency_graph(model), cap=1000)
        assert catalog.overflow

    def test_circuit_count_formula_small_cases(self):
        # n=2: two self loops + one 2-cycle
        assert stock_projection_circuit_count(2) == 3
        # n=3: 3 self loops + 3 pair cycles + 2 triangles
        assert stock_projection_circuit_count(3) == 8
        model = sl.parse_model(sl.gen_synthetic(sl.SyntheticSpec(stocks=3, density=1.0, seed=0)))
        catalog = sl.enumerate_loops(sl.dependency_graph(model), cap=100)
        assert len(catalog) == 8

    def test_spec_bounds(self):
        with pytest.raises(ValueError):
            sl.SyntheticSpec(stocks=1)
        with pytest.raises(ValueError):
            sl.SyntheticSpec(stocks=3, density=0.0)
        with pytest.raises(ValueError):
            sl.SyntheticSpec(stocks=3, density=1.5)

    def test_density_controls_reference_count(self):
        import re

        text = sl.gen_synthetic(sl.SyntheticSpec(stocks=9, density=0.5, seed=4))
        for line in text.splitlines():
            if line.startswith("FLOW"):
                refs = re.findall(r"stock_\d+", line)
                assert len(refs) == 1 + 4  # own stock + ceil(0.5 * 8)
