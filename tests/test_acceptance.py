"""Acceptance suite: one test per criterion, each printing a PASS line
(run with -s or -rP to see them; a failed assert is the FAIL signal).

Criterion 5's second clause is asserted in the phase where cross-coupling
is active.  The literal all-active-steps reading is provably incompatible
with criteria 4 and 6 (their score patterns force steps where both minor
loops are active with equal magnitude, so no loop can have relative score
1 there); it is kept as a strict xfail for the record.
"""

from __future__ import annotations

import json
import math
import time

import pytest

import sdloops as sl
from sdloops.cli import main
from sdloops.discovery import LoopCatalog, step_graph, strongest_path_pass
from sdloops.dsl import expr_refs
from sdloops.engine import _eval_initials, compile_expr
from sdloops.fixtures import stock_projection_circuit_count

BENCH_SPEC = sl.SyntheticSpec(stocks=12, density=1.0, seed=7)


@pytest.fixture(scope="module")
def arms():
    model = sl.parse_model(sl.ARMS_RACE.source)
    run = sl.simulate(model)
    series = sl.score_all(model, run)
    return model, run, series


@pytest.fixture(scope="module")
def twostock():
    model = sl.parse_model(sl.TWO_STOCK.source)
    run = sl.simulate(model)
    series = sl.score_all(model, run)
    return model, run, series


@pytest.fixture(scope="module")
def bench_series():
    model = sl.parse_model(sl.gen_synthetic(BENCH_SPEC))
    run = sl.simulate(model)
    return model, sl.score_all(model, run)


def _loop_lengths(catalog):
    return sorted(len(c) for c in catalog.cycles())


def test_criterion_01_arms_race_structure(arms):
    model, _, series = arms
    t0 = time.perf_counter()
    catalog = sl.discover(model, series)
    elapsed = time.perf_counter() - t0
    assert catalog.provenance == "exhaustive"
    assert len(catalog) == 8
    assert _loop_lengths(catalog) == [2, 2, 2, 6, 6, 6, 9, 9]
    profiles = {p.cycle: p for p in sl.build_profiles(catalog, series)}
    polarity = {2: set(), 6: set(), 9: set()}
    for cycle, profile in profiles.items():
        polarity[len(cycle)].add(profile.polarity)
    assert polarity[2] == {"balancing"}
    assert polarity[6] == {"reinforcing"}
    assert polarity[9] == {"reinforcing"}
    assert elapsed < 1.0
    print(f"PASS criterion 1: arms race has 8 loops (3 balancing, 5 reinforcing) in {elapsed:.3f}s")


def _linear_coefficients(model, name):
    var = model.variable(name)
    refs = expr_refs(var.expr)
    consts = {v.name for v in model.by_kind("const")}
    initials = _eval_initials(model)
    base = {r: (initials[r] if r in consts else 0.0) for r in refs}
    f = compile_expr(var.expr)
    zero = f(dict(base), 0.0, 1.0, {})
    out = {}
    for r in refs:
        if r in consts:
            continue
        env = dict(base)
        env[r] = 1.0
        out[r] = f(env, 0.0, 1.0, {}) - zero
    return out


def test_criterion_02_arms_race_gains(arms):
    model, _, series = arms
    catalog = sl.discover(model, series)
    aux_names = {v.name for v in model.by_kind("aux")}
    coefs = {name: _linear_coefficients(model, name) for name in aux_names}

    gains = {6: [], 9: []}
    for rec in catalog.loops():
        cycle = rec.cycle
        if len(cycle) == 2:
            continue
        gain = 1.0
        for i, src in enumerate(cycle):
            dst = cycle[(i + 1) % len(cycle)]
            if dst in aux_names:
                gain *= coefs[dst][src]
        gains[len(cycle)].append(gain)

    pairwise = sorted(gains[6])
    three_party = sorted(gains[9])
    assert len(pairwise) == 3 and len(three_party) == 2
    for got, want in zip(pairwise, (0.99, 0.99, 1.0)):
        assert abs(got - want) <= 1e-12
    for got, want in zip(three_party, (0.81, 1.21)):
        assert abs(got - want) <= 1e-12
    assert all(g <= 1.0 + 1e-12 for g in pairwise)
    print("PASS criterion 2: open-loop gains pairwise {1.0, 0.99, 0.99} (all <= 1), three-party {0.81, 1.21}")


def test_criterion_03_arms_race_dominance_shift(arms):
    model, run, series = arms
    catalog = sl.discover(model, series)
    rel = sl.relative_scores(catalog, series)
    three_party = [c for c in rel if len(c) == 9]
    assert len(three_party) == 2
    quarter_start = 3 * run.n // 4
    combined = [sum(rel[c][k] for c in three_party) for k in range(run.n + 1)]
    for k in range(quarter_start, run.n + 1):
        assert combined[k] > 0.5, (k, combined[k])
    print(
        "PASS criterion 3: three-party loops hold {:.0%}..{:.0%} of behavior over the final quarter".format(
            min(combined[quarter_start:]), max(combined[quarter_start:])
        )
    )


def test_criterion_04_two_stock_link_pattern(twostock):
    model, run, series = twostock
    s1_f2 = series.series[("Stock_1", "Flow_2")]
    assert sum(1 for s in s1_f2 if s != 0.0) == 1
    assert s1_f2[5] == 1.0

    s2_f1 = series.series[("Stock_2", "Flow_1")]
    assert all(s2_f1[k] == 0.0 for k in range(0, 7))
    assert all(s2_f1[k] == 1.0 for k in range(7, 13))

    for flow, stock in (("Flow_1", "Stock_1"), ("Flow_2", "Stock_2")):
        scores = series.series[(flow, stock)]
        for k in range(1, 13):
            changed = run.values[stock][k] != run.values[stock][k - 1]
            assert scores[k] == (1.0 if changed else 0.0)
    print("PASS criterion 4: cross links spike at 5 / step up at 7; flow-to-stock links are 1 while stocks change")


def test_criterion_05_two_stock_exclusivity(twostock):
    model, _, series = twostock
    catalog = sl.discover(model, series)
    long_loop = ("Flow_1", "Stock_1", "Flow_2", "Stock_2")
    assert sl.loop_score_series(long_loop, series) == [0.0] * 13

    rel = sl.relative_scores(catalog, series)
    cross_active = [
        k
        for k in range(1, 13)
        if series.series[("Stock_1", "Flow_2")][k] != 0.0
        or series.series[("Stock_2", "Flow_1")][k] != 0.0
    ]
    assert cross_active  # the coupling phase exists
    for k in cross_active:
        values = sorted(rel[c][k] for c in rel)
        assert values == [0.0, 0.0, 1.0], (k, values)
    print("PASS criterion 5: long loop identically 0; one loop owns each cross-coupled step")


@pytest.mark.xfail(
    strict=True,
    reason="incompatible with criteria 4 and 6: the stock-to-flow score averages "
    "(0.5 and ~0.9 over 12 steps) force early steps where both minor loops are "
    "active with equal magnitude, so no loop has relative score 1 there",
)
def test_criterion_05_literal_every_active_step(twostock):
    model, _, series = twostock
    catalog = sl.discover(model, series)
    rel = sl.relative_scores(catalog, series)
    for k in range(1, 13):
        if any(rel[c][k] != 0.0 for c in rel):
            assert sorted(rel[c][k] for c in rel) == [0.0, 0.0, 1.0], k


def test_criterion_06_two_stock_composites(twostock):
    _, _, series = twostock
    avg = sl.composite_scores(series, "avg").weights
    expected = {
        ("Stock_1", "Flow_1"): 0.5,
        ("Stock_2", "Flow_2"): 0.9,
        ("Stock_1", "Flow_2"): 0.1,
        ("Stock_2", "Flow_1"): 0.5,
    }
    for edge, want in expected.items():
        assert abs(abs(avg[edge]) - want) <= 0.05, (edge, avg[edge])
    maxw = sl.composite_scores(series, "max").weights
    assert all(w == 1.0 for w in maxw.values())
    print("PASS criterion 6: avg composites within 0.05 of 0.5/0.9/0.1/0.5; max composites exactly 1")


def test_criterion_07_greedy_miss(greedy_miss_graph):
    heuristic = LoopCatalog(provenance="strongest-path")
    strongest_path_pass(greedy_miss_graph, heuristic, targets=["a"])
    records = heuristic.loops()
    assert len(records) == 1
    assert records[0].cycle == ("a", "d", "c")
    assert abs(records[0].discovery_score - 100.0) <= 1e-9

    exhaustive = sl.enumerate_loops(greedy_miss_graph)
    scores = {rec.cycle: rec.discovery_score for rec in exhaustive.loops()}
    assert ("a", "b", "c") in scores and ("a", "d", "c") in scores
    assert abs(scores[("a", "b", "c")] - 1000.0) <= 1e-9
    assert abs(scores[("a", "d", "c")] - 100.0) <= 1e-9
    assert ("a", "b", "c") not in heuristic.cycles()
    print("PASS criterion 7: greedy search from a finds only a->d->c->a (100); exhaustive has both (1000, 100)")


def test_criterion_08_heuristic_subset_property():
    checked_loops = 0
    for seed in range(50):
        stocks = 2 + seed % 5  # 2..6
        density = (0.4, 0.7, 1.0)[seed % 3]
        model = sl.parse_model(sl.gen_synthetic(sl.SyntheticSpec(stocks, density, seed)))
        run = sl.simulate(model)
        series = sl.score_all(model, run)
        exhaustive = sl.discover(model, series, cap=100_000, method="exhaustive")
        assert not exhaustive.overflow
        heuristic = sl.discover(model, series, method="strongest-path")
        assert heuristic.cycles() <= exhaustive.cycles(), seed
        for rec in heuristic.loops():
            recomputed = sl.loop_score_series(rec, series)[rec.found_at]
            assert math.isclose(recomputed, rec.discovery_score, rel_tol=1e-9, abs_tol=1e-9), (seed, rec)
            checked_loops += 1
    assert checked_loops > 0
    print(f"PASS criterion 8: 50 synthetic models, heuristic subset of exhaustive, {checked_loops} scores re-verified")


def test_criterion_09_performance(tmp_path):
    assert stock_projection_circuit_count(BENCH_SPEC.stocks) > 10**6
    model_path = tmp_path / "bench.sdm"
    model_path.write_text(sl.gen_synthetic(BENCH_SPEC), encoding="utf-8")
    out_path = tmp_path / "ranking.json"
    t0 = time.perf_counter()
    code = main(
        [
            "analyze",
            str(model_path),
            "--method",
            "strongest-path",
            "--stride",
            "10",
            "--out",
            str(out_path),
        ]
    )
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 60.0
    data = json.loads(out_path.read_text(encoding="utf-8"))
    discovered = data["metadata"]["loops_discovered"]
    # the registry holds discovered loops only, orders of magnitude below
    # the full circuit count
    assert 0 < discovered < 200_000
    assert discovered < stock_projection_circuit_count(BENCH_SPEC.stocks) / 100
    print(
        f"PASS criterion 9: {stock_projection_circuit_count(BENCH_SPEC.stocks):,} circuits; "
        f"strongest-path analyze took {elapsed:.1f}s and registered {discovered} loops"
    )


def test_criterion_10_ordering_speedup(bench_series):
    model, series = bench_series
    stocks = [v.name for v in model.by_kind("stock")]
    visits = {True: 0, False: 0}
    loops = {}
    for sort in (True, False):
        registry = LoopCatalog(provenance="strongest-path")
        for k in range(1, series.n + 1, 10):
            graph = step_graph(series, k, stocks, sort=sort)
            visits[sort] += strongest_path_pass(graph, registry, found_at=k)
        loops[sort] = len(registry)
    assert visits[True] < visits[False]
    ratio = visits[False] / visits[True]
    print(
        f"PASS criterion 10: sorted outbound links visit {visits[True]} nodes vs {visits[False]} unsorted "
        f"(ratio {ratio:.2f}; {loops[True]} vs {loops[False]} loops)"
    )


def test_criterion_11_normalization_invariant(arms, twostock):
    cases = [arms[0:3:2], twostock[0:3:2]]
    for seed in (0, 1, 2):
        model = sl.parse_model(sl.gen_synthetic(sl.SyntheticSpec(stocks=4, density=1.0, seed=seed)))
        run = sl.simulate(model)
        cases.append((model, sl.score_all(model, run)))
    checked_steps = 0
    for model, series in cases:
        catalog = sl.discover(model, series, cap=100_000)
        if len(catalog) == 0:
            continue
        rel = sl.relative_scores(catalog, series)
        for k in range(series.n + 1):
            total = sum(rel[c][k] for c in rel)
            assert total == 0.0 or abs(total - 1.0) <= 1e-12, (k, total)
            checked_steps += 1
    assert checked_steps > 0
    print(f"PASS criterion 11: relative scores sum to 1 or 0 at {checked_steps} steps across 5 models")
