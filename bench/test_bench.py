"""Self-tests of the benchmark: python3 -m pytest bench"""

from __future__ import annotations

import copy
import json
import math
import re
from pathlib import Path

import pytest

import sdloops
import sdloops.cli
from checks import check_ranking, strict_json
from run import END_TO_END, PER_LAYER
from tracing import Tracer, job_layers
from workloads import RING_STOP, WORKLOADS, gated_long_source, write_inputs

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_are_byte_deterministic_per_seed(workload, tmp_path):
    contents = {}
    for seed in (0, 5):
        for copy in ("a", "b"):
            directory = tmp_path / f"{copy}{seed}"
            directory.mkdir()
            write_inputs(workload, seed, directory)
            contents[copy, seed] = {p.name: p.read_bytes() for p in directory.iterdir()}
        assert contents["a", seed] == contents["b", seed]
    assert contents["a", 0] != contents["a", 5]


@pytest.mark.parametrize("seed", [0, 1, 2, 7])
def test_gated_long_is_finite_exhaustive_and_switches_branches(seed):
    model = sdloops.parse_model(gated_long_source(seed))
    assert sdloops.validate(model) == []
    run = sdloops.simulate(model)
    assert run.n == RING_STOP
    assert all(math.isfinite(v) for series in run.values.values() for v in series)
    catalog = sdloops.discover(model, sdloops.score_all(model, run))
    assert catalog.provenance == "exhaustive" and not catalog.overflow
    switching = [
        (name, i)
        for name, slots in run.branch_trace.items()
        for i, taken in enumerate(slots)
        if {True, False} <= set(taken)
    ]
    assert switching


def test_metric_names_match_benchmark_json():
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for name in [*END_TO_END, *PER_LAYER, *WORKLOADS]:
        assert NAME.fullmatch(name), name


def _analyze_fixture(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("model.sdm").write_text(sdloops.TWO_STOCK.source, encoding="utf-8")
    argv = ["analyze", "model.sdm", "--out", "ranking.json"]
    assert sdloops.cli.main(argv) == 0
    return argv, Path("ranking.json")


def test_traced_job_is_byte_identical_and_layers_add_up(tmp_path, monkeypatch):
    argv, out = _analyze_fixture(tmp_path, monkeypatch)
    untraced = out.read_bytes()
    originals = (sdloops.cli.main, sdloops.cli.json, sdloops.analysis.loop_score_series)
    tracer = Tracer()
    tracer.install()
    try:
        code, ns = tracer.run_job(0, lambda: sdloops.cli.main(argv))
    finally:
        tracer.uninstall()
    assert code == 0 and out.read_bytes() == untraced
    assert (sdloops.cli.main, sdloops.cli.json, sdloops.analysis.loop_score_series) == originals
    assert sum(job_layers(tracer.spans, tracer.layer_of, 0).values()) == ns
    loops = len(json.loads(untraced)["loops"])
    counts = tracer.job_counts()
    assert counts["discovery.loops"] == loops
    assert counts["analysis.loop_series_calls"] == 2 * loops
    assert counts["scoring.link_scores"] > 0


def test_checks_flag_bad_rankings(tmp_path, monkeypatch):
    _, out = _analyze_fixture(tmp_path, monkeypatch)
    ranking = strict_json(out)
    source = sdloops.TWO_STOCK.source
    assert check_ranking(ranking, source, "exhaustive") == []
    assert check_ranking(ranking, source, "strongest-path")
    share = copy.deepcopy(ranking)
    share["loops"][0]["relative_series"][1] = 1.5
    assert check_ranking(share, source, "exhaustive")
    edge = copy.deepcopy(ranking)
    edge["loops"][0]["cycle"] = ["Stock_1", "Stock_2"]
    assert check_ranking(edge, source, "exhaustive")


def test_strict_json_rejects_non_finite_numbers(tmp_path):
    path = tmp_path / "out.json"
    path.write_text('{"score": NaN}', encoding="utf-8")
    with pytest.raises(ValueError):
        strict_json(path)
