"""`analyze` and `simulate` end to end against the references of `reference.py`
composed into one pipeline: exit codes, standard output and error, and every
output file must be equal, byte for byte.  Run it alone with
`python -m pytest tests/test_end_to_end.py`."""

from __future__ import annotations

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import networkx as nx
from hypothesis import example, given, settings, strategies as st

import reference
import sdloops as sl
from reference import _enumerate_with_cycle_score, _reference_ranking, _reference_sweep
from sdloops.cli import main
from sdloops.engine import run_to_csv
from sdloops.scoring import LinkScoreSeries
from strategies import CANCELLING_INFLOWS, DIVIDES_AT_MIXED_POINT, DIVIDES_BY_ZERO, OVERFLOWING_LOOP, STEEP_GATE, TRANSFER, models

# each method, at strides 1 and 3 where it reads --stride
_RUNS = [("auto", 1), ("auto", 3), ("exhaustive", None), ("strongest-path", 1), ("strongest-path", 3)]
_texts = st.one_of(
    models().map(lambda lines: "\n".join(lines) + "\n"),
    # gen models run 30 of their 100 steps: ten swept at stride 3, and a third of the cost
    st.builds(lambda stocks, seed: sl.gen_synthetic(sl.SyntheticSpec(stocks, seed=seed)).replace("STOP = 100", "STOP = 30"),
              st.integers(3, 4), st.integers(0, 999)),
)


def _cli(argv: list[str], out: str) -> tuple:
    """main(argv)'s exit code, standard output and error, and the files it wrote in `out` (removed)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    files = {path.name: path.read_bytes() for path in Path(out).iterdir()}
    for name in files:
        Path(out, name).unlink()
    return code, stdout.getvalue(), stderr.getvalue(), files


def _ranked(catalog, series, metadata: dict) -> tuple:
    """The exit code, standard error and files of `analyze` from discovery on."""
    ranked = _reference_ranking(catalog, series, metadata["threshold"], metadata["top"])
    records = {rec.cycle: rec for rec in catalog.loops()}
    loops = [
        {"cycle": list(cycle), "polarity": polarity, "note": note, "avg_contribution": float(avg),
         "discovery_score": records[cycle].discovery_score, "found_at": records[cycle].found_at,
         "score_series": list(map(float, raw)), "relative_series": list(map(float, rel))}
        for cycle, avg, raw, rel, polarity, note in ranked
    ]
    doc = {"provenance": catalog.provenance, "overflow": catalog.overflow,
           "normalization": "relative scores are normalized over the discovered catalog", "loops": loops,
           "metadata": {**metadata, "loops_discovered": len(catalog), "loops_after_filter": len(loops)}}
    outcome = reference._reference(doc)
    if outcome[0] == "raises":
        return 3, f"error: non-finite number in JSON output ({outcome[2]})\n", {}
    files = {"ranking.json": outcome[1] + "\n", "links.csv": reference.series_to_csv(series),
             "loops.csv": reference.profiles_to_csv([SimpleNamespace(**loop) for loop in loops], series.times)}
    return 0, "", {name: text.encode("utf-8") for name, text in files.items()}


@settings(max_examples=40, deadline=None)
@given(_texts, st.sampled_from([1, 2, 1000]), st.sampled_from([0.0, 0.25]), st.sampled_from([1, 200]))
@example(DIVIDES_AT_MIXED_POINT, 1000, 0.0, 200)
@example(TRANSFER, 2, 0.25, 200)
@example(CANCELLING_INFLOWS, 1, 0.0, 1)
@example(STEEP_GATE, 1000, 0.25, 1)
@example(OVERFLOWING_LOOP, 1000, 0.0, 200)
@example(OVERFLOWING_LOOP, 1000, 0.25, 1)  # the NaN loop ranks first, whatever --top and --threshold ask for
@example(DIVIDES_BY_ZERO, 2, 0.25, 1)
@example(sl.gen_synthetic(sl.SyntheticSpec(3)), 1, 0.0, 200)  # auto sweeps too
def test_analyze_matches_the_reference_pipeline(text, cap, threshold, top):
    model = sl.parse_model(text)
    assert sl.validate(model) == []
    warnings = "".join(f"{w}\n" for w in model.warnings)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "model.sdm"), os.path.join(tmp, "out")
        os.mkdir(out)
        Path(path).write_text(text, encoding="utf-8")
        outputs = ["--out", os.path.join(out, "ranking.json"), "--csv", os.path.join(out, "loops.csv"),
                   "--links-csv", os.path.join(out, "links.csv")]
        analyzed = [
            _cli(["analyze", path, "--method", method, "--threshold", str(threshold), "--top", str(top), *outputs]
                 + (["--cap", str(cap)] if method != "strongest-path" else []) + (["--stride", str(stride)] if stride else []), out)
            for method, stride in _RUNS
        ]
        simulated = _cli(["simulate", path, "--out", os.path.join(out, "run.csv")], out)

    try:
        run = reference.simulate(model)
    except sl.SimulationError as err:
        assert [simulated, *analyzed] == [(3, "", f"{warnings}error: {err}\n", {})] * 6
        return
    assert simulated == (0, "", warnings, {"run.csv": run_to_csv(run).encode("utf-8")})
    edges = sl.dependency_graph(model).edges
    steps = [reference.reference_link_score_step(model, run, k) for k in range(1, run.n + 1)]
    series = LinkScoreSeries(edges, run.times, {edge: [0.0, *(step[edge] for step in steps)] for edge in edges})
    stocks = [v.name for v in model.by_kind("stock")]
    weights = {edge: reference.reference_composite_weight(series.series[edge], "max") for edge in edges}
    active = [edge for edge, w in weights.items() if w != 0.0]
    listed = _enumerate_with_cycle_score(reference.graph_from_edges(((*e, weights[e]) for e in active), stocks), cap)
    cycles = {sl.canonical_form(cycle) for cycle in nx.simple_cycles(nx.DiGraph(active))}
    assert (listed.cycles() < cycles and len(listed) == cap) if listed.overflow else listed.cycles() == cycles

    for (method, stride), got in zip(_RUNS, analyzed):
        if method == "exhaustive" and listed.overflow:
            expected = (3, f"error: cap exceeded; {len(listed)} loops found before truncation\n", {})
        else:
            swept = method == "strongest-path" or (method == "auto" and listed.overflow)
            catalog = _reference_sweep(series, stocks, stride)[1] if swept else listed
            metadata = {"model": path, "method": method, "cap": 1000 if method == "strongest-path" else cap,
                        "stride": stride or 1, "threshold": threshold, "top": top}
            expected = _ranked(catalog, series, metadata)
        assert got == (expected[0], "", warnings + expected[1], expected[2]), (method, stride)
