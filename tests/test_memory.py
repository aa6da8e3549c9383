"""Memory guards for the catalog round trip and for `analyze`.

The peak memory a command or a catalog load takes, as traced by
tracemalloc above what was allocated before it, is bounded by a multiple
of the size of the file it writes or reads.  The measured peaks, on
Python 3.10 to 3.13:

* `LoopCatalog.from_json` of a 5,000-loop catalog (about 1.2 MB): 0.89
  times the file, with each loop made a record as the text is parsed,
  against 1.76-1.96 when the whole document was parsed into dicts and
  lists before the records were built (and 3.47-4.21 before that, when
  the document was kept in one string and node names were not shared);
* `graph-loops --out` of that catalog (the listing and the write):
  1.25-1.60 times the file, with each block of loops written as it is
  rendered, against 2.14-2.49 when the whole document was
  rendered before the file was opened (and 4.67-5.23 when the catalog was
  written through a list of loop dicts and one string of the whole text);
* `analyze --out` of a gated ring (276 loops over 400 steps, the 200
  ranked making a file of about 2.9 MB): 1.39-1.43 times the ranking file, with each loop
  written as it is rendered, the run freed once it is scored and no list
  of active steps kept per loop, against 2.58-2.64 before.

The bounds sit between the two.
"""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import pytest

from sdloops.cli import main
from sdloops.discovery import LoopCatalog

FROM_JSON_BOUND = 1.25
GRAPH_LOOPS_BOUND = 1.85
ANALYZE_BOUND = 2.0
NODES = 8
CAP = 5000


def _traced_peak(fn) -> int:
    """Peak bytes traced while fn() runs, above those traced before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def edges_csv(tmp_path_factory) -> Path:
    """A complete digraph on NODES nodes: far more than CAP circuits."""
    path = tmp_path_factory.mktemp("memory") / "edges.csv"
    names = [f"node_{i}" for i in range(NODES)]
    rows = [f"{a},{b},{0.1 + 0.01 * (i * NODES + j)!r}" for i, a in enumerate(names) for j, b in enumerate(names) if a != b]
    path.write_text("src,dst,weight\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def test_graph_loops_write_peak(edges_csv, tmp_path):
    out = tmp_path / "catalog.json"
    argv = ["graph-loops", str(edges_csv), "--cap", str(CAP), "--out", str(out)]
    peak = _traced_peak(lambda: main(argv))
    size = out.stat().st_size
    assert len(LoopCatalog.from_json(out.read_text(encoding="utf-8"))) == CAP
    assert peak < GRAPH_LOOPS_BOUND * size, f"peak {peak / size:.2f} times the file"


def test_from_json_peak(edges_csv, tmp_path):
    out = tmp_path / "catalog.json"
    assert main(["graph-loops", str(edges_csv), "--cap", str(CAP), "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    catalogs = []
    peak = _traced_peak(lambda: catalogs.append(LoopCatalog.from_json(text)))
    assert len(catalogs[0]) == CAP
    assert peak < FROM_JSON_BOUND * len(text), f"peak {peak / len(text):.2f} times the file"


def _gated_ring(stocks: int = 20, stop: int = 400) -> str:
    """A ring of first-order stages, each driven by the one before it (the
    first inverts the last) and some by the stage three back too; each flow's
    IF switches its rate as its stock crosses its target, so most loops are
    inactive at most steps."""
    lines = [f"SPEC START = 0 STOP = {stop} DT = 1"]
    for i in range(1, stocks + 1):
        drive = f"1.06 * s{stocks if i == 1 else i - 1}" + (f" + 0.2 * s{(i - 3) % stocks + 1}" if i % 5 in (0, 3) else "")
        drive = f"MIN({drive}, 100)"
        lines += [
            f"STOCK s{i} = {1 + i % 9} {{ inflow: f{i} }}",
            f"AUX u{i} = {f'ABS(100 - {drive})' if i == 1 else drive}",
            f"FLOW f{i} = IF u{i} > s{i} THEN 0.25 * (u{i} - s{i}) ELSE 0.1 * (u{i} - s{i})",
        ]
    return "\n".join(lines) + "\n"


def test_analyze_write_peak(tmp_path):
    model, out = tmp_path / "ring.sdm", tmp_path / "ranking.json"
    model.write_text(_gated_ring(), encoding="utf-8")
    peak = _traced_peak(lambda: main(["analyze", str(model), "--out", str(out)]))
    size = out.stat().st_size
    ranking = json.loads(out.read_text(encoding="utf-8"))
    assert ranking["provenance"] == "exhaustive" and len(ranking["loops"]) > 100
    assert peak < ANALYZE_BOUND * size, f"peak {peak / size:.2f} times the file"
