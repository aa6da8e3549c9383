"""Memory guard for the catalog round trip.

The peak memory a catalog load or write takes, as traced by tracemalloc
above what was allocated before it, is bounded by a multiple of the size
of the catalog file.  On a 5,000-loop catalog (about 1.2 MB) the
measured peaks were, on Python 3.10 to 3.13:

* `LoopCatalog.from_json`: 0.96 times the file, with each loop made a
  record as the text is parsed, against 1.76-1.96 when the whole document
  was parsed into dicts and lists before the records were built (and
  3.47-4.21 before that, when the document was kept in one string and
  node names were not shared);
* `graph-loops --out` (the listing and the write): 2.35-2.70 times the
  file, against 4.67-5.23 when the catalog was written through a list of
  loop dicts and one string of the whole text.

The bounds sit between the two.
"""

from __future__ import annotations

import tracemalloc
from pathlib import Path

import pytest

from sdloops.cli import main
from sdloops.discovery import LoopCatalog

FROM_JSON_BOUND = 1.25
GRAPH_LOOPS_BOUND = 3.5
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
