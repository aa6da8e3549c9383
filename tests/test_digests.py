"""Frozen sha256 digests of the program's output at scale.

The table is frozen: a change that alters any of these bytes fails here,
and a digest changes only with an intended output change, recorded in
CHANGES.md.  Run this file as a script to print the table for the
program in the current checkout.

The corpus:

* `graph-loops` by both methods on a seeded complete 12-node digraph that
  this file builds; the exhaustive listing stops at `--cap 25000`, which
  overflows;
* `compare` of those two catalogs, and of a copy of the exhaustive catalog
  with every score written as the JSON integer 1, which gives the same
  bytes as a copy with 1.0;
* `analyze --csv --links-csv` on the TWO_STOCK and ARMS_RACE fixtures.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from sdloops import ARMS_RACE, TWO_STOCK
from sdloops.cli import main

DIGESTS = {
    "exhaustive": "736f573e882e554e0a73bdbc967ff17860e0e33ea01b2c54eeb26fdccbc5993f",
    "strongest-path": "a0aedf7858df13ccbc9234ae424f1fbf46a991d49b117e77e00d2921f1caf8f5",
    "compare": "71fd19dc214d09293f5ef4c9ac2cdef422b167aa7b5d859315542a08f4331d0f",
    "compare-int": "5c87e341f075787918eb58a4a8c289ad0337f2fe10faa600bf62be5ca861bc3e",
    "compare-float": "5c87e341f075787918eb58a4a8c289ad0337f2fe10faa600bf62be5ca861bc3e",
    "twostock analyze json": "fc1dd961241ed53cc5eda3e36742e79d03f27086d6b915d892584093462f1d1b",
    "twostock analyze csv": "fa49832bcb8a0b2785bb5e11e27874f1df9705b4c85b52dc3213eb59e1ecad7b",
    "twostock analyze links.csv": "677a6d5d3badbca0cf2ffb9b5162ce97bae6ef15af7f5e26d2933061cf74a16e",
    "armsrace analyze json": "53eac8192dba451aa32f18eec4ff473b8cde629bd7b6e85dfb3467cea7cf9431",
    "armsrace analyze csv": "64cba997b8f3fa3b9e782270431d94bc3de4b03e5920f6f0dfd373d72872f764",
    "armsrace analyze links.csv": "0c6be669a3714d84299dad5741ab6a0f32c5c2c0ec5672474fc19c65d1816638",
}


def complete_digraph_csv(seed: int, nodes: int = 12) -> str:
    """An edge list of the complete digraph on `nodes` nodes without self
    loops, each weight seeded in [0.05, 1) with a seeded sign."""
    rng = random.Random(seed)
    rows = ["src,dst,weight"]
    for i in range(nodes):
        for j in range(nodes):
            if i != j:
                weight = (0.05 + 0.95 * rng.random()) * (1.0 if rng.random() < 0.5 else -1.0)
                rows.append(f"n{i:02d},n{j:02d},{weight!r}")
    return "\n".join(rows) + "\n"


def _run(*argv) -> None:
    assert main([str(arg) for arg in argv]) == 0, argv


def _with_scores(catalog: Path, score, out: Path) -> Path:
    doc = json.loads(catalog.read_text(encoding="utf-8"))
    for loop in doc["loops"]:
        loop["discovery_score"] = score
    out.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return out


def produce() -> dict[str, Path]:
    """Run the corpus in the current directory, with relative paths, as
    `analyze` writes its model path into the ranking; each output file by
    its name in DIGESTS."""
    edges = Path("edges.csv")
    edges.write_text(complete_digraph_csv(0), encoding="utf-8")
    out = {name: Path(f"{name}.out") for name in ("exhaustive", "strongest-path", "compare", "compare-int", "compare-float")}
    _run("graph-loops", edges, "--cap", 25000, "--out", out["exhaustive"])
    _run("graph-loops", edges, "--method", "strongest-path", "--out", out["strongest-path"])
    _run("compare", out["exhaustive"], out["strongest-path"], "--out", out["compare"])
    for name, score in (("compare-int", 1), ("compare-float", 1.0)):
        copy = _with_scores(out["exhaustive"], score, Path(f"{name}.json"))
        _run("compare", copy, out["strongest-path"], "--out", out[name])
    for fixture in (TWO_STOCK, ARMS_RACE):
        model = Path(f"{fixture.name}.sdm")
        model.write_text(fixture.source, encoding="utf-8")
        files = {kind: Path(f"{fixture.name}.{kind}") for kind in ("json", "csv", "links.csv")}
        _run("analyze", model, "--out", files["json"], "--csv", files["csv"], "--links-csv", files["links.csv"])
        out.update((f"{fixture.name} analyze {kind}", path) for kind, path in files.items())
    return out


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_outputs_match_the_frozen_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = produce()
    assert out["compare-int"].read_bytes() == out["compare-float"].read_bytes()
    assert json.loads(out["exhaustive"].read_text(encoding="utf-8"))["overflow"] is True
    assert {name: _sha256(path) for name, path in out.items()} == DIGESTS


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, path in produce().items():
            print(f'    "{name}": "{_sha256(path)}",')
