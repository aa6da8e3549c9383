"""Workload inputs and jobs.

Each workload writes its inputs into a work directory from a seed and
names the `sdloops` commands one job runs there.  Input paths are
relative to the work directory, so output bytes do not depend on where
the directory lives.  The generators here use only the standard library,
so they can be tested without importing the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Workload",
    "WORKLOADS",
    "gated_long_source",
    "static_catalog_csv",
    "write_inputs",
]

# gated-long: a ring of RING_STOCKS first-order stages.  Stage i relaxes
# towards a target driven by stage i-1; stage 1 inverts stage 20, so the
# ring is one negative feedback loop whose gain (> 1) and 20-stage lag
# keep it oscillating for the whole run, and MIN/ABS keep every target in
# [0, RING_CAP].  Forward chords from stage i-2 add parallel routes round
# the ring (2^8 ring loops) and backward chords from stage i+1 add short
# loops; with the 20 stage loops that is 279 loops, under the default cap
# of 1000, so `analyze` stays on the exhaustive route for every seed.
# Each flow's IF switches its rate whenever its stock crosses its target.
RING_STOCKS = 20
RING_CAP = 100.0
RING_STOP = 400
FORWARD_CHORDS = (3, 5, 8, 10, 13, 15, 18, 20)
BACKWARD_CHORDS = (6, 11, 16)

# static-catalog: a complete digraph without self loops has far more than
# STATIC_CAP elementary circuits at this size, so the exhaustive listing
# always stops at the cap and its work is fixed for every seed.
STATIC_NODES = 12
STATIC_CAP = 25_000

# dense-sweep: a 24-stock model run for DENSE_STEPS of its 100 steps.  The
# loops the sweep discovers, and with them the ranking cost, swing with
# the generator seed (119 to 1468 loops over generator seeds 0-199).  So
# that runs with different seeds do the same work, a benchmark seed picks
# one of the generator seeds below.  Each of their models discovers
# 840-892 loops, whose per-step score products take 0.50-0.53 million
# edge-score lookups.
DENSE_STOCKS = 24
DENSE_STEPS = 30
DENSE_GEN_SEEDS = (14, 33, 86, 115, 118, 137, 168, 195)


def gated_long_source(seed: int) -> str:
    """Model text of the gated ring; the seed sets only the constants."""
    rng = random.Random(seed)
    lines = [
        f"# gated ring: stocks={RING_STOCKS} seed={seed}",
        f"SPEC START = 0 STOP = {RING_STOP} DT = 1",
    ]
    for i in range(1, RING_STOCKS + 1):
        lines.append(f"STOCK s_{i} = {rng.uniform(1.0, 10.0)!r} {{ inflow: f_{i} }}")
    for i in range(1, RING_STOCKS + 1):
        prev = RING_STOCKS if i == 1 else i - 1
        terms = [f"{rng.uniform(1.05, 1.08)!r} * s_{prev}"]
        if i in FORWARD_CHORDS:
            terms.append(f"{rng.uniform(0.15, 0.25)!r} * s_{(i - 3) % RING_STOCKS + 1}")
        if i in BACKWARD_CHORDS:
            terms.append(f"{rng.uniform(0.08, 0.12)!r} * s_{i % RING_STOCKS + 1}")
        drive = f"MIN({' + '.join(terms)}, {RING_CAP!r})"
        target = f"ABS({RING_CAP!r} - {drive})" if i == 1 else drive
        lines.append(f"AUX u_{i} = {target}")
        up, down = rng.uniform(0.2, 0.3), rng.uniform(0.08, 0.12)
        lines.append(
            f"FLOW f_{i} = IF u_{i} > s_{i} THEN {up!r} * (u_{i} - s_{i}) "
            f"ELSE {down!r} * (u_{i} - s_{i})"
        )
    return "\n".join(lines) + "\n"


def static_catalog_csv(seed: int) -> str:
    """Edge list of a complete digraph with seeded signed weights."""
    rng = random.Random(seed)
    rows = ["src,dst,weight"]
    for i in range(STATIC_NODES):
        for j in range(STATIC_NODES):
            if i != j:
                weight = rng.uniform(0.05, 1.0) * rng.choice((1.0, -1.0))
                rows.append(f"n{i:02d},n{j:02d},{weight!r}")
    return "\n".join(rows) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]  # argv lists for sdloops.cli.main
    outputs: tuple[str, ...]               # files the commands write
    route: str | None = None               # provenance `analyze` must report



WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense-sweep",
            (("analyze", "model.sdm", "--stop", str(DENSE_STEPS), "--out", "ranking.json"),),
            ("ranking.json",),
            route="strongest-path",
        ),
        Workload("gated-long", (("analyze", "model.sdm", "--out", "ranking.json"),), ("ranking.json",), route="exhaustive"),
        Workload(
            "static-catalog",
            (
                ("graph-loops", "edges.csv", "--cap", str(STATIC_CAP), "--out", "exhaustive.json"),
                ("graph-loops", "edges.csv", "--method", "strongest-path", "--out", "heuristic.json"),
                ("compare", "exhaustive.json", "heuristic.json", "--out", "compare.json"),
            ),
            ("exhaustive.json", "heuristic.json", "compare.json"),
        ),
    )
}


def write_inputs(workload: str, seed: int, workdir: Path) -> None:
    """Write the workload's input file into `workdir`.  dense-sweep goes
    through the program's own generator, so this imports `sdloops`."""
    if workload == "dense-sweep":
        from sdloops import SyntheticSpec, gen_synthetic

        spec = SyntheticSpec(DENSE_STOCKS, 1.0, DENSE_GEN_SEEDS[seed % len(DENSE_GEN_SEEDS)])
        (workdir / "model.sdm").write_text(gen_synthetic(spec), encoding="utf-8")
    elif workload == "gated-long":
        (workdir / "model.sdm").write_text(gated_long_source(seed), encoding="utf-8")
    elif workload == "static-catalog":
        (workdir / "edges.csv").write_text(static_catalog_csv(seed), encoding="utf-8")
    else:
        raise ValueError(f"unknown workload {workload!r}")
