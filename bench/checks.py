"""Output checks for the benchmark's jobs.

Each check returns a list of problems; an empty list means the output
passed.  Every output must be strict JSON (no NaN or Infinity).  The
invariants are cheap properties that hold for any seed:

* analyze: the ranking reports the workload's discovery route, every
  loop edge is an edge of the model's dependency graph, and every
  relative share lies in [0, 1] with the shares of a step summing to at
  most 1.
* static-catalog: the exhaustive catalog holds exactly the cap with the
  overflow flag set, every discovery score is the product of the loop's
  edge weights, and the comparison's sizes agree with both catalogs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import STATIC_CAP, WORKLOADS

__all__ = ["check_outputs", "strict_json"]

SHARE_SLACK = 1e-9      # rounding allowed in a per-step sum of shares
SCORE_REL_TOL = 1e-12   # products taken in another rotation differ in the last bits


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in JSON output")


def strict_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def _cycle_edges(cycle: list[str]):
    return zip(cycle, cycle[1:] + cycle[:1])


def check_ranking(ranking: dict, model_text: str, route: str) -> list[str]:
    from sdloops import dependency_graph, parse_model

    problems = []
    if ranking.get("provenance") != route:
        problems.append(f"route is {ranking.get('provenance')!r}, expected {route!r}")
    edges = set(dependency_graph(parse_model(model_text)).edges)
    loops = ranking["loops"]
    for loop in loops:
        missing = [edge for edge in _cycle_edges(loop["cycle"]) if edge not in edges]
        if missing:
            problems.append(f"loop edge {missing[0]} is not in the dependency graph")
            break
    for k in range(len(loops[0]["relative_series"]) if loops else 0):
        shares = [loop["relative_series"][k] for loop in loops]
        if not all(0.0 <= s <= 1.0 for s in shares) or sum(shares) > 1.0 + SHARE_SLACK:
            problems.append(f"relative shares at step {k} leave [0, 1] or sum above 1")
            break
    return problems


def check_catalog_scores(catalog: dict, weights: dict, label: str) -> list[str]:
    for loop in catalog["loops"]:
        product = math.prod(weights[edge] for edge in _cycle_edges(loop["cycle"]))
        if not math.isclose(product, loop["discovery_score"], rel_tol=SCORE_REL_TOL, abs_tol=0.0):
            return [f"{label} loop {loop['cycle']} scores {loop['discovery_score']}, edges give {product}"]
    return []


def check_static(exhaustive: dict, heuristic: dict, report: dict, edges_csv: str) -> list[str]:
    weights = {}
    for row in edges_csv.splitlines()[1:]:
        src, dst, weight = row.split(",")
        weights[(src, dst)] = float(weight)
    problems = []
    if len(exhaustive["loops"]) != STATIC_CAP or not exhaustive["overflow"]:
        problems.append(
            f"exhaustive catalog holds {len(exhaustive['loops'])} loops "
            f"(overflow {exhaustive['overflow']}), expected {STATIC_CAP} with overflow"
        )
    problems += check_catalog_scores(exhaustive, weights, "exhaustive")
    problems += check_catalog_scores(heuristic, weights, "heuristic")
    ref = {tuple(loop["cycle"]) for loop in exhaustive["loops"]}
    cand = {tuple(loop["cycle"]) for loop in heuristic["loops"]}
    sizes = (report["reference_size"], report["candidate_size"], report["intersection_size"])
    if sizes != (len(ref), len(cand), len(ref & cand)) or sizes[2] > min(sizes[:2]):
        problems.append(f"compare reports sizes {sizes}, catalogs give {(len(ref), len(cand), len(ref & cand))}")
    return problems


def check_outputs(workload: str, outputs: Path, inputs: Path) -> list[str]:
    """Check the outputs of one job, kept in `outputs`, against the
    workload's inputs in `inputs`."""
    spec = WORKLOADS[workload]
    try:
        data = {name: strict_json(outputs / name) for name in spec.outputs}
    except (OSError, ValueError) as err:
        return [f"unreadable output: {err}"]
    if workload == "static-catalog":
        return check_static(
            data["exhaustive.json"],
            data["heuristic.json"],
            data["compare.json"],
            (inputs / "edges.csv").read_text(encoding="utf-8"),
        )
    return check_ranking(data["ranking.json"], (inputs / "model.sdm").read_text(encoding="utf-8"), spec.route)
