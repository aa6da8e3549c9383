"""Loop score series, relative contributions, ranking, polarity, and
catalog comparison.

The score of a loop at a step is the signed product of its edge scores at
that step; the relative score divides its magnitude by the sum of
magnitudes across the whole catalog (per step), so relative scores sum to
1 wherever any loop is active and to 0 everywhere else.  In heuristic
mode the denominator is necessarily the *discovered* set; outputs carry
that note in their metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .discovery import Cycle, LoopCatalog, LoopRecord, canonical_form
from .dsl import format_number
from .scoring import LinkScoreSeries

__all__ = [
    "AnalysisError",
    "LoopProfile",
    "CompletenessReport",
    "loop_score_series",
    "relative_scores",
    "build_profiles",
    "classify_polarity",
    "rank_and_filter",
    "compare_catalogs",
    "profiles_to_csv",
    "ranking_to_json_dict",
    "loop_id",
]


class AnalysisError(Exception):
    pass


@dataclass
class LoopProfile:
    record: LoopRecord
    score_series: list[float]
    relative_series: list[float]
    avg_contribution: float
    polarity: str
    note: str | None = None

    @property
    def cycle(self) -> Cycle:
        return self.record.cycle


@dataclass
class CompletenessReport:
    reference_size: int
    candidate_size: int
    intersection_size: int
    top_loops: list[dict]    # {"cycle": [...], "present": bool}
    near_misses: list[dict]  # {"reference_cycle": [...], "candidate_cycle": [...], "overlap": float}

    def to_json_dict(self) -> dict:
        return {
            "reference_size": self.reference_size,
            "candidate_size": self.candidate_size,
            "intersection_size": self.intersection_size,
            "top_loops": self.top_loops,
            "near_misses": self.near_misses,
        }


def loop_id(cycle: Cycle) -> str:
    return "->".join(cycle)


def loop_score_series(loop: LoopRecord | Cycle, series: LinkScoreSeries) -> list[float]:
    """Signed product of the loop's edge scores at each step; zero
    whenever any edge is zero.  Raises AnalysisError if the loop uses an
    edge absent from the series."""
    cycle = loop.cycle if isinstance(loop, LoopRecord) else canonical_form(loop)
    edges = [(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]
    for edge in edges:
        if edge not in series.series:
            raise AnalysisError(f"loop edge {edge[0]} -> {edge[1]} is not in the score series")
    columns = [series.series[edge] for edge in edges]
    return [0.0 if 0.0 in row else math.prod(row) for row in zip(*columns)]


def relative_scores(catalog: LoopCatalog, series: LinkScoreSeries) -> dict[Cycle, list[float]]:
    """Per-step share of each loop's score magnitude in the catalog
    total; all zero at steps where no loop is active."""
    return {p.cycle: p.relative_series for p in build_profiles(catalog, series)}


def classify_polarity(score_series: list[float]) -> tuple[str, str | None]:
    """Reinforcing if every nonzero score is positive, balancing if every
    nonzero score is negative, mixed otherwise.  A loop that is never
    active reports mixed with a note."""
    nonzero = [s for s in score_series if s != 0.0]
    if not nonzero:
        return "mixed", "never active"
    if all(s > 0 for s in nonzero):
        return "reinforcing", None
    if all(s < 0 for s in nonzero):
        return "balancing", None
    return "mixed", None


def build_profiles(catalog: LoopCatalog, series: LinkScoreSeries) -> list[LoopProfile]:
    """One profile per catalog loop, in catalog order.  Each loop's score
    series is computed once; the relative series divide its magnitudes by
    the per-step catalog total.  avg_contribution averages the relative
    series over steps 1..n, counting all-inactive steps as zero."""
    records = catalog.loops()
    scores = [loop_score_series(rec, series) for rec in records]
    totals = [sum(map(abs, column)) for column in zip(*scores)]
    profiles = []
    n = series.n
    for rec, row in zip(records, scores):
        relative = [abs(s) / total if total > 0.0 else 0.0 for s, total in zip(row, totals)]
        avg = sum(relative[1:]) / n
        polarity, note = classify_polarity(row)
        profiles.append(LoopProfile(rec, row, relative, avg, polarity, note))
    return profiles


def rank_and_filter(
    catalog: LoopCatalog,
    series: LinkScoreSeries,
    threshold: float = 0.0,
    top: int | None = None,
) -> list[LoopProfile]:
    """Profiles sorted by descending average contribution (ties broken by
    cycle for determinism), dropping loops below `threshold` and keeping
    at most `top`.  A NaN average (a loop score that overflowed) ranks
    first and is never dropped, so it reaches the output and is reported."""
    if not 0.0 <= threshold < 1.0:
        raise ValueError("threshold must be in [0, 1)")
    if top is not None and top < 1:
        raise ValueError("top must be >= 1")
    profiles = build_profiles(catalog, series)
    profiles.sort(
        key=lambda p: (-math.inf if math.isnan(p.avg_contribution) else -p.avg_contribution, p.cycle)
    )
    kept = [p for p in profiles if not p.avg_contribution < threshold]
    return kept[:top] if top is not None else kept


def _cyclic_overlap_ratio(a: Cycle, b: Cycle) -> float:
    """Longest common contiguous segment of two cycles (rotation
    invariant), as a fraction of the longer cycle's length.

    Neither cycle repeats a node, so a common segment is a run of
    consecutive nodes of a + a whose positions in b go up by 1 modulo
    len(b)."""
    if not a or not b:
        return 0.0
    where = {node: i for i, node in enumerate(b)}
    best = run = 0
    prev = -1
    for node in a + a:
        i = where.get(node, -1)
        if i < 0:
            run = 0
        elif run and i == (prev + 1) % len(b):
            run += 1
        else:
            run = 1
        prev = i
        best = max(best, run)
    return min(best, len(a), len(b)) / max(len(a), len(b))


def compare_catalogs(
    reference: LoopCatalog,
    candidate: LoopCatalog,
    series: LinkScoreSeries | None = None,
    top_n: int = 15,
    near_miss_ratio: float = 0.6,
) -> CompletenessReport:
    """How much of the reference catalog the candidate found.

    With a score series, loops rank by average contribution; static
    catalogs rank by discovery-score magnitude.  For each top-N reference
    loop missing from the candidate, the closest candidate loop by
    longest-common-segment overlap is reported as a near miss when the
    ratio clears `near_miss_ratio`.
    """
    ref_records = reference.loops()
    if series is not None:
        values = [p.avg_contribution for p in build_profiles(reference, series)]
    else:
        values = [abs(rec.discovery_score) for rec in ref_records]
    ranked = sorted(zip(values, ref_records), key=lambda pair: (-pair[0], pair[1].cycle))

    candidate_cycles = candidate.cycles()
    candidates_in_order = sorted(candidate_cycles)
    intersection = reference.cycles() & candidate_cycles

    top_loops = []
    near_misses = []
    for _, rec in ranked[:top_n]:
        present = rec.cycle in candidate_cycles
        top_loops.append({"cycle": list(rec.cycle), "present": present})
        if present or not candidate_cycles:
            continue
        best_cycle = None
        best_ratio = 0.0
        for cand in candidates_in_order:
            ratio = _cyclic_overlap_ratio(rec.cycle, cand)
            if ratio > best_ratio:
                best_ratio = ratio
                best_cycle = cand
        if best_cycle is not None and best_ratio >= near_miss_ratio:
            near_misses.append(
                {
                    "reference_cycle": list(rec.cycle),
                    "candidate_cycle": list(best_cycle),
                    "overlap": best_ratio,
                }
            )
    return CompletenessReport(
        reference_size=len(reference),
        candidate_size=len(candidate),
        intersection_size=len(intersection),
        top_loops=top_loops,
        near_misses=near_misses,
    )


def profiles_to_csv(profiles: list[LoopProfile], times: tuple[float, ...]) -> str:
    """CSV export: ``time,loop_id,score,relative``."""
    lines = ["time,loop_id,score,relative"]
    for k, t in enumerate(times):
        for p in profiles:
            lines.append(
                f"{format_number(t)},{loop_id(p.cycle)},{repr(p.score_series[k])},{repr(p.relative_series[k])}"
            )
    return "\n".join(lines) + "\n"


def ranking_to_json_dict(
    profiles: list[LoopProfile],
    catalog: LoopCatalog,
    metadata: dict | None = None,
) -> dict:
    data = {
        "provenance": catalog.provenance,
        "overflow": catalog.overflow,
        "normalization": "relative scores are normalized over the discovered catalog",
        "loops": [
            {
                "cycle": list(p.cycle),
                "polarity": p.polarity,
                "note": p.note,
                "avg_contribution": p.avg_contribution,
                "discovery_score": p.record.discovery_score,
                "found_at": p.record.found_at,
                "score_series": p.score_series,
                "relative_series": p.relative_series,
            }
            for p in profiles
        ],
    }
    if metadata:
        data["metadata"] = dict(metadata)
    return data
