"""Loop score series, relative contributions, ranking, polarity, and
catalog comparison.

The score of a loop at a step is the signed product of its edge scores at
that step; the relative score divides its magnitude by the sum of
magnitudes across the whole catalog (per step), so relative scores sum to
1 wherever any loop is active and to 0 everywhere else.  In heuristic
mode the denominator is necessarily the *discovered* set; outputs carry
that note in their metadata.

In a gated model most loops are inactive at most steps, because one of
their edges scores 0.  So ranking scores each loop only at its active
steps, found by and-ing per-edge bitmasks of nonzero scores, sums the
catalog totals and averages over those steps alone, and builds full
profiles only for the loops it keeps.  The products and sums are those
of `loop_score_series` and a per-step fold, in the same order, so the
bits are the same.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass, field
from functools import reduce
from itertools import compress, islice
from operator import and_, itemgetter

from .discovery import Cycle, LoopCatalog, LoopRecord, canonical_form
from .dsl import format_number
from .engine import left_sum
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
    """A loop's series.  `active` is None or, as build_profiles and ranking
    set it, a byte per step: 1 where the loop is active, 0 where both series
    hold 0.0.  The JSON writer trusts it: code that edits a series sets it to None."""

    record: LoopRecord
    score_series: list[float]
    relative_series: list[float]
    avg_contribution: float
    polarity: str
    note: str | None = None
    active: bytes | None = field(default=None, repr=False, compare=False)

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
        return asdict(self)


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


def _active_scores(cycle: Cycle, position: dict, rows: list, masks: list[int]) -> tuple[bytes, list]:
    """The loop's active-step mask (byte k is 1 where every edge of the
    loop is nonzero at step k) and the loop's score at each active step,
    in step order: the product of the same tuple `loop_score_series`
    multiplies, so the same bits.  The loop's score is 0.0 at every other
    step; `compress(range(len(mask)), mask)` recovers the active steps
    wherever they are needed, so no list of them is kept.  `position`
    maps an edge to its place in the series' numbering, `rows[k]` holds
    every edge's score at step k, and byte k of `masks[i]` is 1 where edge
    i's score at step k is nonzero (so -0.0 counts as zero, as it does in
    `loop_score_series`)."""
    ids = []
    for edge in zip(cycle, cycle[1:] + cycle[:1]):
        i = position.get(edge)
        if i is None:
            raise AnalysisError(f"loop edge {edge[0]} -> {edge[1]} is not in the score series")
        ids.append(i)
    active = reduce(and_, map(masks.__getitem__, ids)).to_bytes(len(rows), "little")
    # itemgetter of one index returns the item itself; of a slice, a 1-tuple
    get = itemgetter(*ids) if len(ids) > 1 else itemgetter(slice(ids[0], ids[0] + 1))
    return active, list(map(math.prod, map(get, compress(rows, active))))


def _shares(mask: bytes, scores: list, totals: list):
    """A loop's relative scores at its active steps."""
    # a product that underflows to +-0.0 at an active step can meet a total of 0
    return (abs(s) / t if t > 0.0 else 0.0 for s, t in zip(scores, compress(totals, mask)))


def _score_loops(catalog: LoopCatalog, series: LinkScoreSeries) -> tuple[list, list, list, list[float]]:
    """The catalog's stored (cycle, discovery_score, found_at) tuples, each
    loop's (active-step mask, scores there), the per-step catalog totals,
    and each loop's avg_contribution, in catalog order; no LoopRecord is
    built.  Totals are summed over the active loops only, in
    catalog order from the int 0: an inactive loop would add 0.0, and
    x + 0.0 == x for x >= 0."""
    if series.n == 0:
        raise AnalysisError("the score series has a single time: loops are scored over steps 1..n, and n is 0")
    columns = [column for _, _, column in series.numbering[1]]
    rows = list(zip(*columns))
    masks = [int.from_bytes(bytes(map(bool, column)), "little") for column in columns]
    loops = list(catalog.entries())
    position = series.position
    active = [_active_scores(cycle, position, rows, masks) for cycle, _, _ in loops]
    totals = [0] * (series.n + 1)
    steps = range(series.n + 1)
    for mask, scores in active:
        for k, s in zip(compress(steps, mask), scores):
            totals[k] = totals[k] + abs(s)
    # step 0 is not in the average
    avgs = [left_sum(islice(_shares(mask, scores, totals), mask[0], None)) / series.n for mask, scores in active]
    return loops, active, totals, avgs


def _profile(loop: tuple, active: tuple, totals: list, avg: float, n: int) -> LoopProfile:
    """The profile of a stored loop tuple, with a new LoopRecord of it."""
    mask, scores = active
    score_series = [0.0] * (n + 1)
    relative = [0.0] * (n + 1)
    for k, s, share in zip(compress(range(n + 1), mask), scores, _shares(mask, scores, totals)):
        score_series[k] = s
        relative[k] = share
    # every other step holds 0.0, which classify_polarity passes over
    polarity, note = classify_polarity(scores)
    return LoopProfile(LoopRecord(*loop), score_series, relative, avg, polarity, note, mask)


def build_profiles(catalog: LoopCatalog, series: LinkScoreSeries) -> list[LoopProfile]:
    """One profile per catalog loop, in catalog order.  Each loop's score
    series is computed once, and only at the steps where the loop is
    active; the relative series divide its magnitudes by the per-step
    catalog total.  avg_contribution averages the relative series over
    steps 1..n, counting all-inactive steps as zero."""
    loops, active, totals, avgs = _score_loops(catalog, series)
    return [_profile(loop, act, totals, avg, series.n) for loop, act, avg in zip(loops, active, avgs)]


def rank_and_filter(
    catalog: LoopCatalog,
    series: LinkScoreSeries,
    threshold: float = 0.0,
    top: int | None = None,
) -> list[LoopProfile]:
    """Profiles sorted by descending average contribution (ties broken by
    cycle for determinism), dropping loops below `threshold` and keeping
    at most `top`.  A NaN average (a loop score that overflowed) ranks
    first and is never dropped, so it reaches the output and is reported.
    Profiles, and their LoopRecords, are built only for the loops that
    are kept."""
    if not 0.0 <= threshold < 1.0:
        raise ValueError("threshold must be in [0, 1)")
    if top is not None and top < 1:
        raise ValueError("top must be >= 1")
    loops, active, totals, avgs = _score_loops(catalog, series)
    ranked = sorted(
        range(len(loops)), key=lambda i: (-math.inf if math.isnan(avgs[i]) else -avgs[i], loops[i][0])
    )
    kept = [i for i in ranked if not avgs[i] < threshold]
    return [_profile(loops[i], active[i], totals, avgs[i], series.n) for i in kept[:top]]


def _cyclic_overlap_ratio(a: Cycle, b: Cycle) -> float:
    """Longest common contiguous segment of two cycles (rotation
    invariant), as a fraction of the longer cycle's length.

    Neither cycle is empty or repeats a node, so a common segment is a
    run of consecutive nodes of a + a whose positions in b go up by 1
    modulo len(b)."""
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

    With a score series, loops rank as in `rank_and_filter`; static
    catalogs rank by discovery-score magnitude, ties by cycle.  For each
    top-N reference loop missing from the candidate, the first candidate
    loop in cycle order with the largest longest-common-segment overlap
    is a near miss if that overlap is above 0 and clears `near_miss_ratio`.
    """
    count = slice(top_n).indices(len(reference))[1]  # as many as a slice [:top_n] keeps, top_n < 0 too
    if series is not None:
        top = [p.cycle for p in rank_and_filter(reference, series, top=max(count, 1))[:count]]
    else:  # over the stored (cycle, discovery_score, found_at) tuples: no record is built
        loops = heapq.nsmallest(count, reference.entries(), key=lambda loop: (-abs(loop[1]), loop[0]))
        top = [cycle for cycle, _, _ in loops]
    candidate_cycles = candidate.cycles()
    candidates_in_order = sorted(candidate_cycles)
    top_loops = [{"cycle": list(cycle), "present": cycle in candidate_cycles} for cycle in top]
    near_misses = []
    for cycle in top:
        if cycle in candidate_cycles or not candidates_in_order:
            continue
        best = max(candidates_in_order, key=lambda cand: _cyclic_overlap_ratio(cycle, cand))
        ratio = _cyclic_overlap_ratio(cycle, best)
        if ratio > 0.0 and ratio >= near_miss_ratio:
            near_misses.append({"reference_cycle": list(cycle), "candidate_cycle": list(best), "overlap": ratio})
    # both hold canonical cycles; the key view's & walks the smaller side and copies neither
    intersection_size = len(reference.entries().mapping.keys() & candidate_cycles)
    return CompletenessReport(len(reference), len(candidate), intersection_size, top_loops, near_misses)


def profiles_to_csv(profiles: list[LoopProfile], times: tuple[float, ...]) -> list[str]:
    """CSV export: ``time,loop_id,score,relative``, as one piece per line.
    Each time is formatted once per step.  A step outside a profile's
    active-step mask is written as ``0.0,0.0`` without formatting its
    floats, as the JSON writer does; a profile without a mask, or with one
    whose length is not its series', has every entry formatted."""
    rows = []
    for p in profiles:
        name, scores, relative, mask = loop_id(p.cycle), p.score_series, p.relative_series, p.active
        if mask is not None and not len(mask) == len(scores) == len(relative):
            mask = None
        rows.append((f"{name},", f"{name},0.0,0.0\n", scores, relative, mask))
    lines = ["time,loop_id,score,relative\n"]
    for k, t in enumerate(times):
        time = format_number(t) + ","
        for name, inactive, scores, relative, mask in rows:
            if mask is not None and not mask[k]:
                lines.append(time + inactive)
            else:
                lines.append(f"{time}{name}{scores[k]!r},{relative[k]!r}\n")
    return lines


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
