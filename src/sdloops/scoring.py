"""Per-timestep link scores and composite static weights.

For an edge x -> z where z is an auxiliary or flow, the score at t_k is a
one-at-a-time partial difference against the branch-gated equation: take
z's equation with every IF node pinned to the branch recorded at the
evaluation that drove the step into t_k, move x alone from its t_{k-1}
value to its t_k value, and compare the resulting change to the actual
change of z:

    s = |dxz / dz| * sign(dxz * dx)

with s = 0 whenever dz = 0, dx = 0, x does not occur in the gated
equation, or the gated equation cannot be evaluated at the mixed point.
For a flow f attached to stock S the score is the flow's share of the
stock's change over [t_{k-1}, t_k], signed by the attachment:

    s = |f(t_{k-1}) * dt / dS| * (+1 inflow, -1 outflow)

Scores at t_0 are 0 by convention: nothing has changed yet.  A score
that is not finite (the quotient overflowed) is 0 as well, so scoring is
total and always finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .dsl import Model, dependency_graph, format_number
from .engine import RunResult, compile_equation, left_sum

__all__ = [
    "LinkScoreSeries",
    "link_score_step",
    "score_all",
    "composite_scores",
    "series_to_csv",
]

Edge = tuple[str, str]


@dataclass
class LinkScoreSeries:
    """Signed score series, one per dependency edge, indexed 0..n.  `series`
    holds one column per edge, in `edges` order, with one score per time,
    or construction raises ValueError; that order, read through
    `numbering`, is the one every graph and ranking of the run uses."""

    edges: tuple[Edge, ...]
    times: tuple[float, ...]
    series: dict[Edge, list[float]]

    def __post_init__(self) -> None:
        if tuple(self.series) != tuple(self.edges) or any(len(c) != len(self.times) for c in self.series.values()):
            raise ValueError("a score series needs one column per edge, in edges order, with one score per time")

    @property
    def n(self) -> int:
        return len(self.times) - 1

    @cached_property
    def numbering(self) -> tuple[tuple[str, ...], tuple[tuple[int, int, list[float]], ...]]:
        """The run's node ids: the edge endpoints in first-appearance order
        over `edges`, and per edge, in `edges` order, `(src_id, dst_id,
        column)`, where each column is the list object held in `series`.
        Computed once; a series is not changed after construction."""
        ids: dict[str, int] = {}
        columns = tuple(
            (ids.setdefault(src, len(ids)), ids.setdefault(dst, len(ids)), self.series[(src, dst)])
            for src, dst in self.edges
        )
        return tuple(ids), columns


def _sign(x: float) -> float:
    return 1.0 if x > 0 else (-1.0 if x < 0 else 0.0)


class _Prep:
    """Per-model scoring scaffolding shared across steps."""

    def __init__(self, model: Model):
        self.graph = dependency_graph(model)
        # dependency_graph lists each destination's edges together, so this
        # map walks the edges in graph order
        self.sources: dict[str, list[str]] = {}
        for src, dst in self.graph.edges:
            self.sources.setdefault(dst, []).append(src)
        self.gated = {v.name: compile_equation(v, gated=True) for v in model.by_kind("aux", "flow")}
        self.inflows = {v.name: set(v.inflows) for v in model.by_kind("stock")}


def link_score_step(model: Model, run: RunResult, k: int, _prep: _Prep | None = None) -> dict[Edge, float]:
    """Scores for every dependency edge at step k (1 <= k <= n)."""
    if not 1 <= k <= run.n:
        raise ValueError(f"step {k} outside 1..{run.n}")
    prep = _prep if _prep is not None else _Prep(model)
    dt = run.dt
    t_old = run.times[k - 1]
    values = run.values
    env_old = {name: values[name][k - 1] for name in run.variables}

    scores: dict[Edge, float] = {}
    for dst, srcs in prep.sources.items():
        z = values[dst]
        dz = z[k] - z[k - 1]
        if dz == 0.0:
            for src in srcs:
                scores[(src, dst)] = 0.0
            continue
        gated = prep.gated.get(dst)
        if gated is None:  # a stock: its sources are the flows attached to it
            inflows = prep.inflows[dst]
            for flow in srcs:
                sign = 1.0 if flow in inflows else -1.0
                score = abs(sign * values[flow][k - 1] * dt / dz) * sign
                scores[(flow, dst)] = score if math.isfinite(score) else 0.0
            continue
        branches = run.branches_at(dst, k - 1)
        for src in srcs:
            x = values[src]
            dx = x[k] - x[k - 1]
            if dx == 0.0:
                scores[(src, dst)] = 0.0
                continue
            env_old[src] = x[k]
            try:
                dxz = gated(env_old, t_old, dt, branches) - z[k - 1]
            except (ZeroDivisionError, ValueError):
                # the gated equation cannot be evaluated at the mixed point;
                # no attributable contribution
                dxz = math.nan
            finally:
                env_old[src] = x[k - 1]
            score = abs(dxz / dz) * _sign(dxz * dx)
            scores[(src, dst)] = score if math.isfinite(score) else 0.0
    return scores


def score_all(model: Model, run: RunResult) -> LinkScoreSeries:
    """Apply link_score_step for k = 1..n; t_0 scores are 0."""
    prep = _Prep(model)
    edges = tuple(prep.graph.edges)
    series: dict[Edge, list[float]] = {edge: [0.0] * (run.n + 1) for edge in edges}
    for k in range(1, run.n + 1):
        step = link_score_step(model, run, k, prep)
        for edge, s in step.items():
            series[edge][k] = s
    return LinkScoreSeries(edges, run.times, series)


def composite_scores(series: LinkScoreSeries, mode: str) -> dict[Edge, float]:
    """Collapse a score series into one static signed weight per edge.

    max mode: the largest-magnitude score over the run (sign of that
    observation, earliest step on ties).  avg mode: the mean score
    magnitude over steps 1..n, signed by the majority sign of the nonzero
    observations.  A weight is 0 iff the edge is never active.
    """
    if mode not in ("max", "avg"):
        raise ValueError(f"mode must be 'max' or 'avg', got {mode!r}")
    n = series.n
    if mode == "avg" and n == 0:
        raise ValueError("avg mode needs a series with at least one step")
    weights: dict[Edge, float] = {}
    for edge, scores in series.series.items():
        if mode == "max":
            # max keeps the first of equal magnitudes: the earliest step
            weights[edge] = max(scores, key=abs)
        else:
            mag = left_sum(map(abs, scores[1:])) / n
            if mag == 0.0:
                weights[edge] = 0.0
            else:
                pos = sum(1 for s in scores[1:] if s > 0)
                neg = sum(1 for s in scores[1:] if s < 0)
                weights[edge] = mag if pos >= neg else -mag
    return weights


def series_to_csv(series: LinkScoreSeries) -> list[str]:
    """CSV export: ``time,src,dst,score``, one row (and piece) per edge per step."""
    rows = [(f",{src},{dst},", series.series[(src, dst)]) for src, dst in series.edges]
    lines = ["time,src,dst,score\n"]
    for k, t in enumerate(series.times):
        time = format_number(t)
        for edge, column in rows:
            lines.append(f"{time}{edge}{column[k]!r}\n")
    return lines
