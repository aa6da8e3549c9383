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

Each aux/flow equation is compiled once per run in column form and called
once per source over all steps; a call that raises is made again step by
step, so only the steps that raise score 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter

from .dsl import Model, dependency_graph, expr_refs, format_number
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

    @cached_property
    def position(self) -> dict[Edge, int]:
        """Each edge's place in `edges`, and so in `numbering`."""
        return {edge: i for i, edge in enumerate(self.edges)}


def _sign(x: float) -> float:
    return 1.0 if x > 0 else (-1.0 if x < 0 else 0.0)


def _extend_scores(model: Model, run: RunResult, first: int, last: int, columns: dict[Edge, list[float]]) -> None:
    """Append each edge's scores at steps first..last to its column; the
    keys of `columns` are the edges in graph order.  A column-form call
    reads every name at t_{k-1} but the source, which it reads at t_k."""
    dt, steps, times = run.dt, range(last - first + 1), run.times[first - 1:last]
    old = {name: column[first - 1:last] for name, column in run.values.items()}
    new = {name: column[first:last + 1] for name, column in run.values.items()}
    diff = {name: [b - a for a, b in zip(old[name], new[name])] for name in old}
    isfinite = math.isfinite
    for dst, edges in groupby(columns, itemgetter(1)):  # the graph lists each destination's edges together
        var, zs, dzs = model.variable(dst), old[dst], diff[dst]
        if var.kind == "stock":  # its sources are the flows attached to it
            for flow, _ in edges:
                sign = 1.0 if flow in var.inflows else -1.0
                columns[(flow, dst)] += [
                    0.0 if dz == 0.0 else s if isfinite(s := abs(sign * q * dt / dz) * sign) else 0.0
                    for q, dz in zip(old[flow], dzs)
                ]
            continue
        f = compile_equation(var, column=True)
        where = {name: i for i, name in enumerate(expr_refs(var.expr))}
        args = [old[name] for name in where] + [slots[first - 1:last] for slots in run.branch_trace[dst]]
        for src, _ in edges:
            dxs, i = diff[src], where[src]
            if not (any(dzs) and any(dxs)):  # z or x never moves: every score is 0
                columns[(src, dst)] += [0.0] * len(steps)
                continue
            args[i] = new[src]
            try:
                mixed = f(times, dt, steps, *args)
            except (ZeroDivisionError, ValueError):  # again step by step; a step that raises scores 0
                mixed = []
                for j in steps:
                    try:
                        mixed += f(times, dt, range(j, j + 1), *args)
                    except (ZeroDivisionError, ValueError):
                        mixed.append(math.nan)
            args[i] = old[src]
            columns[(src, dst)] += [
                0.0 if dz == 0.0 or dx == 0.0 else s if isfinite(s := abs((d := m - z) / dz) * _sign(d * dx)) else 0.0
                for z, m, dz, dx in zip(zs, mixed, dzs, dxs)
            ]


def link_score_step(model: Model, run: RunResult, k: int) -> dict[Edge, float]:
    """Scores for every dependency edge at step k (1 <= k <= n)."""
    if not 1 <= k <= run.n:
        raise ValueError(f"step {k} outside 1..{run.n}")
    columns: dict[Edge, list[float]] = {edge: [] for edge in dependency_graph(model).edges}
    _extend_scores(model, run, k, k, columns)
    return {edge: column[0] for edge, column in columns.items()}


def score_all(model: Model, run: RunResult) -> LinkScoreSeries:
    """Every edge's scores at steps 1..n, in one column pass; t_0 scores are 0."""
    series: dict[Edge, list[float]] = {edge: [0.0] for edge in dependency_graph(model).edges}
    _extend_scores(model, run, 1, run.n, series)
    return LinkScoreSeries(tuple(series), run.times, series)


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
