"""Per-timestep link scores and composite static weights.

For an edge x -> z where z is an auxiliary or flow, the score at t_k is a
one-at-a-time partial difference against the branch-gated equation: take
z's equation with every IF node pinned to the branch recorded at the
evaluation that drove the step into t_k, move x alone from its t_{k-1}
value to its t_k value, and compare the resulting change to the actual
change of z:

    s = |dxz / dz| * sign(dxz * dx)

with s = 0 whenever dz = 0, dx = 0, or x does not occur in the gated
equation.  For a flow f attached to stock S the score is the flow's share
of the stock's change over [t_{k-1}, t_k], signed by the attachment:

    s = |f(t_{k-1}) * dt / dS| * (+1 inflow, -1 outflow)

Scores at t_0 are 0 by convention: nothing has changed yet.  Every case
is guarded, so scoring is total and always finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dsl import Model, dependency_graph, format_number
from .engine import RunResult, compile_equation

__all__ = [
    "LinkScoreSeries",
    "CompositeWeights",
    "link_score_step",
    "score_all",
    "composite_scores",
    "series_to_csv",
]

Edge = tuple[str, str]


@dataclass
class LinkScoreSeries:
    """Signed score series, one per dependency edge, indexed 0..n."""

    edges: tuple[Edge, ...]
    times: tuple[float, ...]
    series: dict[Edge, list[float]]

    @property
    def n(self) -> int:
        return len(self.times) - 1


@dataclass
class CompositeWeights:
    """One static signed weight per edge.

    max mode: the largest-magnitude score over the run (sign of that
    observation, earliest step on ties).  avg mode: the mean score
    magnitude over steps 1..n, signed by the majority sign of the nonzero
    observations.  A weight is 0 iff the edge is never active.
    """

    mode: str
    weights: dict[Edge, float]


def _sign(x: float) -> float:
    return 1.0 if x > 0 else (-1.0 if x < 0 else 0.0)


class _Prep:
    """Per-model scoring scaffolding shared across steps."""

    def __init__(self, model: Model):
        self.graph = dependency_graph(model)
        byname = {v.name: v for v in model.variables}
        self.eq_edges: list[tuple[str, str]] = []   # (src, dst) into aux/flow equations
        self.flow_edges: list[tuple[str, str, float]] = []  # (flow, stock, sign)
        for src, dst in self.graph.edges:
            if byname[dst].kind == "stock":
                sign = 1.0 if src in byname[dst].inflows else -1.0
                self.flow_edges.append((src, dst, sign))
            else:
                self.eq_edges.append((src, dst))
        self.gated = {v.name: compile_equation(v, gated=True) for v in model.by_kind("aux", "flow")}


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
    branches_of: dict[str, list[bool | None]] = {}  # built once per destination
    for src, dst in prep.eq_edges:
        dz = values[dst][k] - values[dst][k - 1]
        if dz == 0.0:
            scores[(src, dst)] = 0.0
            continue
        dx = values[src][k] - values[src][k - 1]
        if dx == 0.0:
            scores[(src, dst)] = 0.0
            continue
        branches = branches_of.get(dst)
        if branches is None:
            branches = branches_of[dst] = run.branches_at(dst, k - 1)
        saved = env_old[src]
        env_old[src] = values[src][k]
        try:
            mixed = prep.gated[dst](env_old, t_old, dt, branches)
        except (ZeroDivisionError, ValueError):
            # the gated equation cannot be evaluated at the mixed point;
            # no attributable contribution
            scores[(src, dst)] = 0.0
            continue
        finally:
            env_old[src] = saved
        dxz = mixed - values[dst][k - 1]
        if not math.isfinite(dxz):
            scores[(src, dst)] = 0.0
            continue
        scores[(src, dst)] = abs(dxz / dz) * _sign(dxz * dx)

    for flow, stock, sign in prep.flow_edges:
        ds = values[stock][k] - values[stock][k - 1]
        if ds == 0.0:
            s = 0.0
        else:
            contribution = sign * values[flow][k - 1] * dt
            s = abs(contribution / ds) * sign
        scores[(flow, stock)] = s
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


def composite_scores(series: LinkScoreSeries, mode: str) -> CompositeWeights:
    """Collapse a score series into one static weight per edge."""
    if mode not in ("max", "avg"):
        raise ValueError(f"mode must be 'max' or 'avg', got {mode!r}")
    n = series.n
    weights: dict[Edge, float] = {}
    for edge, scores in series.series.items():
        if mode == "max":
            best = 0.0
            best_mag = 0.0
            for s in scores:
                if abs(s) > best_mag:
                    best_mag = abs(s)
                    best = s
            weights[edge] = best
        else:
            mag = sum(abs(s) for s in scores[1:]) / n
            if mag == 0.0:
                weights[edge] = 0.0
            else:
                pos = sum(1 for s in scores[1:] if s > 0)
                neg = sum(1 for s in scores[1:] if s < 0)
                weights[edge] = mag if pos >= neg else -mag
    return CompositeWeights(mode, weights)


def series_to_csv(series: LinkScoreSeries) -> str:
    """CSV export: ``time,src,dst,score``, one row per edge per step."""
    lines = ["time,src,dst,score"]
    for k, t in enumerate(series.times):
        for src, dst in series.edges:
            lines.append(f"{format_number(t)},{src},{dst},{repr(series.series[(src, dst)][k])}")
    return "\n".join(lines) + "\n"
