"""Feedback loop discovery.

Two routes into the same registry format:

* `enumerate_loops` lists every elementary circuit (Johnson-style
  backtracking over strongly connected components), truncating at a cap
  so feedback-rich graphs cannot blow up.
* `strongest_path_pass` runs the pruned depth-first search: from every
  stock, follow outbound links in descending score-magnitude order,
  carrying the multiplicative path score; a path is abandoned at any node
  it reaches with a score magnitude strictly below that node's best so
  far (or with score zero).  The search is greedy and demonstrably
  incomplete, but it finds strong loops fast and its cost does not depend
  on the total circuit count.

`discover` wires them together per run: enumerate on the max-composite
graph first, and only if that overflows the cap, sweep the per-step
weighted graphs with the heuristic.

Everything here uses explicit stacks: no recursion, so 10,000-variable
chains are fine.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from operator import getitem
from typing import Callable, Iterable, Iterator

from ._graphutil import strongly_connected_components
from ._jsonutil import indented_json
from .dsl import Digraph, Model
from .scoring import LinkScoreSeries, composite_scores

__all__ = [
    "MalformedCycleError",
    "WeightedDigraph",
    "LoopRecord",
    "LoopCatalog",
    "canonical_form",
    "enumerate_loops",
    "strongest_path_pass",
    "discover",
]

Cycle = tuple[str, ...]


class MalformedCycleError(ValueError):
    pass


def canonical_form(cycle: Iterable[str]) -> Cycle:
    """Rotate a simple directed cycle to start at its lexicographically
    smallest variable; direction is preserved."""
    nodes = tuple(cycle)
    if not nodes:
        raise MalformedCycleError("empty cycle")
    if len(set(nodes)) != len(nodes):
        raise MalformedCycleError(f"repeated node in cycle {nodes}")
    pivot = nodes.index(min(nodes))
    return nodes[pivot:] + nodes[:pivot]


@dataclass
class WeightedDigraph:
    """Directed graph with one signed weight per edge and per-node
    outbound lists kept sorted by descending weight magnitude."""

    nodes: tuple[str, ...]
    stocks: frozenset[str]
    out: dict[str, list[tuple[str, float]]]

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[str, str, float]],
        stocks: Iterable[str] | None = None,
        sort: bool = True,
    ) -> "WeightedDigraph":
        """Build from (src, dst, weight) triples; node order is first
        appearance.  With sort=False the outbound lists keep insertion
        order (only useful for measuring what the sorting buys)."""
        out: dict[str, list[tuple[str, float]]] = {}
        for src, dst, w in edges:
            out.setdefault(src, []).append((dst, float(w)))
            out.setdefault(dst, [])
        if sort:
            for targets in out.values():
                targets.sort(key=lambda e: -abs(e[1]))
        nodes = tuple(out)
        stockset = frozenset(stocks) if stocks is not None else frozenset(nodes)
        return cls(nodes, stockset & frozenset(nodes), out)

    def weight(self, src: str, dst: str) -> float:
        for node, w in self.out.get(src, ()):
            if node == dst:
                return w
        raise KeyError((src, dst))

    def cycle_score(self, cycle: Cycle) -> float:
        score = 1.0
        for i, src in enumerate(cycle):
            score *= self.weight(src, cycle[(i + 1) % len(cycle)])
        return score


@dataclass(frozen=True)
class LoopRecord:
    cycle: Cycle                 # canonical rotation
    discovery_score: float       # signed product of edge weights at discovery
    found_at: int | str          # step index, or "static"


@dataclass
class LoopCatalog:
    """Deduplicated loop registry keyed by canonical cycle."""

    provenance: str = "exhaustive"
    overflow: bool = False
    _records: dict[Cycle, LoopRecord] = field(default_factory=dict)

    def add(self, cycle: Iterable[str], discovery_score: float, found_at: int | str) -> bool:
        """Record a loop unless its canonical cycle is already present.
        Returns True when the loop was new."""
        key = canonical_form(cycle)
        if key in self._records:
            return False
        self._records[key] = LoopRecord(key, discovery_score, found_at)
        return True

    def loops(self) -> list[LoopRecord]:
        return list(self._records.values())

    def cycles(self) -> set[Cycle]:
        return set(self._records)

    def __contains__(self, cycle) -> bool:
        return canonical_form(cycle) in self._records

    def __len__(self) -> int:
        return len(self._records)

    def to_json_dict(self) -> dict:
        return {
            "provenance": self.provenance,
            "overflow": self.overflow,
            "loops": [
                {
                    "cycle": list(rec.cycle),
                    "discovery_score": rec.discovery_score,
                    "found_at": rec.found_at,
                }
                for rec in self.loops()
            ],
        }

    def to_json(self) -> str:
        """Strict JSON with a two-space indent; NaN or an infinite score
        raises ValueError."""
        return indented_json(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "LoopCatalog":
        """Inverse of to_json_dict.  Each discovery_score must be a finite
        JSON number and each loop may appear once, in any rotation."""
        catalog = cls(provenance=data.get("provenance", "unknown"), overflow=bool(data.get("overflow", False)))
        for item in data.get("loops", []):
            cycle = item["cycle"]
            if not isinstance(cycle, list):
                raise MalformedCycleError(f"cycle {cycle!r} is not a list")
            if not catalog.add(tuple(cycle), _finite_score(item["discovery_score"]), item["found_at"]):
                raise MalformedCycleError(f"loop {' -> '.join(canonical_form(cycle))} is listed twice")
        return catalog

    @classmethod
    def from_json(cls, text: str) -> "LoopCatalog":
        return cls.from_json_dict(json.loads(text))


def _finite_score(value) -> float:
    """A discovery score read from JSON: an int or float, not a bool,
    finite as a float."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            score = float(value)
        except OverflowError:  # an int beyond the float range
            pass
        else:
            if math.isfinite(score):
                return score
    raise ValueError(f"discovery_score {value!r} is not a finite number")


# --------------------------------------------------------------------------
# Exhaustive enumeration (Johnson-style, iterative, SCC preprocessed)

def _elementary_circuits(nodes: tuple[str, ...], adj: dict[str, list[str]]) -> Iterator[list[str]]:
    for v in nodes:
        if v in adj.get(v, ()):
            yield [v]

    index = {v: i for i, v in enumerate(nodes)}
    graph = {v: [w for w in adj.get(v, ()) if w != v] for v in nodes}
    pending = [c for c in strongly_connected_components(nodes, graph) if len(c) > 1]
    while pending:
        component = pending.pop()
        comp_set = set(component)
        sub = {v: [w for w in graph[v] if w in comp_set] for v in component}
        start = min(component, key=index.__getitem__)
        yield from _circuits_through(sub, start)
        comp_set.discard(start)
        remainder = {v: [w for w in sub[v] if w in comp_set] for v in component if v != start}
        order = [v for v in component if v != start]
        pending.extend(c for c in strongly_connected_components(order, remainder) if len(c) > 1)


def _circuits_through(adj: dict[str, list[str]], start: str) -> Iterator[list[str]]:
    """All elementary circuits through `start` in its strongly connected
    component (Johnson's blocking scheme, explicit stack)."""
    path = [start]
    blocked = {start}
    closed = [False]
    blocked_by: dict[str, set[str]] = {}
    stack = [iter(adj[start])]
    while stack:
        advanced = False
        for w in stack[-1]:
            if w == start:
                yield path.copy()
                closed[-1] = True
            elif w not in blocked:
                path.append(w)
                closed.append(False)
                blocked.add(w)
                stack.append(iter(adj[w]))
                advanced = True
                break
        if advanced:
            continue
        stack.pop()
        v = path.pop()
        if closed.pop():
            if closed:
                closed[-1] = True
            unblock = [v]
            while unblock:
                u = unblock.pop()
                if u in blocked:
                    blocked.discard(u)
                    unblock.extend(blocked_by.pop(u, ()))
        else:
            for w in adj[v]:
                blocked_by.setdefault(w, set()).add(v)


def enumerate_loops(graph: Digraph | WeightedDigraph, cap: int = 1000) -> LoopCatalog:
    """All elementary circuits, truncated at `cap` with the overflow flag
    set when more exist.  Zero-weight edges are excluded when weights are
    present.  Each loop's discovery score is the signed product of its
    edge weights (1.0 on unweighted graphs)."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if isinstance(graph, Digraph):
        graph = WeightedDigraph.from_edges((s, d, 1.0) for s, d in graph.edges)
    # a repeated edge is one successor and weighs its first weight, as in cycle_score
    adj = {v: list(dict.fromkeys(w for w, weight in graph.out.get(v, ()) if weight != 0.0)) for v in graph.nodes}
    row = {src: dict(reversed(out)) for src, out in graph.out.items()}  # row[src][dst]: first weight wins
    catalog = LoopCatalog(provenance="exhaustive")
    records = catalog._records
    # Johnson's search yields each circuit once: no lookup before storing
    for cycle in _elementary_circuits(graph.nodes, adj):
        if len(records) >= cap:
            catalog.overflow = True
            break
        pivot = cycle.index(min(cycle))
        key = tuple(cycle[pivot:] + cycle[:pivot])
        # the canonical rotation's edges in order: cycle_score's products, bit for bit
        score = math.prod(map(getitem, map(row.__getitem__, key), key[1:] + key[:1]))
        records[key] = LoopRecord(key, score, "static")
    return catalog


# --------------------------------------------------------------------------
# Strongest-path heuristic

def strongest_path_pass(
    graph: WeightedDigraph,
    registry: LoopCatalog,
    targets: Iterable[str] | None = None,
    found_at: int | str = "static",
    on_visit: Callable[[str, float, int], None] | None = None,
) -> int:
    """One pruned depth-first sweep over `graph`, recording loops into
    `registry` (deduplicated by canonical cycle, first discovery wins).

    Starting from each target (default: the graph's stocks, in node
    order) the search carries the signed product of edge weights; reaching
    the target closes a loop, reaching any other in-progress node returns
    (that loop is found from another start), and a path is pruned at any
    node reached with a score magnitude strictly below that node's best
    so far.  Zero scores never expand, so all-zero graphs yield nothing.
    Best scores persist across targets within the pass and reset between
    passes.  Returns the number of node expansions.
    """
    best: dict[str, float] = {v: 0.0 for v in graph.nodes}
    if targets is None:
        target_list = [v for v in graph.nodes if v in graph.stocks]
    else:
        target_list = list(targets)
    visits = 0

    for target in target_list:
        if 1.0 < best[target]:
            continue
        best[target] = 1.0
        visiting = {target}
        path = [target]
        carried = [1.0]
        stack = [iter(graph.out.get(target, ()))]
        visits += 1
        if on_visit is not None:
            on_visit(target, 1.0, 0)
        while stack:
            advanced = False
            for node, weight in stack[-1]:
                score = carried[-1] * weight
                if node in visiting:
                    if node == target and score != 0.0:
                        registry.add(tuple(path), score, found_at)
                    continue
                if score == 0.0 or abs(score) < best[node]:
                    continue
                best[node] = abs(score)
                visiting.add(node)
                path.append(node)
                carried.append(score)
                stack.append(iter(graph.out.get(node, ())))
                visits += 1
                if on_visit is not None:
                    on_visit(node, score, len(path) - 1)
                advanced = True
                break
            if advanced:
                continue
            stack.pop()
            visiting.discard(path.pop())
            carried.pop()
    return visits


# --------------------------------------------------------------------------
# Per-run discovery

def step_graph(series: LinkScoreSeries, k: int, stocks: Iterable[str], sort: bool = True) -> WeightedDigraph:
    """Weighted graph of the edges active at step k (zero scores pruned)."""
    scores = ((src, dst, series.series[(src, dst)][k]) for src, dst in series.edges)
    return WeightedDigraph.from_edges(
        ((src, dst, s) for src, dst, s in scores if s != 0.0),
        stocks=stocks,
        sort=sort,
    )


def composite_graph(series: LinkScoreSeries, stocks: Iterable[str], mode: str = "max") -> WeightedDigraph:
    """Static graph of the edges that are ever active, weighted by the
    composite scores."""
    weights = composite_scores(series, mode).weights
    return WeightedDigraph.from_edges(
        ((src, dst, w) for (src, dst), w in weights.items() if w != 0.0),
        stocks=stocks,
    )


def discover(
    model: Model,
    series: LinkScoreSeries,
    cap: int = 1000,
    stride: int = 1,
    method: str = "auto",
) -> LoopCatalog:
    """Find the feedback loops that were active during a run.

    Builds the max-composite graph restricted to ever-active edges and
    enumerates it exhaustively; if the circuit count exceeds `cap` (or
    method forces it), falls back to a strongest-path pass on the
    weighted graph of every `stride`-th step, accumulating one
    deduplicated registry.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if method not in ("auto", "exhaustive", "strongest-path"):
        raise ValueError(f"unknown method {method!r}")
    stocks = [v.name for v in model.by_kind("stock")]

    if method in ("auto", "exhaustive"):
        catalog = enumerate_loops(composite_graph(series, stocks), cap=cap)
        if method == "exhaustive" or not catalog.overflow:
            return catalog

    registry = LoopCatalog(provenance="strongest-path")
    for k in range(1, series.n + 1, stride):
        strongest_path_pass(step_graph(series, k, stocks), registry, found_at=k)
    return registry
