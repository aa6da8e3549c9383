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
  on the total circuit count.  It runs on `WeightedDigraph`'s integer
  node ids and carries each path's magnitude beside its signed score.

`discover` wires them together per run: enumerate on the max-composite
graph first, and only if that overflows the cap, sweep the per-step
weighted graphs with the heuristic.  `step_graph` builds each step's
graph straight from the score columns, through the numbering that
`LinkScoreSeries` computes once per run in `edges` order; the composite
graph is the step graph of a one-step series, and ranking reads the
same numbering.

Everything here uses explicit stacks: no recursion, so 10,000-variable
chains are fine.
"""

from __future__ import annotations

import gc
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice, starmap
from operator import getitem
from typing import Callable, Iterable, Iterator, ValuesView

from ._graphutil import strongly_connected_components
from ._jsonutil import iter_catalog_json
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
    """Rotate a simple directed cycle of string nodes to start at its
    smallest node, keeping direction; anything else raises MalformedCycleError."""
    nodes = tuple(cycle)
    if not nodes:
        raise MalformedCycleError("empty cycle")
    try:
        first = min(nodes)
    except TypeError:  # nodes that do not compare
        first = None
    if not isinstance(first, str):  # of JSON values, only a string compares with a string
        raise MalformedCycleError(f"non-string node in cycle {nodes}")
    if len(set(nodes)) != len(nodes):
        raise MalformedCycleError(f"repeated node in cycle {nodes}")
    pivot = nodes.index(first)
    return nodes[pivot:] + nodes[:pivot]


@dataclass
class WeightedDigraph:
    """Directed graph with one signed weight per edge, on integer node
    ids: node i is `nodes[i]`, and `adj[i]` lists its outbound edges as
    `(|w|, w, dst_id)`, sorted by descending magnitude with ties in
    insertion order (or left in insertion order, when built unsorted)."""

    nodes: tuple[str, ...]
    stocks: frozenset[str]
    adj: list[list[tuple[float, float, int]]]

    @property
    def out(self) -> dict[str, list[tuple[str, float]]]:
        """The outbound lists by node name, `(dst, w)` in `adj` order,
        built anew on each read."""
        nodes = self.nodes
        return {v: [(nodes[d], w) for _, w, d in edges] for v, edges in zip(nodes, self.adj)}

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
        ids: dict[str, int] = {}
        adj: list[list[tuple[float, float, int]]] = []
        for src, dst, w in edges:
            s = ids.setdefault(src, len(ids))
            if s == len(adj):
                adj.append([])
            d = ids.setdefault(dst, len(ids))
            if d == len(adj):
                adj.append([])
            w = float(w)
            adj[s].append((abs(w), w, d))
        return cls._from_adjacency(tuple(ids), adj, stocks, sort)

    @classmethod
    def _from_adjacency(cls, nodes, adj, stocks, sort: bool) -> "WeightedDigraph":
        if sort:
            for edges in adj:
                edges.sort(key=lambda e: -e[0])  # stable: ties keep insertion order
        stockset = frozenset(stocks) if stocks is not None else frozenset(nodes)
        return cls(nodes, stockset & frozenset(nodes), adj)


@dataclass(frozen=True, slots=True)
class LoopRecord:
    cycle: Cycle                 # canonical rotation
    discovery_score: float       # signed product of edge weights at discovery
    found_at: int | str          # step index, or "static"


@dataclass
class LoopCatalog:
    """Deduplicated loop registry keyed by canonical cycle.  Each loop is
    held as the plain tuple `(cycle, discovery_score, found_at)`, the
    fields of its LoopRecord in the same order; records are built only
    by `loops()`."""

    provenance: str = "exhaustive"
    overflow: bool = False
    _records: dict[Cycle, tuple[Cycle, float, int | str]] = field(default_factory=dict)

    def add(self, cycle: Iterable[str], discovery_score: float, found_at: int | str) -> bool:
        """Record a loop unless its canonical cycle is already present.
        Returns True when the loop was new."""
        key = canonical_form(cycle)
        if key in self._records:
            return False
        self._records[key] = (key, discovery_score, found_at)
        return True

    def loops(self) -> list[LoopRecord]:
        """A new LoopRecord for each loop, in catalog order."""
        return list(starmap(LoopRecord, self._records.values()))

    def entries(self) -> ValuesView[tuple[Cycle, float, int | str]]:
        """The stored `(cycle, discovery_score, found_at)` tuples in catalog
        order, the fields of `loops()` without building a record: a
        read-only view whose `.mapping` is keyed by canonical cycle."""
        return self._records.values()

    def cycles(self) -> set[Cycle]:
        return set(self._records)

    def __contains__(self, cycle) -> bool:
        return canonical_form(cycle) in self._records

    def __len__(self) -> int:
        return len(self._records)

    def to_json(self) -> str:
        """Strict JSON with a two-space indent; NaN or an infinite score
        raises ValueError."""
        return "".join(self.iter_json())

    def iter_json(self) -> Iterator[str]:
        """to_json's text in pieces, one per block of loops (see
        iter_catalog_json), each loop written straight from its stored
        tuple, so no record is built.  The catalog is checked before the
        first piece, and each block is rendered when it is asked for."""
        return iter_catalog_json({"provenance": self.provenance, "overflow": self.overflow}, self._records.values())

    @classmethod
    def from_json_dict(cls, data: dict) -> "LoopCatalog":
        """Inverse of the JSON writer: provenance is a string, overflow a bool, nodes
        are strings, scores finite JSON numbers, found_at a step (an int >= 0)
        or a string, and no loop repeats in any rotation, or MalformedCycleError
        says what is wrong; equal node names and found_at strings become one str."""
        if not isinstance(data, dict):
            raise MalformedCycleError("the top level is not a JSON object")
        loops = data.get("loops", [])
        if not isinstance(loops, list):
            raise MalformedCycleError("malformed loop entry (loops is not a list)")
        provenance, overflow = data.get("provenance", "unknown"), data.get("overflow", False)
        if type(provenance) is not str:
            raise MalformedCycleError(f"provenance {provenance!r} is not a string")
        if type(overflow) is not bool:
            raise MalformedCycleError(f"overflow {overflow!r} is not true or false")
        catalog = cls(provenance=provenance, overflow=overflow)
        share = {}.setdefault
        for item in loops:
            if not isinstance(item, dict):
                raise MalformedCycleError("malformed loop entry (an entry of loops is not an object)")
            try:
                cycle, score, found_at = item["cycle"], item["discovery_score"], item["found_at"]
            except KeyError as err:
                raise MalformedCycleError(f"a loop is missing the field {err}") from None
            if not isinstance(cycle, list):
                raise MalformedCycleError(f"cycle {cycle!r} is not a list")
            kind = type(found_at)
            if kind is str:
                found_at = share(found_at, found_at)
            elif not (kind is int and found_at >= 0):
                raise MalformedCycleError(f"malformed loop entry (found_at {found_at!r} is not a step or a string)")
            cycle = [share(v, v) if type(v) is str else v for v in cycle]  # only a str: True would become an equal 1
            if not catalog.add(cycle, _finite_score(score), found_at):
                raise MalformedCycleError(f"loop {' -> '.join(canonical_form(cycle))} is listed twice")
        return catalog

    @classmethod
    def from_json(cls, text: str) -> "LoopCatalog":
        """from_json_dict of the parsed text, in one parse: each loop entry
        becomes its stored tuple (see _record_hook) as the text is parsed, so
        no loop is held as a dict and a tuple at once.  Only a document that
        this parse does not take whole (not a catalog, or one with a loop that
        is malformed or listed twice) is parsed again, for from_json_dict to
        say what is wrong."""
        with _gc_paused():
            data = json.loads(text, object_hook=_record_hook())
            if type(data) is dict:
                loops, provenance, overflow = data.get("loops", []), data.get("provenance", "unknown"), data.get("overflow", False)
                if type(loops) is list and type(provenance) is str and type(overflow) is bool:
                    records = {rec[0]: rec for rec in loops if type(rec) is tuple}  # JSON itself yields no tuple
                    if len(records) == len(loops):
                        return cls(provenance, overflow, records)
            data = loops = records = None  # freed before the text is parsed again
            return cls.from_json_dict(json.loads(text))


def _record_hook():
    """A json.loads object hook for one document: an object that from_json_dict
    reads as a loop as it stands (a cycle of distinct strings, an int or float
    score that is finite as a float, and a found_at that is a step or a
    string) becomes the tuple LoopCatalog stores for it, as from_json_dict
    stores it: its score a float, its cycle rotated to the canonical form (a
    cycle that starts at its smallest node, as every written one does, is
    not sliced), equal strings shared.  Keys besides those three are passed
    over, as from_json_dict passes them over; any other object is returned as it is."""
    shared: dict[str, str] = {}
    share = shared.setdefault
    isfinite = math.isfinite

    def hook(obj: dict):
        cycle, score, found_at = obj.get("cycle"), obj.get("discovery_score"), obj.get("found_at")
        if type(score) is int:
            try:
                score = float(score)  # as _finite_score reads it
            except OverflowError:
                return obj
        if type(cycle) is not list or type(score) is not float or not isfinite(score):
            return obj
        kind = type(found_at)
        if kind is not str and not (kind is int and found_at >= 0):
            return obj
        try:
            first = min(cycle)
        except (TypeError, ValueError):  # nodes that do not compare, or none
            return obj
        if type(first) is not str:  # of JSON values, only a string compares with a string
            return obj
        if first != cycle[0]:
            pivot = cycle.index(first)
            cycle = cycle[pivot:] + cycle[:pivot]
        nodes = tuple(map(share, cycle, cycle))
        if len(set(nodes)) != len(nodes):
            return obj
        return nodes, score, share(found_at, found_at) if kind is str else found_at

    return hook


@contextmanager
def _gc_paused():
    """Keep the cyclic garbage collector off for a bulk build of many
    small objects that form no cycles, and restore its previous state.
    Left on, it walks every object built so far each time the young
    generation fills.  `cli.main` holds it for a whole command, and a
    pause inside another leaves the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _finite_score(value) -> float:
    """A discovery score read from JSON: an int or float (not a bool)
    that is finite as a float."""
    try:
        if type(value) in (int, float) and math.isfinite(score := float(value)):
            return score
    except OverflowError:  # an int beyond the float range
        pass
    raise MalformedCycleError(f"malformed loop entry (discovery_score {value!r} is not a finite number)")


# --------------------------------------------------------------------------
# Exhaustive enumeration (Johnson-style, iterative, SCC preprocessed)

def _elementary_circuits(nodes: tuple[str, ...], adj: dict[str, dict[str, float]]) -> Iterator[tuple[Cycle, float | None]]:
    """Each elementary circuit of the graph `adj` (node -> {successor:
    weight}) once, with the product of its edge weights multiplied from 1
    along the circuit as `math.prod` would.  The product is None when the
    circuit need not start at its smallest node: the search starts each
    circuit at the first node in `nodes` order of its component, which is
    its smallest only where all names are str and that node is the least."""
    for v in nodes:
        if v in adj[v]:
            yield (v,), 1 * adj[v][v]

    index = {v: i for i, v in enumerate(nodes)}
    graph = {v: [w for w in adj[v] if w != v] for v in nodes}
    pending = [c for c in strongly_connected_components(nodes, graph) if len(c) > 1]
    while pending:
        component = pending.pop()
        comp_set = set(component)
        sub = {v: {w: adj[v][w] for w in graph[v] if w in comp_set} for v in component}
        start = min(component, key=index.__getitem__)
        if all(type(v) is str for v in component) and start == min(component):
            yield from _circuits_through(sub, start)
        else:
            for cycle, _ in _circuits_through(sub, start):
                yield cycle, None
        comp_set.discard(start)
        remainder = {v: [w for w in sub[v] if w in comp_set] for v in component if v != start}
        order = [v for v in component if v != start]
        pending.extend(c for c in strongly_connected_components(order, remainder) if len(c) > 1)


def _circuits_through(adj: dict[str, dict[str, float]], start: str) -> Iterator[tuple[Cycle, float]]:
    """All elementary circuits through `start` in its strongly connected
    component (Johnson's blocking scheme, explicit stack), each starting
    at `start` and with its edge weights' product, carried along the path
    as the left fold from 1 in path order."""
    path = [start]
    prods = [1]  # prods[i]: the product of the first i edges of path
    blocked = {start}
    closed = [False]
    blocked_by: dict[str, set[str]] = {}
    stack = [iter(adj[start].items())]
    while stack:
        for w, weight in stack[-1]:
            if w == start:
                yield tuple(path), prods[-1] * weight
                closed[-1] = True
            elif w not in blocked:
                path.append(w)
                prods.append(prods[-1] * weight)
                closed.append(False)
                blocked.add(w)
                stack.append(iter(adj[w].items()))
                break
        else:  # no successor left: step back from the path's last node
            stack.pop()
            v = path.pop()
            prods.pop()
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
    edge weights (1.0 on unweighted graphs), multiplied in the order of
    its canonical rotation.  The search carries that product along its
    path; a circuit it finds starting elsewhere than at its smallest node
    is rotated and scored again.  The search stops after `cap` circuits
    and asks for one more to tell whether the listing overflowed."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if isinstance(graph, Digraph):
        graph = WeightedDigraph.from_edges((s, d, 1.0) for s, d in graph.edges)
    out = graph.out
    # a repeated edge is one successor and weighs its first weight in the outbound list
    row = {src: dict(reversed(edges)) for src, edges in out.items()}
    adj = {v: {w: row[v][w] for w, weight in out[v] if weight != 0.0} for v in graph.nodes}
    catalog = LoopCatalog(provenance="exhaustive")
    records = catalog._records
    with _gc_paused():
        circuits = _elementary_circuits(graph.nodes, adj)
        # Johnson's search yields each circuit once: no lookup before storing
        for cycle, score in islice(circuits, cap):
            if score is None:  # rotate to the canonical form and multiply in its order
                pivot = cycle.index(min(cycle))
                cycle = cycle[pivot:] + cycle[:pivot]
                score = math.prod(map(getitem, map(adj.__getitem__, cycle), cycle[1:] + cycle[:1]))
            records[cycle] = (cycle, score, "static")
        catalog.overflow = next(circuits, None) is not None
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

    The search runs on the graph's integer ids and carries each path's
    magnitude beside its signed score, as the product of the edge
    magnitudes: `abs(c * w) == abs(c) * abs(w)` bit for bit, because
    rounding to nearest is symmetric in sign.  The signed score is
    multiplied only where a node expands or a loop closes, and ids become
    names only for `registry` and `on_visit`.  For its own search the
    target's best is -1.0, below any magnitude, so the prune test comes
    first for every edge and never drops an edge back to the target; the
    target's best is 1.0 again once its search ends.
    """
    nodes, adj = graph.nodes, graph.adj
    if targets is None:
        starts: Iterable[int] = [i for i, v in enumerate(nodes) if v in graph.stocks]
    else:
        starts = map({v: i for i, v in enumerate(nodes)}.__getitem__, targets)
    best = [0.0] * len(nodes)  # the largest magnitude each node was expanded with
    visiting = [False] * len(nodes)
    visits = 0

    for target in starts:
        if 1.0 < best[target]:
            continue
        best[target] = -1.0  # below any magnitude: an edge back to the target is never pruned
        visiting[target] = True
        path = [target]
        carried = [1.0]
        mags = [1.0]
        stack = [iter(adj[target])]
        visits += 1
        if on_visit is not None:
            on_visit(nodes[target], 1.0, 0)
        while stack:
            reach = mags[-1]
            for w_mag, weight, node in stack[-1]:
                mag = reach * w_mag
                if mag < best[node]:  # most edges end here
                    continue
                if node == target:  # the target is on the path for its whole search
                    if mag != 0.0:
                        registry.add(tuple([nodes[i] for i in path]), carried[-1] * weight, found_at)
                    continue
                if mag == 0.0 or visiting[node]:
                    continue
                score = carried[-1] * weight
                best[node] = mag
                visiting[node] = True
                path.append(node)
                carried.append(score)
                mags.append(mag)
                stack.append(iter(adj[node]))
                visits += 1
                if on_visit is not None:
                    on_visit(nodes[node], score, len(path) - 1)
                break
            else:
                stack.pop()
                visiting[path.pop()] = False
                carried.pop()
                mags.pop()
        best[target] = 1.0
    return visits


# --------------------------------------------------------------------------
# Per-run discovery

def step_graph(series: LinkScoreSeries, k: int, stocks: Iterable[str], sort: bool = True) -> WeightedDigraph:
    """Weighted graph of the edges active at step k (zero scores pruned),
    built from the series' node numbering.  The step's own ids follow
    first appearance among its active edges, in `series.edges` order."""
    names, columns = series.numbering
    local = [-1] * len(names)  # run-wide id -> this step's id
    nodes: list[str] = []
    adj: list[list[tuple[float, float, int]]] = []
    for src, dst, column in columns:
        w = column[k]
        if w != 0.0:
            s = local[src]
            if s < 0:
                s = local[src] = len(nodes)
                nodes.append(names[src])
                adj.append([])
            d = local[dst]
            if d < 0:
                d = local[dst] = len(nodes)
                nodes.append(names[dst])
                adj.append([])
            adj[s].append((abs(w), w, d))
    return WeightedDigraph._from_adjacency(tuple(nodes), adj, stocks, sort)


def composite_graph(series: LinkScoreSeries, stocks: Iterable[str]) -> WeightedDigraph:
    """Static graph of the edges that are ever active, weighted by the
    max composite scores: the step graph of a one-step series of them."""
    weights = {edge: [float(w)] for edge, w in composite_scores(series, "max").items()}
    return step_graph(LinkScoreSeries(series.edges, (0.0,), weights), 0, stocks)


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
