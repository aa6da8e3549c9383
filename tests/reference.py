"""Frozen slow paths that the fast code in `sdloops` is checked against.

Each function here is a verbatim copy of code that the package has since
replaced; property tests require the package to give the same results.
Do not optimise or otherwise change this module.

* `StringGraph`, `graph_from_edges`, `step_graph` and
  `strongest_path_pass`: the strongest-path search on string-keyed
  outbound lists, before it moved onto integer node ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from sdloops.discovery import LoopCatalog
from sdloops.scoring import LinkScoreSeries


@dataclass
class StringGraph:
    """Directed graph with one signed weight per edge and per-node
    outbound lists kept sorted by descending weight magnitude."""

    nodes: tuple[str, ...]
    stocks: frozenset[str]
    out: dict[str, list[tuple[str, float]]]


def graph_from_edges(
    edges: Iterable[tuple[str, str, float]],
    stocks: Iterable[str] | None = None,
    sort: bool = True,
) -> StringGraph:
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
    return StringGraph(nodes, stockset & frozenset(nodes), out)


def step_graph(series: LinkScoreSeries, k: int, stocks: Iterable[str], sort: bool = True) -> StringGraph:
    """Weighted graph of the edges active at step k (zero scores pruned)."""
    scores = ((src, dst, series.series[(src, dst)][k]) for src, dst in series.edges)
    return graph_from_edges(
        ((src, dst, s) for src, dst, s in scores if s != 0.0),
        stocks=stocks,
        sort=sort,
    )


def strongest_path_pass(
    graph: StringGraph,
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
