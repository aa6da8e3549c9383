"""Frozen slow paths that the fast code in `sdloops` is checked against.

Each function here is a verbatim copy of code that the package has since
replaced; property tests require the package to give the same results.
Do not optimise or otherwise change this module.

* `StringGraph`, `graph_from_edges`, `step_graph` and
  `strongest_path_pass`: the strongest-path search on string-keyed
  outbound lists, before it moved onto integer node ids.
* `simulate`: the step loop that looked each variable's column, equation
  and branch trace up by name at every step.
* `profiles_to_csv` and `series_to_csv`: the CSV writers that joined the
  whole file into one string.

It also holds code that only tests call, moved out of the package:

* `print_model` and `format_expr`: the model printer, which round-trips
  (``parse_model(print_model(m)) == m``).
* `catalog_to_json_dict`: a catalog as the dict whose
  ``json.dumps(..., indent=2)`` text its JSON writer must equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from sdloops.analysis import loop_id
from sdloops.discovery import LoopCatalog
from sdloops.dsl import _CMP_LEVEL, _LEVELS, _TOP_LEVEL, Bin, Builtin, Call, If, Model, Num, Ref, RunSpec, Unary
from sdloops.dsl import format_number, iter_if_nodes
from sdloops.engine import RunResult, SimulationError, _eval_initials, compile_equation, evaluation_order, left_sum
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


def simulate(model: Model, spec: RunSpec | None = None) -> RunResult:
    """Run the model and record every variable at every step.

    Aborts with SimulationError naming the offending variable, step and
    source location on division by zero or any non-finite value, and
    with ModelError on an equation nested too deeply to compile.
    """
    spec = spec if spec is not None else model.run_spec
    n = spec.steps
    dt = spec.dt
    order = evaluation_order(model)
    byname = {v.name: v for v in model.variables}
    times = tuple(spec.start + i * dt for i in range(n + 1))

    initials = _eval_initials(model, spec)
    values: dict[str, list[float]] = {v.name: [0.0] * (n + 1) for v in model.variables}
    compiled = {name: compile_equation(byname[name]) for name in order}
    trace = {name: [[None] * (n + 1) for _ in iter_if_nodes(byname[name].expr)] for name in order}

    for v in model.variables:
        if v.kind == "const":
            values[v.name] = [initials[v.name]] * (n + 1)
        elif v.kind == "stock":
            values[v.name][0] = initials[v.name]

    stocks = model.by_kind("stock")
    for k in range(n + 1):
        t = times[k]
        env = {v.name: values[v.name][k] for v in model.variables if v.kind in ("const", "stock")}
        for name in order:
            record = [None] * len(trace[name])
            try:
                val = compiled[name](env, t, dt, record)
            except ZeroDivisionError:
                raise SimulationError("division by zero", name, k, byname[name].loc) from None
            if not math.isfinite(val):
                raise SimulationError("non-finite value", name, k, byname[name].loc)
            env[name] = val
            values[name][k] = val
            for slot, taken in enumerate(record):
                trace[name][slot][k] = taken
        if k < n:
            for s in stocks:
                net = left_sum(values[f][k] for f in s.inflows) - left_sum(values[f][k] for f in s.outflows)
                nxt = values[s.name][k] + dt * net
                if not math.isfinite(nxt):
                    raise SimulationError("non-finite value", s.name, k + 1, s.loc)
                values[s.name][k + 1] = nxt

    return RunResult(model.names(), times, values, trace, spec)


def profiles_to_csv(profiles, times: tuple[float, ...]) -> str:
    """CSV export: ``time,loop_id,score,relative``."""
    lines = ["time,loop_id,score,relative"]
    for k, t in enumerate(times):
        for p in profiles:
            lines.append(
                f"{format_number(t)},{loop_id(p.cycle)},{repr(p.score_series[k])},{repr(p.relative_series[k])}"
            )
    return "\n".join(lines) + "\n"


def series_to_csv(series: LinkScoreSeries) -> str:
    """CSV export: ``time,src,dst,score``, one row per edge per step."""
    lines = ["time,src,dst,score"]
    for k, t in enumerate(series.times):
        for src, dst in series.edges:
            lines.append(f"{format_number(t)},{src},{dst},{repr(series.series[(src, dst)][k])}")
    return "\n".join(lines) + "\n"


def catalog_to_json_dict(catalog: LoopCatalog) -> dict:
    return {
        "provenance": catalog.provenance,
        "overflow": catalog.overflow,
        "loops": [
            {"cycle": list(rec.cycle), "discovery_score": rec.discovery_score, "found_at": rec.found_at}
            for rec in catalog.loops()
        ],
    }


_IF_LEVEL = 0
_UNARY_LEVEL = _TOP_LEVEL + 1


def format_expr(expr) -> str:
    return _fmt(expr, 0)


def _fmt(node, parent_level: int) -> str:
    if isinstance(node, Num):
        return format_number(node.value)
    if isinstance(node, Ref):
        return node.name
    if isinstance(node, Builtin):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({', '.join(_fmt(a, 0) for a in node.args)})"
    if isinstance(node, Unary):
        inner = _fmt(node.operand, _UNARY_LEVEL)
        text = f"-{inner}" if node.op == "-" else f"NOT {inner}"
        return _wrap(text, _UNARY_LEVEL, parent_level)
    if isinstance(node, Bin):
        level = _LEVELS[node.op]
        # comparisons are non-associative in the grammar, so a comparison
        # child needs parentheses on either side
        left_level = level + 1 if level == _CMP_LEVEL else level
        left = _fmt(node.left, left_level)
        right = _fmt(node.right, level + 1)
        return _wrap(f"{left} {node.op} {right}", level, parent_level)
    if isinstance(node, If):
        text = f"IF {_fmt(node.cond, 0)} THEN {_fmt(node.then, 0)} ELSE {_fmt(node.orelse, 0)}"
        return _wrap(text, _IF_LEVEL, parent_level)
    raise TypeError(f"not an expression node: {node!r}")


def _wrap(text: str, level: int, parent_level: int) -> str:
    return f"({text})" if level < parent_level else text


def print_model(model: Model) -> str:
    spec = model.run_spec
    lines = [
        "SPEC START = {} STOP = {} DT = {}".format(
            format_number(spec.start), format_number(spec.stop), format_number(spec.dt)
        )
    ]
    kw = {"const": "CONST", "aux": "AUX", "flow": "FLOW"}
    for v in model.variables:
        if v.kind == "stock":
            sections = []
            if v.inflows:
                sections.append("inflow: " + ", ".join(v.inflows))
            if v.outflows:
                sections.append("outflow: " + ", ".join(v.outflows))
            body = " ".join(sections)
            braces = f"{{ {body} }}" if body else "{ }"
            lines.append(f"STOCK {v.name} = {format_expr(v.expr)} {braces}")
        else:
            lines.append(f"{kw[v.kind]} {v.name} = {format_expr(v.expr)}")
    return "\n".join(lines) + "\n"
