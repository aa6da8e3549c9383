"""Frozen slow paths that the fast code in `sdloops` is checked against, and code
only the tests call.  Each reference copies code the package has since replaced,
or writes a definition out step by step; do not optimise or change them.
`test_end_to_end.py` composes the pipeline's references; other users are named.

* `reference_tokenize_line`, `ReferenceLineParser`, `reference_parse_statement`:
  the lexer and parser (`test_dsl.py`: `test_front_end_matches_reference`,
  `test_nesting_limit_matches_reference`).
* `eval_expr`: `engine.compile_expr`, record and column forms (`test_engine.py`:
  `test_record_form_matches_reference`, `test_gated_form_matches_override`); with
  `override`, the branch-gated equation of `reference_link_score_step`.
* `simulate`: `engine.simulate` (`test_engine.py`: `test_simulate_and_score_all_match_reference`,
  `test_simulation_errors_match_reference`).
* `linear_coefficients`: the exact gains of a linear equation (`test_scoring.py`:
  `test_closed_form_oracle_for_equation_edges`; `test_acceptance.py`: criterion 2).
* `reference_link_score_step`: `scoring.score_all` (`test_engine.py`:
  `test_simulate_and_score_all_match_reference`; `test_scoring.py`:
  `test_one_column_compile_per_destination_per_score_all`,
  `test_one_mixed_point_division_by_zero_scores_zero_at_that_step_alone`).
* `reference_composite_weight`: `scoring.composite_scores` (`test_scoring.py`:
  `test_composite_weights_match_reference`).
* `StringGraph`, `graph_from_edges`, `step_graph`, `strongest_path_pass`, `_reference_sweep`:
  the strongest-path search and sweep on string keys (`test_discovery.py`:
  `test_strongest_path_pass_matches_the_string_keyed_reference`, `test_sweep_matches_*`);
  with `reference_composite_weight`, `discovery.composite_graph` (`test_sweep_matches_*`).
* `cycle_score`, `_enumerate_with_cycle_score`: `enumerate_loops` and its scores
  (`test_discovery.py`: `test_cycle_score`, `test_enumerate_*`, `test_found_at_matches_active_step`).
* `_reference_loop_scores`, `_left_sum`, `_reference_relative`, `_reference_ranking`:
  loop scores, shares and ranking in `analysis`, step by step over the catalog
  (`test_analysis.py`: `test_profiles_match_stepwise_reference`).
* `reference_overlap_ratio`, `reference_compare_catalogs`: `analysis._cyclic_overlap_ratio`
  and `compare_catalogs` (`test_analysis.py`: `test_overlap_ratio_matches_reference`,
  `test_compare_matches_reference`).
* `profiles_to_csv`, `series_to_csv`: the CSV writers as one string (`test_analysis.py`:
  `test_csv_pieces_join_to_the_whole_text`).
* `_reference`: the `json.dumps` text that `_jsonutil` must write (`test_jsonutil.py`).
* `catalog_to_json_dict`: the catalog JSON writer (`test_discovery.py`: `TestCatalogJson`;
  `test_cli.py`: `test_written_catalog_is_json_dumps_text`).
* `reference_read_catalog`: `LoopCatalog.from_json`, which builds each loop's record
  while the text is parsed (`test_discovery.py`: `test_from_json_reads_as_the_reference_reader`).
* `print_model`, `format_expr`: the printer, which round-trips (`test_dsl.py`;
  `test_engine.py`: `test_renaming_changes_nothing_but_names`).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Callable, Iterable

import sdloops as sl
from sdloops import dsl
from sdloops.analysis import _cyclic_overlap_ratio, classify_polarity, loop_id
from sdloops.discovery import LoopCatalog, WeightedDigraph, _elementary_circuits, canonical_form
from sdloops.dsl import _CMP_LEVEL, _LEVELS, _TOP_LEVEL, Bin, Builtin, Call, Diagnostic, If, Loc, Model, Num, Ref, RunSpec
from sdloops.dsl import Unary, Variable, expr_refs, format_number, iter_if_nodes
from sdloops.engine import RunResult, SimulationError, _eval_initials, compile_equation, compile_expr, evaluation_order
from sdloops.engine import left_sum
from sdloops.scoring import LinkScoreSeries, _sign


_REF_NUM_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_REF_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_REF_TWO_CHAR_OPS = ("<=", ">=", "<>")
_REF_ONE_CHAR_OPS = set("+-*/()<>={},:")


@dataclass(frozen=True)
class RefToken:
    kind: str  # "num" | "ident" | "kw" | "op" | "end"
    text: str
    value: float
    loc: Loc


def reference_tokenize_line(line: str, lineno: int) -> list[RefToken]:
    toks: list[RefToken] = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c in " \t\r":
            i += 1
            continue
        if c == "#":
            break
        loc = Loc(lineno, i + 1)
        m = _REF_IDENT_RE.match(line, i)
        if m:
            text = m.group()
            if text.upper() in dsl.KEYWORDS:
                toks.append(RefToken("kw", text.upper(), 0.0, loc))
            else:
                toks.append(RefToken("ident", text, 0.0, loc))
            i = m.end()
            continue
        m = _REF_NUM_RE.match(line, i)
        if m:
            toks.append(RefToken("num", m.group(), float(m.group()), loc))
            i = m.end()
            continue
        if line[i : i + 2] in _REF_TWO_CHAR_OPS:
            toks.append(RefToken("op", line[i : i + 2], 0.0, loc))
            i += 2
            continue
        if c in _REF_ONE_CHAR_OPS:
            toks.append(RefToken("op", c, 0.0, loc))
            i += 1
            continue
        raise dsl._LineError(Diagnostic(f"unexpected character {c!r}", loc))
    toks.append(RefToken("end", "", 0.0, Loc(lineno, n + 1)))
    return toks


class ReferenceLineParser:
    def __init__(self, tokens: list[RefToken]):
        self.tokens = tokens
        self.pos = 0
        self.declared: Variable | None = None  # set once a declaration's keyword and name are read

    @property
    def cur(self) -> RefToken:
        return self.tokens[self.pos]

    def take(self) -> RefToken:
        tok = self.cur
        if tok.kind != "end":
            self.pos += 1
        return tok

    def at_kw(self, *names: str) -> bool:
        return self.cur.kind == "kw" and self.cur.text in names

    def at_op(self, *ops: str) -> bool:
        return self.cur.kind == "op" and self.cur.text in ops

    def expect_kw(self, name: str) -> RefToken:
        if not self.at_kw(name):
            raise dsl._LineError(Diagnostic(f"expected {name}, got {self._describe()}", self.cur.loc))
        return self.take()

    def expect_op(self, op: str) -> RefToken:
        if not self.at_op(op):
            raise dsl._LineError(Diagnostic(f"expected {op!r}, got {self._describe()}", self.cur.loc))
        return self.take()

    def expect_ident(self) -> RefToken:
        if self.cur.kind != "ident":
            raise dsl._LineError(Diagnostic(f"expected identifier, got {self._describe()}", self.cur.loc))
        return self.take()

    def expect_num(self) -> RefToken:
        if self.cur.kind != "num":
            raise dsl._LineError(Diagnostic(f"expected number, got {self._describe()}", self.cur.loc))
        return self.take()

    def expect_end(self) -> None:
        if self.cur.kind != "end":
            raise dsl._LineError(Diagnostic(f"unexpected trailing {self._describe()}", self.cur.loc))

    def _describe(self) -> str:
        tok = self.cur
        return "end of line" if tok.kind == "end" else f"{tok.text!r}"

    # expression grammar, lowest precedence first

    def expr(self):
        if self.at_kw("IF"):
            loc = self.take().loc
            cond = self.expr()
            self.expect_kw("THEN")
            then = self.expr()
            self.expect_kw("ELSE")
            orelse = self.expr()
            return If(cond, then, orelse, loc)
        return self.or_expr()

    def or_expr(self):
        node = self.and_expr()
        while self.at_kw("OR"):
            loc = self.take().loc
            node = Bin("OR", node, self.and_expr(), loc)
        return node

    def and_expr(self):
        node = self.cmp_expr()
        while self.at_kw("AND"):
            loc = self.take().loc
            node = Bin("AND", node, self.cmp_expr(), loc)
        return node

    def cmp_expr(self):
        node = self.add_expr()
        if self.at_op("<", ">", "<=", ">=", "=", "<>"):
            tok = self.take()
            node = Bin(tok.text, node, self.add_expr(), tok.loc)
        return node

    def add_expr(self):
        node = self.mul_expr()
        while self.at_op("+", "-"):
            tok = self.take()
            node = Bin(tok.text, node, self.mul_expr(), tok.loc)
        return node

    def mul_expr(self):
        node = self.unary_expr()
        while self.at_op("*", "/"):
            tok = self.take()
            node = Bin(tok.text, node, self.unary_expr(), tok.loc)
        return node

    def unary_expr(self):
        if self.at_op("-"):
            loc = self.take().loc
            return Unary("-", self.unary_expr(), loc)
        if self.at_kw("NOT"):
            loc = self.take().loc
            return Unary("NOT", self.unary_expr(), loc)
        return self.primary()

    def primary(self):
        tok = self.cur
        if tok.kind == "num":
            self.take()
            return Num(tok.value, tok.loc)
        if tok.kind == "ident":
            self.take()
            return Ref(tok.text, tok.loc)
        if self.at_kw("DT", "TIME"):
            self.take()
            return Builtin(tok.text, tok.loc)
        if self.at_kw("MIN", "MAX", "ABS"):
            self.take()
            self.expect_op("(")
            args = [self.expr()]
            while self.at_op(","):
                self.take()
                args.append(self.expr())
            self.expect_op(")")
            if tok.text == "ABS" and len(args) != 1:
                raise dsl._LineError(Diagnostic("ABS takes exactly one argument", tok.loc))
            return Call(tok.text, tuple(args), tok.loc)
        if self.at_op("("):
            self.take()
            node = self.expr()
            self.expect_op(")")
            return node
        raise dsl._LineError(Diagnostic(f"expected expression, got {self._describe()}", tok.loc))

    def idlist(self) -> list[str]:
        names = [self.expect_ident().text]
        while self.at_op(","):
            self.take()
            names.append(self.expect_ident().text)
        return names


def reference_parse_statement(p: ReferenceLineParser) -> tuple[str, object]:
    tok = p.cur
    if p.at_kw("SPEC"):
        p.take()
        p.expect_kw("START")
        p.expect_op("=")
        start = p.expect_num().value
        p.expect_kw("STOP")
        p.expect_op("=")
        stop = p.expect_num().value
        p.expect_kw("DT")
        p.expect_op("=")
        dt = p.expect_num().value
        p.expect_end()
        return "spec", (RunSpec(start, stop, dt), tok.loc)
    if p.at_kw("CONST", "AUX", "FLOW", "STOCK"):
        kind = p.take().text.lower()
        name = p.expect_ident()
        p.declared = Variable(name.text, kind, Num(0.0), loc=name.loc)
        p.expect_op("=")
        expr = p.expr()
        inflows: list[str] = []
        outflows: list[str] = []
        if kind == "stock":
            p.expect_op("{")
            if p.at_kw("INFLOW"):
                p.take()
                p.expect_op(":")
                inflows = p.idlist()
            if p.at_kw("OUTFLOW"):
                p.take()
                p.expect_op(":")
                outflows = p.idlist()
            p.expect_op("}")
        p.expect_end()
        return "var", Variable(name.text, kind, expr, tuple(inflows), tuple(outflows), loc=name.loc)
    raise dsl._LineError(
        Diagnostic(f"expected SPEC, CONST, AUX, FLOW or STOCK, got {p._describe()}", tok.loc)
    )


def eval_expr(node, values, t, dt, slots=None, record=None, override=None):
    """Evaluate an expression tree against a value environment.

    With `record`, the branch of every evaluated IF node is written into
    record[slot].  With `override`, IF nodes take the recorded branch and
    their conditions are not evaluated at all (branch-gated evaluation).
    """
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Ref):
        return values[node.name]
    if isinstance(node, Builtin):
        return dt if node.name == "DT" else t
    if isinstance(node, Unary):
        v = eval_expr(node.operand, values, t, dt, slots, record, override)
        return -v if node.op == "-" else (1.0 if v == 0.0 else 0.0)
    if isinstance(node, Bin):
        left = eval_expr(node.left, values, t, dt, slots, record, override)
        right = eval_expr(node.right, values, t, dt, slots, record, override)
        op = node.op
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return left / right
        if op == "<":
            return 1.0 if left < right else 0.0
        if op == ">":
            return 1.0 if left > right else 0.0
        if op == "<=":
            return 1.0 if left <= right else 0.0
        if op == ">=":
            return 1.0 if left >= right else 0.0
        if op == "=":
            return 1.0 if left == right else 0.0
        if op == "<>":
            return 1.0 if left != right else 0.0
        if op == "AND":
            return 1.0 if (left != 0.0 and right != 0.0) else 0.0
        if op == "OR":
            return 1.0 if (left != 0.0 or right != 0.0) else 0.0
        raise ValueError(f"unknown operator {op!r}")
    if isinstance(node, If):
        if override is not None:
            taken = override[slots[id(node)]]
            if taken is None:
                raise ValueError("no recorded branch for IF node")
        else:
            taken = eval_expr(node.cond, values, t, dt, slots, record, override) != 0.0
            if record is not None:
                record[slots[id(node)]] = taken
        branch = node.then if taken else node.orelse
        return eval_expr(branch, values, t, dt, slots, record, override)
    if isinstance(node, Call):
        args = [eval_expr(a, values, t, dt, slots, record, override) for a in node.args]
        if node.fn == "MIN":
            return min(args)
        if node.fn == "MAX":
            return max(args)
        return abs(args[0])
    raise TypeError(f"not an expression node: {node!r}")


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


def linear_coefficients(model, name):
    """Exact linear coefficients of the non-constant inputs of `name`'s
    equation, by unit-vector evaluation with constants held at their values."""
    var = model.variable(name)
    refs = expr_refs(var.expr)
    consts = {v.name for v in model.by_kind("const")}
    initials = _eval_initials(model)
    base = {r: (initials[r] if r in consts else 0.0) for r in refs}
    f = compile_expr(var.expr)
    zero = f(dict(base), 0.0, 1.0, {})
    coefs = {}
    for r in refs:
        if r in consts:
            continue
        env = dict(base)
        env[r] = 1.0
        coefs[r] = f(env, 0.0, 1.0, {}) - zero
    return coefs


def reference_link_score_step(model, run, k):
    """Scores at step k: one loop over (src, dst) edges into aux/flow
    equations, recomputing dz per edge and interpreting the branch-gated
    equation with `eval_expr`, then one loop over flow edges."""
    byname = {v.name: v for v in model.variables}
    eq_edges, flow_edges = [], []
    for src, dst in sl.dependency_graph(model).edges:
        if byname[dst].kind == "stock":
            flow_edges.append((src, dst, 1.0 if src in byname[dst].inflows else -1.0))
        else:
            eq_edges.append((src, dst))
    slots = {v.name: {id(n): i for i, n in enumerate(iter_if_nodes(v.expr))} for v in model.by_kind("aux", "flow")}
    dt = run.dt
    t_old = run.times[k - 1]
    values = run.values
    env_old = {name: values[name][k - 1] for name in run.variables}
    scores = {}
    for src, dst in eq_edges:
        dz = values[dst][k] - values[dst][k - 1]
        if dz == 0.0:
            scores[(src, dst)] = 0.0
            continue
        dx = values[src][k] - values[src][k - 1]
        if dx == 0.0:
            scores[(src, dst)] = 0.0
            continue
        saved = env_old[src]
        env_old[src] = values[src][k]
        try:
            branches = [trace[k - 1] for trace in run.branch_trace[dst]]
            mixed = eval_expr(byname[dst].expr, env_old, t_old, dt, slots[dst], override=branches)
        except (ZeroDivisionError, ValueError):
            scores[(src, dst)] = 0.0
            continue
        finally:
            env_old[src] = saved
        dxz = mixed - values[dst][k - 1]
        if not math.isfinite(dxz):
            scores[(src, dst)] = 0.0
            continue
        scores[(src, dst)] = abs(dxz / dz) * _sign(dxz * dx)
    for flow, stock, sign in flow_edges:
        ds = values[stock][k] - values[stock][k - 1]
        if ds == 0.0:
            s = 0.0
        else:
            contribution = sign * values[flow][k - 1] * dt
            s = abs(contribution / ds) * sign
        scores[(flow, stock)] = s
    # a score that overflowed, in either formula, is 0
    return {edge: s if math.isfinite(s) else 0.0 for edge, s in scores.items()}


def reference_composite_weight(scores, mode):
    if mode == "max":
        best = 0.0
        best_mag = 0.0
        for s in scores:
            if abs(s) > best_mag:
                best_mag = abs(s)
                best = s
        return best
    n = len(scores) - 1
    mag = reduce(add, (abs(s) for s in scores[1:]), 0) / n  # sum() as Python 3.11 and earlier compute it
    if mag == 0.0:
        return 0.0
    pos = sum(1 for s in scores[1:] if s > 0)
    neg = sum(1 for s in scores[1:] if s < 0)
    return mag if pos >= neg else -mag


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


def weight(graph: WeightedDigraph, src: str, dst: str) -> float:
    """The weight of the first src -> dst entry in src's outbound list."""
    for node, w in graph.out.get(src, ()):
        if node == dst:
            return w
    raise KeyError((src, dst))


def cycle_score(graph: WeightedDigraph, cycle) -> float:
    """Signed product of the cycle's edge weights, multiplied in its order."""
    score = 1.0
    for i, src in enumerate(cycle):
        score *= weight(graph, src, cycle[(i + 1) % len(cycle)])
    return score


def _enumerate_with_cycle_score(graph: WeightedDigraph, cap: int) -> LoopCatalog:
    """Reference: every circuit through LoopCatalog.add, scored by the
    linear-scan cycle_score, not by the product the search carries.  A
    repeated circuit would neither count nor overflow the cap."""
    adj = {v: {w: weight for w, weight in graph.out.get(v, ()) if weight != 0.0} for v in graph.nodes}
    catalog = LoopCatalog(provenance="exhaustive")
    for cycle, _ in _elementary_circuits(graph.nodes, adj):
        if cycle in catalog:
            continue
        if len(catalog) >= cap:
            catalog.overflow = True
            break
        catalog.add(cycle, cycle_score(graph, canonical_form(cycle)), "static")
    return catalog


def _reference_sweep(series: LinkScoreSeries, stocks, stride: int, sort: bool = True) -> tuple[list, LoopCatalog]:
    registry = LoopCatalog(provenance="strongest-path")
    visits = [
        strongest_path_pass(step_graph(series, k, stocks, sort=sort), registry, found_at=k)
        for k in range(1, series.n + 1, stride)
    ]
    return visits, registry


def _reference_loop_scores(cycle, series):
    edges = [(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]
    out = []
    for k in range(series.n + 1):
        score = 1.0
        for edge in edges:
            s = series.series[edge][k]
            if s == 0.0:
                score = 0.0
                break
            score *= s
        out.append(score)
    return out


def _left_sum(xs):
    """sum() as Python 3.11 and earlier compute it for floats: a plain left
    fold from the int 0, which later versions' compensated sum is not."""
    return reduce(add, xs, 0)


def _reference_relative(catalog, series):
    raw = {rec.cycle: _reference_loop_scores(rec.cycle, series) for rec in catalog.loops()}
    rel = {cycle: [0.0] * (series.n + 1) for cycle in raw}
    for k in range(series.n + 1):
        total = _left_sum(abs(raw[cycle][k]) for cycle in raw)
        if total > 0.0:
            for cycle in raw:
                rel[cycle][k] = abs(raw[cycle][k]) / total
    return raw, rel


def _bits(values):
    return [repr(v) for v in values]


def _reference_ranking(catalog, series, threshold, top):
    """Loops whose average is NaN first, by cycle; then the rest at or
    above the threshold, by descending average and then cycle; each with
    its polarity and note."""
    raw, rel = _reference_relative(catalog, series)
    avg = {cycle: _left_sum(r[1:]) / series.n for cycle, r in rel.items()}
    overflowed = sorted(c for c in avg if math.isnan(avg[c]))
    ranked = sorted((c for c in avg if avg[c] >= threshold), key=lambda c: (-avg[c], c))
    return [
        (c, repr(avg[c]), _bits(raw[c]), _bits(rel[c]), *classify_polarity(raw[c]))
        for c in (overflowed + ranked)[:top]
    ]


def reference_overlap_ratio(a, b):
    """Longest common substring of a + a and b + b, capped at the shorter
    cycle's length, by dynamic programming over every pair of positions."""
    if not a or not b:
        return 0.0
    if canonical_form(a) == canonical_form(b):
        return 1.0
    aa = a + a
    bb = b + b
    cap = min(len(a), len(b))
    best = 0
    prev = [0] * (len(bb) + 1)
    for i in range(1, len(aa) + 1):
        cur = [0] * (len(bb) + 1)
        for j in range(1, len(bb) + 1):
            if aa[i - 1] == bb[j - 1]:
                cur[j] = min(prev[j - 1] + 1, cap)
                best = max(best, cur[j])
        prev = cur
    return best / max(len(a), len(b))


def reference_compare_catalogs(reference, candidate, series=None, top_n=15, near_miss_ratio=0.6):
    ref_records = reference.loops()
    if series is not None:
        values = [p.avg_contribution for p in sl.build_profiles(reference, series)]
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
    return {
        "reference_size": len(reference),
        "candidate_size": len(candidate),
        "intersection_size": len(intersection),
        "top_loops": top_loops,
        "near_misses": near_misses,
    }


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


def _string_sharing_hook():
    """A json.loads object hook for one document: a str in a "cycle" list
    or as "found_at" is replaced by the first equal str of the document.
    Every other value passes through as it is, because a table keyed by
    equality would turn a JSON true into the 1 before it."""
    shared: dict[str, str] = {}
    share = shared.setdefault

    def hook(obj: dict) -> dict:
        cycle = obj.get("cycle")
        if type(cycle) is list:
            obj["cycle"] = [share(v, v) if type(v) is str else v for v in cycle]
        found_at = obj.get("found_at")
        if type(found_at) is str:
            obj["found_at"] = share(found_at, found_at)
        return obj

    return hook


def reference_read_catalog(text: str) -> LoopCatalog:
    """The catalog reader that parsed the whole document into dicts and
    lists, sharing equal node names and found_at strings, and only then
    built the records."""
    return LoopCatalog.from_json_dict(json.loads(text, object_hook=_string_sharing_hook()))


def _reference(obj):
    """("text", text) or ("raises", exception type, message)."""
    try:
        return ("text", json.dumps(obj, indent=2, allow_nan=False))
    except (ValueError, TypeError) as err:
        return ("raises", type(err), str(err))


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
