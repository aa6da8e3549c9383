"""Fixed-step Euler simulation of a validated model.

Per step k the auxiliaries and flows, each compiled once per run
(compile_expr), are evaluated in topological order against the stock
values at t_k (recording every IF branch taken), then stocks integrate
to t_{k+1}:

    stock[k+1] = stock[k] + dt * (sum of inflows[k] - sum of outflows[k])

`simulate` is a pure function; a RunResult is never mutated after it is
returned, so distinct runs may execute concurrently.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .dsl import (
    Bin,
    Builtin,
    Call,
    Diagnostic,
    If,
    Loc,
    Model,
    ModelError,
    Num,
    Ref,
    RunSpec,
    Unary,
    Variable,
    expr_refs,
    format_number,
    iter_if_nodes,
)

__all__ = [
    "SimulationError",
    "RunResult",
    "evaluation_order",
    "simulate",
    "compile_expr",
    "compile_equation",
    "run_to_csv",
]


class SimulationError(Exception):
    """A run aborted: division by zero or a non-finite result."""

    def __init__(self, message: str, variable: str, step: int, loc: Loc | None = None):
        self.variable = variable
        self.step = step
        self.loc = loc
        where = f" ({loc})" if loc else ""
        super().__init__(f"{message} while evaluating {variable} at step {step}{where}")


@dataclass
class RunResult:
    """Dense record of a run: every variable at every step, plus the branch
    taken by every evaluated IF node.

    branch_trace[name][slot][k] is True (then) or False (else) for the
    IF node at pre-order position `slot` of `name`'s equation at
    evaluation step k, or None if that node sat inside an untaken outer
    branch at that step.
    """

    variables: tuple[str, ...]
    times: tuple[float, ...]
    values: dict[str, list[float]]
    branch_trace: dict[str, list[list[bool | None]]]
    spec: RunSpec

    @property
    def n(self) -> int:
        return len(self.times) - 1

    @property
    def dt(self) -> float:
        return self.spec.dt

    def branches_at(self, name: str, k: int) -> list[bool | None]:
        return [slots[k] for slots in self.branch_trace[name]]


def evaluation_order(model: Model) -> list[str]:
    """Topological order of Aux/Flow variables under instantaneous
    dependencies, ties broken by declaration order.  Stocks and constants
    are excluded: their values are known before evaluation."""
    return _topological_order(model, ("aux", "flow"))


def _topological_order(model: Model, kinds: tuple[str, ...]) -> list[str]:
    """The variables of `kinds` ordered so that each follows the ones of
    those kinds its expression references (Kahn's algorithm; ready
    variables leave a heap in declaration order)."""
    decl_index = {v.name: i for i, v in enumerate(model.variables)}
    members = model.by_kind(*kinds)
    names = {v.name for v in members}
    pending: dict[str, set[str]] = {}
    dependents: dict[str, list[str]] = {name: [] for name in names}
    for v in members:
        deps = {r for r in expr_refs(v.expr) if r in names and r != v.name}
        pending[v.name] = deps
        for d in deps:
            dependents[d].append(v.name)

    ready = [(decl_index[name], name) for name, deps in pending.items() if not deps]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        _, name = heapq.heappop(ready)
        order.append(name)
        for dep in dependents[name]:
            deps = pending[dep]
            deps.discard(name)
            if not deps:
                heapq.heappush(ready, (decl_index[dep], dep))
    if len(order) != len(names):
        unresolved = sorted(names - set(order))
        raise ValueError(f"instantaneous cycle among {', '.join(unresolved)}")
    return order


# DSL operator -> (Python template, precedence of the template).  Levels,
# loosest first: 0 conditional expression, 1 + -, 2 * /, 3 unary minus,
# 4 atom.  An operand is parenthesized when it binds more loosely than
# its place in the template allows.
_UNARY_OPS = {"-": ("-{}", 3), "NOT": ("1.0 if {} == 0.0 else 0.0", 0)}
_BINARY_OPS = {
    "+": ("{} + {}", 1), "-": ("{} - {}", 1), "*": ("{} * {}", 2), "/": ("{} / {}", 2),
    **{op: (f"1.0 if {{}} {py} {{}} else 0.0", 0)
       for op, py in (("<", "<"), (">", ">"), ("<=", "<="), (">=", ">="), ("=", "=="), ("<>", "!="))},
    "AND": ("1.0 if ({} != 0.0) & ({} != 0.0) else 0.0", 0),  # both operands evaluated
    "OR": ("1.0 if ({} != 0.0) | ({} != 0.0) else 0.0", 0),
}
_FUNCS = {"MIN": "min(({},))", "MAX": "max(({},))", "ABS": "abs({})"}
_BUILTINS = {"DT": "dt", "TIME": "t"}


def _take(branches, slot: int, taken: bool) -> bool:
    branches[slot] = taken
    return taken


def _unrecorded():
    raise ValueError("no recorded branch for IF node")


def compile_expr(expr, gated: bool = False):
    """Compile an expression tree into a function f(values, t, dt, branches).

    IF nodes are numbered by pre-order slot, as iter_if_nodes numbers them.
    In record form each evaluated IF writes its branch (True for then)
    into branches[slot]; any mutable sequence or mapping will do.  In
    gated form each IF takes branches[slot] and never evaluates its
    condition; a branch of None raises ValueError.  Model text reaches the
    generated source only as repr'd names; number literals go through a
    constants tuple, operators and functions through fixed tables.
    """
    consts: list[float] = []
    ifs: list[If] = []  # in pre-order: the position is the slot

    def emit(node, level: int) -> str:
        """Python source for `node`, parenthesized unless it binds at
        least as tightly as `level` (one frame per tree level)."""
        if isinstance(node, Num):
            consts.append(node.value)
            code, prec = f"c[{len(consts) - 1}]", 4
        elif isinstance(node, Ref):
            code, prec = f"v[{node.name!r}]", 4
        elif isinstance(node, Builtin):
            code, prec = _BUILTINS[node.name], 4
        elif isinstance(node, Unary) and node.op in _UNARY_OPS:
            template, prec = _UNARY_OPS[node.op]
            code = template.format(emit(node.operand, max(prec, 1)))
        elif isinstance(node, Bin) and node.op in _BINARY_OPS:
            template, prec = _BINARY_OPS[node.op]
            code = template.format(emit(node.left, max(prec, 1)), emit(node.right, prec + 1))
        elif isinstance(node, If):
            slot = len(ifs)
            ifs.append(node)
            cond = emit(node.cond, 1)  # numbers the IFs inside the condition, gated or not
            then, orelse = emit(node.then, 1), emit(node.orelse, 0)
            if gated:
                code = f"{then} if b[{slot}] else _unrecorded() if b[{slot}] is None else {orelse}"
            else:
                code = f"{then} if _take(b, {slot}, {cond} != 0.0) else {orelse}"
            prec = 0
        elif isinstance(node, Call) and node.fn in _FUNCS:  # the parser checks the argument counts
            code, prec = _FUNCS[node.fn].format(", ".join(emit(a, 0) for a in node.args)), 4
        elif isinstance(node, (Unary, Bin, Call)):
            raise ValueError(f"unknown operator or function in {node!r}")
        else:
            raise TypeError(f"not an expression node: {node!r}")
        return code if prec >= level else f"({code})"

    source = compile(f"lambda v, t, dt, b: {emit(expr, 0)}", "<sdloops equation>", "eval")
    return eval(source, {"c": tuple(consts), "_take": _take, "_unrecorded": _unrecorded})


def compile_equation(var: Variable, gated: bool = False):
    """compile_expr on a variable's expression.  One nested too deeply
    for Python's compiler (its tokenizer allows 200 nested brackets, so
    about 100 AND/OR terms in a chain) or for the recursion limit raises
    ModelError naming the variable."""
    try:
        return compile_expr(var.expr, gated)
    except (SyntaxError, RecursionError):
        raise ModelError([Diagnostic(f"equation of {var.name} is nested too deeply to compile", var.loc)]) from None


def _eval_initials(model: Model, spec: RunSpec | None = None) -> dict[str, float]:
    """Constants and stock initial values, evaluated in dependency order
    (validation guarantees the reference graph is acyclic)."""
    spec = spec if spec is not None else model.run_spec
    byname = {v.name: v for v in model.variables}
    initials: dict[str, float] = {}
    for name in _topological_order(model, ("const", "stock")):
        var = byname[name]
        try:
            v = compile_equation(var)(initials, spec.start, spec.dt, {})
        except ZeroDivisionError:
            raise SimulationError("division by zero", name, 0, var.loc) from None
        if not math.isfinite(v):
            raise SimulationError("non-finite value", name, 0, var.loc)
        initials[name] = v
    return initials


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
                net = sum(values[f][k] for f in s.inflows) - sum(values[f][k] for f in s.outflows)
                nxt = values[s.name][k] + dt * net
                if not math.isfinite(nxt):
                    raise SimulationError("non-finite value", s.name, k + 1, s.loc)
                values[s.name][k + 1] = nxt

    return RunResult(model.names(), times, values, trace, spec)


def run_to_csv(run: RunResult) -> str:
    """CSV export: header ``time,var1,var2,...``, one row per step, with
    round-trip-exact decimal rendering."""
    lines = ["time," + ",".join(run.variables)]
    for k, t in enumerate(run.times):
        row = [format_number(t)]
        row.extend(repr(run.values[name][k]) for name in run.variables)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
