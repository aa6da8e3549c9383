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
from functools import reduce
from operator import add

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


def left_sum(xs) -> float:
    """Sum from the left, starting at the int 0: the bits `sum()` gives on
    Python 3.11 and earlier on every Python.  From 3.12, `sum()` of floats
    compensates its rounding, so the last bit of a sum can differ."""
    return reduce(add, xs, 0)


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


def compile_expr(expr, column: bool = False):
    """Compile an expression tree, numbering IF nodes by pre-order slot as iter_if_nodes does.

    Record form, f(values, t, dt, branches): each evaluated IF writes its
    branch (True for then) into branches[slot], a mutable sequence or
    mapping.  Column form, f(T, dt, J, *columns, *branches), one column
    per name of expr_refs(expr) in that order, then one per IF slot: it
    returns [EXPR for j in J], where a name reads its column at j, TIME
    reads T[j] and each IF takes its slot's branch at j, never evaluating
    its condition; a branch of None raises ValueError.  Model text
    reaches the generated source only as repr'd names; number literals go
    through a constants tuple, operators and functions through fixed tables.
    """
    consts: list[float] = []
    ifs: list[If] = []  # in pre-order: the position is the slot
    refs: dict[str, str] = {}  # column form: name -> parameter, by first occurrence, as expr_refs orders them

    def emit(node, level: int) -> str:
        """Python source for `node`, parenthesized unless it binds at
        least as tightly as `level` (one frame per tree level)."""
        if isinstance(node, Num):
            consts.append(node.value)
            code, prec = f"c[{len(consts) - 1}]", 4
        elif isinstance(node, Ref):
            code, prec = (f"{refs.setdefault(node.name, f'r{len(refs)}')}[j]" if column else f"v[{node.name!r}]"), 4
        elif isinstance(node, Builtin):
            code, prec = ("T[j]" if column and node.name == "TIME" else _BUILTINS[node.name]), 4
        elif isinstance(node, Unary) and node.op in _UNARY_OPS:
            template, prec = _UNARY_OPS[node.op]
            code = template.format(emit(node.operand, max(prec, 1)))
        elif isinstance(node, Bin) and node.op in _BINARY_OPS:
            template, prec = _BINARY_OPS[node.op]
            code = template.format(emit(node.left, max(prec, 1)), emit(node.right, prec + 1))
        elif isinstance(node, If):
            slot = len(ifs)
            ifs.append(node)
            cond = emit(node.cond, 1)  # numbers the IFs inside the condition in either form
            then, orelse = emit(node.then, 1), emit(node.orelse, 0)
            if column:
                code = f"{then} if b{slot}[j] else _unrecorded() if b{slot}[j] is None else {orelse}"
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

    body = emit(expr, 0)
    params = ", ".join(["T, dt, J", *refs.values(), *(f"b{slot}" for slot in range(len(ifs)))])
    source = f"lambda {params}: [{body} for j in J]" if column else f"lambda v, t, dt, b: {body}"
    return eval(compile(source, "<sdloops equation>", "eval"), {"c": tuple(consts), "_take": _take, "_unrecorded": _unrecorded})


def compile_equation(var: Variable, column: bool = False):
    """compile_expr on a variable's expression.  One nested too deeply
    for Python's compiler (its tokenizer allows 200 nested brackets, so
    about 100 AND/OR terms in a chain) or for the recursion limit raises
    ModelError naming the variable."""
    try:
        return compile_expr(var.expr, column)
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

    # tables built once per run: (name, column) of each const and stock; per equation (name,
    # function, column, trace slots, loc); per stock its column and its flows' columns
    known = [(v.name, values[v.name]) for v in model.variables if v.kind in ("const", "stock")]
    equations = [(name, compiled[name], values[name], trace[name], byname[name].loc) for name in order]
    stocks = [
        (s.name, values[s.name], [values[f] for f in s.inflows], [values[f] for f in s.outflows], s.loc)
        for s in model.by_kind("stock")
    ]
    for k in range(n + 1):
        t = times[k]
        env = {name: column[k] for name, column in known}
        for name, f, column, slots, loc in equations:
            record = [None] * len(slots) if slots else None  # only an IF node writes a record
            try:
                val = f(env, t, dt, record)
            except ZeroDivisionError:
                raise SimulationError("division by zero", name, k, loc) from None
            if not math.isfinite(val):
                raise SimulationError("non-finite value", name, k, loc)
            env[name] = column[k] = val
            if slots:
                for slot, taken in zip(slots, record):
                    slot[k] = taken
        if k < n:
            for name, column, ins, outs, loc in stocks:
                # left_sum's fold from the int 0, so a lone -0.0 inflow gives 0.0
                net = reduce(add, [c[k] for c in ins], 0) - reduce(add, [c[k] for c in outs], 0)
                nxt = column[k] + dt * net
                if not math.isfinite(nxt):
                    raise SimulationError("non-finite value", name, k + 1, loc)
                column[k + 1] = nxt

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
