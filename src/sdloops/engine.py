"""Fixed-step Euler simulation of a validated model.

Each run generates and compiles one Python function holding the whole
step loop (_run_source).  Per step k it evaluates the auxiliaries and
flows in topological order against the stock values at t_k, every name a
local variable, recording every IF branch taken; then stocks integrate
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
    Bin, Builtin, Call, Diagnostic, If, Loc, Model, ModelError, Num, Ref, RunSpec, Unary, Variable,
    format_number, iter_if_nodes,
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
        deps = {r for r in v.refs if r in names and r != v.name}
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


def _take(branches, slot: int, taken: bool) -> bool:
    branches[slot] = taken
    return taken


def _unrecorded():
    raise ValueError("no recorded branch for IF node")


def _sources(exprs: list, consts: list, ifs: list, ref, time: str, gate: str, literals: bool = False) -> list[str]:
    """The Python source of each expression tree, in order.  A number
    is appended to `consts` and becomes c[i], its index there, unless
    `literals` is set and it is finite and unsigned: then it is its repr,
    which reads back as the same float.  A reference becomes ref(name) and
    TIME `time`; an IF node is appended to `ifs` and becomes `gate`
    formatted with its slot (its position in `ifs`) and the source of its
    three operands."""

    def emit(node, level: int = 0) -> str:
        """Python source for `node`, parenthesized unless it binds at
        least as tightly as `level` (one frame per tree level)."""
        if isinstance(node, Num) and literals and math.isfinite(node.value) and math.copysign(1.0, node.value) > 0:
            code, prec = repr(node.value), 4
        elif isinstance(node, Num):
            consts.append(node.value)
            code, prec = f"c[{len(consts) - 1}]", 4
        elif isinstance(node, Ref):
            code, prec = ref(node.name), 4
        elif isinstance(node, Builtin):
            code, prec = {"DT": "dt", "TIME": time}[node.name], 4
        elif isinstance(node, Unary) and node.op in _UNARY_OPS:
            template, prec = _UNARY_OPS[node.op]
            code = template.format(emit(node.operand, max(prec, 1)))
        elif isinstance(node, Bin) and node.op in _BINARY_OPS:
            template, prec = _BINARY_OPS[node.op]
            code = template.format(emit(node.left, max(prec, 1)), emit(node.right, prec + 1))
        elif isinstance(node, If):
            slot = len(ifs)
            ifs.append(node)
            cond = emit(node.cond, 1)  # numbers the IFs inside the condition in every form
            code = gate.format(slot=slot, cond=cond, then=emit(node.then, 1), orelse=emit(node.orelse, 0))
            prec = 0
        elif isinstance(node, Call) and node.fn in _FUNCS:  # the parser checks the argument counts
            code, prec = _FUNCS[node.fn].format(", ".join(emit(a, 0) for a in node.args)), 4
        elif isinstance(node, (Unary, Bin, Call)):
            raise ValueError(f"unknown operator or function in {node!r}")
        else:
            raise TypeError(f"not an expression node: {node!r}")
        return code if prec >= level else f"({code})"

    sources = [emit(expr) for expr in exprs]
    del emit  # it holds itself through its closure cell: a reference cycle
    return sources


def compile_expr(expr, column: bool = False):
    """Compile an expression tree, numbering IF nodes by pre-order slot as iter_if_nodes does.

    Record form, f(values, t, dt, branches): each evaluated IF writes its
    branch (True for then) into branches[slot], a mutable sequence or
    mapping.  Column form, f(T, dt, J, *columns, *branches), one column
    per name of expr_refs(expr) in that order, then one per IF slot: it
    returns [EXPR for j in J], where a name reads its column at j, TIME
    reads T[j] and each IF takes its slot's branch at j, never evaluating
    its condition; a branch of None raises ValueError.  `simulate`'s run
    function inlines every equation through the same emitter (_sources).
    Names reach generated source only as repr'd strings or numbered
    locals, numbers through a constants tuple or, in the column form and
    the run function, a finite unsigned number as the repr of its float;
    operators and functions through fixed tables.
    """
    consts: list[float] = []
    ifs: list[If] = []
    if column:
        refs: dict[str, str] = {}  # name -> parameter, by first occurrence, as expr_refs orders them
        gate = "{then} if b{slot}[j] else _unrecorded() if b{slot}[j] is None else {orelse}"
        [body] = _sources([expr], consts, ifs, lambda name: f"{refs.setdefault(name, f'r{len(refs)}')}[j]", "T[j]", gate, literals=True)
        params = ", ".join(["T, dt, J", *refs.values(), *(f"b{slot}" for slot in range(len(ifs)))])
        source = f"lambda {params}: [{body} for j in J]"
    else:
        [body] = _sources([expr], consts, ifs, lambda name: f"v[{name!r}]", "t", "{then} if _take(b, {slot}, {cond} != 0.0) else {orelse}")
        source = f"lambda v, t, dt, b: {body}"
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
    initials: dict[str, float] = {}
    for name in _topological_order(model, ("const", "stock")):
        var = model.variable(name)
        try:
            v = compile_equation(var)(initials, spec.start, spec.dt, {})
        except ZeroDivisionError:
            raise SimulationError("division by zero", name, 0, var.loc) from None
        if not math.isfinite(v):
            raise SimulationError("non-finite value", name, 0, var.loc)
        initials[name] = v
    return initials


def _run_source(model: Model, equations: list[Variable], consts: list) -> str:
    """Source of `run(n, T, dt, c, cells)`, the step loop with every
    equation inlined.  `cells` holds the values of the constants and stocks
    (locals xi, i the variable's place in the model), the columns of the
    equations in `equations` order and then of the stocks (Xi), and the
    branch-trace column of every IF slot, equation by equation (bj); `c`
    holds the numbers that are not finite and unsigned.  At step k each
    equation is evaluated, checked (x - x is nan unless x is finite) and
    stored at k, each IF writing its branch at k; below step n each stock
    then steps to k + 1 by xs + dt * ((0 + in...) - (0 + out...)),
    left_sum's fold.  `run` returns None, or the message and step of the
    first failure: its variable is the first whose column is still None
    there (at the next step for a stock).
    """
    index = {v.name: f"{i}" for i, v in enumerate(model.variables)}
    stocks = model.by_kind("stock")
    ifs: list[If] = []
    gate = "{then} if _take(b{slot}, k, {cond} != 0.0) else {orelse}"
    sources = _sources([v.expr for v in equations], consts, ifs, lambda name: f"x{index[name]}", "t", gate, True)
    body = []
    for v, source in zip(equations, sources):
        i = index[v.name]
        body += [f"x{i} = {source}", f"if x{i} - x{i}: break", f"X{i}[k] = x{i}"]
    body += ["if k < n:"] if stocks else []
    for s in stocks:
        i = index[s.name]
        net = " - ".join(f"({' + '.join(['0', *(f'x{index[f]}' for f in flows)])})" for flows in (s.inflows, s.outflows))
        body += [f"    x{i} = x{i} + dt * ({net})", f"    if x{i} - x{i}: break", f"    X{i}[k + 1] = x{i}"]
    cells = [
        *(f"x{index[v.name]}" for v in model.by_kind("const", "stock")),
        *(f"X{index[v.name]}" for v in equations + stocks),
        *(f"b{slot}" for slot in range(len(ifs))),
    ]
    return "\n".join([
        "def run(n, T, dt, c, cells):",
        f"    {', '.join(cells)}, = cells" if cells else "",
        "    try:",
        "        for k in range(n + 1):",
        "            t = T[k]",
        *(f"            {line}" for line in body),
        "        else:",
        "            return None",
        "    except ZeroDivisionError:",
        "        return 'division by zero', k",
        "    return 'non-finite value', k",
    ])


def _compile_run(model: Model, equations: list[Variable]):
    """`run` of _run_source and its constants.  When Python cannot compile
    it, each equation is compiled alone, in the same statements, to name
    the first one nested too deeply (ModelError)."""
    consts: list[float] = []
    namespace = {"_take": _take}
    try:
        exec(compile(_run_source(model, equations, consts), "<sdloops run>", "exec"), namespace)
    except (SyntaxError, RecursionError):
        for var in equations:
            try:
                compile(_run_source(model, [var], []), "<sdloops run>", "exec")
            except (SyntaxError, RecursionError):
                raise ModelError([Diagnostic(f"equation of {var.name} is nested too deeply to compile", var.loc)]) from None
        raise
    return namespace.pop("run"), tuple(consts)  # no reference cycle through its globals


def simulate(model: Model, spec: RunSpec | None = None) -> RunResult:
    """Run the model and record every variable at every step.

    Aborts with SimulationError naming the offending variable, step and
    source location on division by zero or any non-finite value, and
    with ModelError on an equation nested too deeply to compile.
    """
    spec = spec if spec is not None else model.run_spec
    n = spec.steps
    dt = spec.dt
    equations = [model.variable(name) for name in evaluation_order(model)]
    stocks = model.by_kind("stock")
    times = tuple(spec.start + i * dt for i in range(n + 1))

    initials = _eval_initials(model, spec)
    run, consts = _compile_run(model, equations)
    values: dict[str, list] = {  # None at each step the run has not written (an aux or flow has no initial)
        v.name: [initials.get(v.name)] * (n + 1) if v.kind == "const" else [initials.get(v.name)] + [None] * n
        for v in model.variables
    }
    trace = {v.name: [[None] * (n + 1) for _ in iter_if_nodes(v.expr)] for v in equations}

    failure = run(n, times, dt, consts, [
        *(initials[v.name] for v in model.by_kind("const", "stock")),
        *(values[v.name] for v in equations + stocks),
        *(slot for v in equations for slot in trace[v.name]),
    ])
    if failure is not None:
        message, k = failure
        steps = [(v, k) for v in equations] + [(s, k + 1) for s in stocks]
        var, step = next((v, step) for v, step in steps if values[v.name][step] is None)
        raise SimulationError(message, var.name, step, var.loc)
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
