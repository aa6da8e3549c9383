"""Model language: lexer, parser, validation, printing, and the causal graph.

The language is line oriented (one statement per line, ``#`` starts a
comment).  Keywords are case-insensitive, identifiers are case-sensitive.

    SPEC  START = 0 STOP = 12 DT = 1
    CONST c = 5
    AUX   a = c * 2
    FLOW  f = IF a > 3 THEN s / DT ELSE a
    STOCK s = 1 { inflow: f }

Expressions support + - * /, comparisons (< > <= >= = <>), AND/OR/NOT,
IF/THEN/ELSE, MIN/MAX/ABS calls, and the builtins DT and TIME.
Comparisons and logical operators evaluate to 0 or 1, so every
expression is numeric.

A parsed :class:`Model` is immutable by convention and safe to share
between threads; every function in this module is pure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from ._graphutil import strongly_connected_components

__all__ = [
    "Loc",
    "Diagnostic",
    "ModelError",
    "Num",
    "Ref",
    "Builtin",
    "Unary",
    "Bin",
    "If",
    "Call",
    "RunSpec",
    "Variable",
    "Model",
    "Digraph",
    "parse_model",
    "validate",
    "dependency_graph",
    "print_model",
    "expr_refs",
    "iter_if_nodes",
]

KEYWORDS = frozenset(
    {
        "SPEC", "START", "STOP", "DT", "CONST", "AUX", "FLOW", "STOCK",
        "IF", "THEN", "ELSE", "AND", "OR", "NOT", "MIN", "MAX", "ABS",
        "TIME", "INFLOW", "OUTFLOW",
    }
)

_NUM_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TWO_CHAR_OPS = ("<=", ">=", "<>")
_ONE_CHAR_OPS = set("+-*/()<>={},:")


@dataclass(frozen=True)
class Loc:
    """Source position (1-based line and column)."""

    line: int
    col: int

    def __str__(self) -> str:
        return f"line {self.line}, col {self.col}"


@dataclass(frozen=True)
class Diagnostic:
    message: str
    loc: Loc | None = None
    severity: str = "error"

    def __str__(self) -> str:
        where = f" ({self.loc})" if self.loc else ""
        return f"{self.severity}: {self.message}{where}"


class ModelError(Exception):
    """Raised by parse_model when the source has errors."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


# --------------------------------------------------------------------------
# Expression nodes.  `loc` never participates in equality so that a printed
# and re-parsed model compares equal to the original.

@dataclass(frozen=True)
class Num:
    value: float
    loc: Loc | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Ref:
    name: str
    loc: Loc | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Builtin:
    name: str  # "DT" or "TIME"
    loc: Loc | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Unary:
    op: str  # "-" or "NOT"
    operand: object
    loc: Loc | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Bin:
    op: str  # + - * / < > <= >= = <> AND OR
    left: object
    right: object
    loc: Loc | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class If:
    cond: object
    then: object
    orelse: object
    loc: Loc | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Call:
    fn: str  # MIN, MAX, ABS
    args: tuple
    loc: Loc | None = field(default=None, compare=False, repr=False)


Expr = Num | Ref | Builtin | Unary | Bin | If | Call


@dataclass(frozen=True)
class RunSpec:
    start: float
    stop: float
    dt: float

    @property
    def steps(self) -> int:
        return round((self.stop - self.start) / self.dt)

    def problems(self) -> list[str]:
        """Why the span is not a whole, finite number of steps (empty
        when it is).  The comparisons are written so that NaN fails them."""
        problems = []
        if not self.dt > 0:
            problems.append("DT must be positive")
        if not self.stop > self.start:
            problems.append("STOP must be greater than START")
        if not problems:
            steps = (self.stop - self.start) / self.dt  # inf if a bound is, or if the span overflows
            if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
                problems.append("(STOP - START) / DT must be a whole number of steps")
        return problems


@dataclass
class Variable:
    name: str
    kind: str  # "stock" | "flow" | "aux" | "const"
    expr: object  # initial-value expression for stocks
    inflows: tuple[str, ...] = ()
    outflows: tuple[str, ...] = ()
    loc: Loc | None = field(default=None, compare=False, repr=False)


@dataclass
class Model:
    variables: tuple[Variable, ...]
    run_spec: RunSpec
    warnings: tuple[Diagnostic, ...] = field(default=(), compare=False, repr=False)

    def variable(self, name: str) -> Variable:
        """The variable called `name`, by a linear scan; KeyError if none."""
        for v in self.variables:
            if v.name == name:
                return v
        raise KeyError(name)

    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def by_kind(self, *kinds: str) -> list[Variable]:
        return [v for v in self.variables if v.kind in kinds]


@dataclass(frozen=True)
class Digraph:
    """Causal dependency graph: an edge (src, dst) means src appears in
    dst's equation, or src is a flow attached to stock dst.  Stock
    initial-value references contribute no edges."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def in_edges(self, dst: str) -> list[str]:
        """Sources of the edges into `dst`, by a linear scan of the edges."""
        return [s for s, d in self.edges if d == dst]


# --------------------------------------------------------------------------
# Lexer

@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | "kw" | "op" | "end"
    text: str
    value: float
    loc: Loc


class _LineError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic
        super().__init__(str(diagnostic))


def _tokenize_line(line: str, lineno: int) -> list[_Token]:
    toks: list[_Token] = []
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
        m = _IDENT_RE.match(line, i)
        if m:
            text = m.group()
            if text.upper() in KEYWORDS:
                toks.append(_Token("kw", text.upper(), 0.0, loc))
            else:
                toks.append(_Token("ident", text, 0.0, loc))
            i = m.end()
            continue
        m = _NUM_RE.match(line, i)
        if m:
            toks.append(_Token("num", m.group(), float(m.group()), loc))
            i = m.end()
            continue
        if line[i : i + 2] in _TWO_CHAR_OPS:
            toks.append(_Token("op", line[i : i + 2], 0.0, loc))
            i += 2
            continue
        if c in _ONE_CHAR_OPS:
            toks.append(_Token("op", c, 0.0, loc))
            i += 1
            continue
        raise _LineError(Diagnostic(f"unexpected character {c!r}", loc))
    toks.append(_Token("end", "", 0.0, Loc(lineno, n + 1)))
    return toks


# --------------------------------------------------------------------------
# Parser

class _LineParser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.declared: Variable | None = None  # set once a declaration's keyword and name are read

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.cur
        if tok.kind != "end":
            self.pos += 1
        return tok

    def at_kw(self, *names: str) -> bool:
        return self.cur.kind == "kw" and self.cur.text in names

    def at_op(self, *ops: str) -> bool:
        return self.cur.kind == "op" and self.cur.text in ops

    def expect_kw(self, name: str) -> _Token:
        if not self.at_kw(name):
            raise _LineError(Diagnostic(f"expected {name}, got {self._describe()}", self.cur.loc))
        return self.take()

    def expect_op(self, op: str) -> _Token:
        if not self.at_op(op):
            raise _LineError(Diagnostic(f"expected {op!r}, got {self._describe()}", self.cur.loc))
        return self.take()

    def expect_ident(self) -> _Token:
        if self.cur.kind != "ident":
            raise _LineError(Diagnostic(f"expected identifier, got {self._describe()}", self.cur.loc))
        return self.take()

    def expect_num(self) -> _Token:
        if self.cur.kind != "num":
            raise _LineError(Diagnostic(f"expected number, got {self._describe()}", self.cur.loc))
        return self.take()

    def expect_end(self) -> None:
        if self.cur.kind != "end":
            raise _LineError(Diagnostic(f"unexpected trailing {self._describe()}", self.cur.loc))

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
                raise _LineError(Diagnostic("ABS takes exactly one argument", tok.loc))
            return Call(tok.text, tuple(args), tok.loc)
        if self.at_op("("):
            self.take()
            node = self.expr()
            self.expect_op(")")
            return node
        raise _LineError(Diagnostic(f"expected expression, got {self._describe()}", tok.loc))

    def idlist(self) -> list[str]:
        names = [self.expect_ident().text]
        while self.at_op(","):
            self.take()
            names.append(self.expect_ident().text)
        return names


def _parse_statement(p: _LineParser) -> tuple[str, object]:
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
    raise _LineError(
        Diagnostic(f"expected SPEC, CONST, AUX, FLOW or STOCK, got {p._describe()}", tok.loc)
    )


# --------------------------------------------------------------------------
# Expression utilities

def _preorder(expr):
    """Every node of an expression in pre-order, from an explicit stack
    (so chains of any length are fine)."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Unary):
            stack.append(node.operand)
        elif isinstance(node, Bin):
            stack += (node.right, node.left)
        elif isinstance(node, If):
            stack += (node.orelse, node.then, node.cond)
        elif isinstance(node, Call):
            stack += reversed(node.args)


def expr_refs(expr) -> list[str]:
    """Distinct variable names referenced by an expression, in first
    occurrence order of a pre-order walk."""
    return list(dict.fromkeys(node.name for node in _preorder(expr) if isinstance(node, Ref)))


def iter_if_nodes(expr) -> list[If]:
    """All IF nodes of an expression in pre-order.  The position in this
    list is the node's branch-trace slot."""
    return [node for node in _preorder(expr) if isinstance(node, If)]


# --------------------------------------------------------------------------
# parse / validate

def parse_model(text: str) -> Model:
    """Parse model source into a Model.

    Raises ModelError with the full diagnostic list on lexical, syntax,
    duplicate-name, unresolved-reference or reference-kind errors.  A flow
    attached to no stock is a warning, available as ``model.warnings``.
    """
    diags: list[Diagnostic] = []
    variables: list[Variable] = []
    spec: RunSpec | None = None
    spec_loc: Loc | None = None

    for lineno, line in enumerate(text.splitlines(), start=1):
        parser = None
        try:
            tokens = _tokenize_line(line, lineno)
            if tokens[0].kind == "end":
                continue
            parser = _LineParser(tokens)
            kind, payload = _parse_statement(parser)
        except (_LineError, RecursionError) as err:
            if isinstance(err, _LineError):
                diags.append(err.diagnostic)
            else:  # the grammar descends one level per bracket or sign
                diags.append(Diagnostic("expression nested too deeply", Loc(lineno, 1)))
            if parser is not None and parser.declared is not None:
                # a stand-in with the line's name and kind, so that its readers and
                # flow lists add no second diagnostic for the same fault
                variables.append(parser.declared)
            continue
        if kind == "spec":
            new_spec, loc = payload
            if spec is not None:
                diags.append(Diagnostic("duplicate SPEC line", loc))
            else:
                spec, spec_loc = new_spec, loc
        else:
            variables.append(payload)

    if spec is None:
        diags.append(Diagnostic("missing SPEC line"))
        spec = RunSpec(0.0, 1.0, 1.0)

    model = Model(tuple(variables), spec)
    diags.extend(_structural_diagnostics(model, spec_loc))
    errors = [d for d in diags if d.severity == "error"]
    if errors:
        raise ModelError(errors)
    model.warnings = tuple(d for d in diags if d.severity == "warning")
    return model


def _structural_diagnostics(model: Model, spec_loc: Loc | None = None) -> list[Diagnostic]:
    diags = [Diagnostic(problem, spec_loc) for problem in model.run_spec.problems()]

    byname: dict[str, Variable] = {}
    for v in model.variables:
        if v.name in byname:
            diags.append(Diagnostic(f"duplicate name {v.name}", v.loc))
        else:
            byname[v.name] = v

    for v in model.variables:
        for ref in expr_refs(v.expr):
            target = byname.get(ref)
            if target is None:
                diags.append(Diagnostic(f"unresolved reference {ref}", v.loc))
            elif v.kind == "const" and target.kind != "const":
                diags.append(
                    Diagnostic(f"constant {v.name} may only reference constants, not {ref}", v.loc)
                )
            elif v.kind == "stock" and target.kind not in ("const", "stock"):
                diags.append(
                    Diagnostic(
                        f"initial value of {v.name} may only reference constants and stocks, not {ref}",
                        v.loc,
                    )
                )

    attached: set[str] = set()
    for v in model.variables:
        if v.kind != "stock":
            continue
        seen_here: set[str] = set()
        for fname in v.inflows + v.outflows:
            target = byname.get(fname)
            if target is None or target.kind != "flow":
                diags.append(Diagnostic(f"{fname} in {v.name}'s flow list is not a declared FLOW", v.loc))
            if fname in seen_here:
                diags.append(Diagnostic(f"flow {fname} attached to {v.name} more than once", v.loc))
            seen_here.add(fname)
        attached |= seen_here

    for v in model.variables:
        if v.kind == "flow" and v.name not in attached:
            diags.append(
                Diagnostic(f"flow {v.name} is not attached to any stock", v.loc, severity="warning")
            )
    return diags


def validate(model: Model) -> list[Diagnostic]:
    """Check every model invariant, including instantaneous-cycle freedom.

    Returns an empty list iff the model is valid: all structural rules
    hold and every cycle of the dependency graph passes through a
    flow-to-stock edge (no algebraic loops), no constant or stock
    initial value is defined circularly.
    """
    diags = [d for d in _structural_diagnostics(model) if d.severity == "error"]
    byname = {v.name: v for v in model.variables}

    def cycle_diags(names: list[str], kind_label: str) -> list[Diagnostic]:
        nameset = set(names)
        adj = {n: [r for r in expr_refs(byname[n].expr) if r in nameset] for n in names}
        out = []
        for n in names:
            if n in adj[n]:
                out.append(Diagnostic(f"{kind_label}: {n} -> {n}", byname[n].loc))
        for comp in strongly_connected_components(names, adj):
            if len(comp) > 1:
                path = " -> ".join(comp + [comp[0]])
                out.append(Diagnostic(f"{kind_label}: {path}", byname[comp[0]].loc))
        return out

    af_names = [v.name for v in model.variables if v.kind in ("aux", "flow")]
    if not any(d.severity == "error" for d in diags):
        diags.extend(cycle_diags(af_names, "algebraic loop"))
        diags.extend(cycle_diags([v.name for v in model.by_kind("const")], "circular constant definition"))
        diags.extend(cycle_diags([v.name for v in model.by_kind("stock")], "circular initial value"))
    return diags


def dependency_graph(model: Model) -> Digraph:
    """Build the causal dependency graph of a valid model.

    Deterministic edge order: destinations in declaration order, sources in
    first-occurrence order within each equation (attachment-list order for
    stocks).  Pure function: repeated calls give identical edge lists.
    """
    names = set(model.names())
    edges: list[tuple[str, str]] = []
    for v in model.variables:
        if v.kind == "stock":
            for f in v.inflows + v.outflows:
                edges.append((f, v.name))
        elif v.kind in ("aux", "flow"):
            for ref in expr_refs(v.expr):
                if ref in names and ref != v.name:
                    edges.append((ref, v.name))
    return Digraph(model.names(), tuple(edges))


# --------------------------------------------------------------------------
# Printing (round-trips: parse_model(print_model(m)) == m)

_IF_LEVEL = 0
_LEVELS = {"OR": 1, "AND": 2, "<": 3, ">": 3, "<=": 3, ">=": 3, "=": 3, "<>": 3,
           "+": 4, "-": 4, "*": 5, "/": 5}
_UNARY_LEVEL = 6


def format_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


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
        left_level = level + 1 if level == 3 else level
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
