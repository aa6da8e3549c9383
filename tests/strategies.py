"""The one generator of valid model text for the property tests, and fixed
models that tests take as examples.

`models()` draws the declaration lines of a valid model, SPEC among them, so a
test can permute them: 0-4 constants and 1-3 stocks, each a number or a linear
form over earlier constants (a stock's also over earlier stocks), up to 5
inflows and outflows per stock (so transfers), and 0-2 auxiliaries and 1-5 flows
over all declared before them, with IF, MIN, ABS, unary minus, division,
`0 * -x` (-0.0), `1e300` products and constant flows; DT 1, 0.5 or 0.25, STOP 1
to 6.  `synthetic_models()` draws `gen_synthetic` models, each with a loop, and
`test_cli_fuzz.py` draws its bad input apart.
"""

from __future__ import annotations

from hypothesis import strategies as st

import sdloops as sl

_NUMBERS = ["0", "0.5", "1", "-2", "3", "100"]
_COEFFICIENTS = ["0.25", "0.5", "1.5", "2"]


def _linear(draw, names: list[str], first: list[str] = _NUMBERS) -> str:
    """A number from `first`, then up to three terms `+- coefficient * name`."""
    picked = draw(st.lists(st.sampled_from(names), unique=True, max_size=3)) if names else []
    terms = [f"{draw(st.sampled_from('+-'))} {draw(st.sampled_from(_COEFFICIENTS))} * {n}" for n in picked]
    return " ".join([draw(st.sampled_from(first)), *terms])


def _equation(draw, names: list[str], depth: int = 3) -> str:
    """Equation text over `names` with IF, MIN, ABS, unary minus and
    division; its numbers make -0.0 (0 * -1), division by zero and overflow
    (1e300 * 1e300) possible.  A leaf is a name twice as often as it is any
    one number, so that more flows close loops."""
    leaves = [*names, *names, "0", "0.1", "0.3", "1", "2", "TIME", "1e300"]
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(leaves))
    sub = lambda: _equation(draw, names, depth - 1)  # noqa: E731
    form = draw(st.sampled_from(["bin", "if", "min", "abs", "neg", "negzero"]))
    if form == "bin":
        return f"({sub()} {draw(st.sampled_from(['+', '-', '*', '/']))} {sub()})"
    if form == "if":
        return f"(IF {sub()} {draw(st.sampled_from(['>', '<=', '=']))} {sub()} THEN {sub()} ELSE {sub()})"
    if form == "min":
        return f"MIN({sub()}, {sub()})"
    if form == "abs":
        return f"ABS({sub()})"
    if form == "neg":
        return f"-{sub()}"
    return f"(0 * -{sub()})"  # -0.0 where the operand is positive


@st.composite
def models(draw) -> list[str]:
    consts = [f"k{i}" for i in range(draw(st.integers(0, 4)))]
    stocks = [f"s{i}" for i in range(draw(st.integers(1, 3)))]
    auxes = [f"a{i}" for i in range(draw(st.integers(0, 2)))]
    flows = [f"f{i}" for i in range(draw(st.integers(1, 5)))]
    dt = draw(st.sampled_from(["1", "0.5", "0.25"]))
    lines = [f"SPEC START = 0 STOP = {draw(st.integers(1, 6))} DT = {dt}"]
    lines += [f"CONST {c} = {_linear(draw, consts[:i])}" for i, c in enumerate(consts)]
    for i, s in enumerate(stocks):
        both = draw(st.lists(st.sampled_from(flows), unique=True, max_size=5))
        split = draw(st.integers(0, len(both)))
        attached = " ".join(
            f"{kind}: {', '.join(names)}" for kind, names in (("inflow", both[:split]), ("outflow", both[split:])) if names
        )
        lines.append(f"STOCK {s} = {_linear(draw, consts + stocks[:i])} {{ {attached} }}")
    known = consts + stocks
    for name in auxes + flows:
        lines.append(f"{'AUX' if name in auxes else 'FLOW'} {name} = {_equation(draw, known)}")
        known.append(name)
    return lines


@st.composite
def synthetic_models(draw) -> list[str]:
    """The declaration lines of a `gen_synthetic` model of 2-4 stocks over its
    first 12 steps, with 0-8 constants and each stock's initial value drawn as
    `models()` draws them, but led by a coefficient, never 0, so that stocks
    move and the loops are active."""
    spec = sl.SyntheticSpec(draw(st.integers(2, 4)), draw(st.sampled_from([0.5, 1.0])), draw(st.integers(0, 999)))
    consts = [f"k{i}" for i in range(draw(st.integers(0, 8)))]
    lines = [f"CONST {c} = {_linear(draw, consts[:i], _COEFFICIENTS)}" for i, c in enumerate(consts)]
    stocks: list[str] = []
    for line in sl.gen_synthetic(spec).replace("STOP = 100", "STOP = 12").splitlines()[1:]:
        if line.startswith("STOCK"):
            name, rest = line[len("STOCK "):].split(" = ", 1)
            line = f"STOCK {name} = {_linear(draw, consts + stocks, _COEFFICIENTS)} {rest[rest.index('{'):]}"
            stocks.append(name)
        lines.append(line)
    return lines


DIVIDES_BY_ZERO = "SPEC START = 0 STOP = 4 DT = 1\nSTOCK s = 2 { outflow: f }\nFLOW f = 1 / (s - 1)\n"
# s1's change alone makes the denominator of g zero at the mixed point
DIVIDES_AT_MIXED_POINT = """\
SPEC START = 0 STOP = 4 DT = 1
FLOW up = 1
FLOW g = IF s0 > 0 THEN 1 / (s0 - s1) + s0 ELSE s1
STOCK s0 = 1 { inflow: up }
STOCK s1 = 0 { inflow: up }
STOCK s2 = 0 { inflow: g }
"""
# a(t) = t and b(t) = 2t + 1, so a - b is never 0, but a's step from 0 to 1
# meets b's old value 1: only the mixed point of a -> f at step 1 divides by zero
DIVIDES_AT_ONE_MIXED_POINT = """\
SPEC START = 0 STOP = 4 DT = 1
STOCK a = 0 { inflow: g }
STOCK b = 1 { inflow: h }
FLOW g = 1
FLOW h = 2
FLOW f = 1 / (a - b)
STOCK c = 0 { inflow: f }
"""
# a(t) = t and b(t) = 3t - 3 never meet, but the mixed point of a -> r
# divides by zero at step 3 and that of b -> r at step 1, inside a taken IF
DIVIDES_INSIDE_IF_AT_ONE_STEP = """\
SPEC START = 0 STOP = 5 DT = 1
STOCK a = 0 { inflow: g }
STOCK b = -3 { inflow: h }
FLOW g = 1
FLOW h = 3
AUX r = IF a < 10 THEN 1 / (a - b) ELSE b
FLOW f = r
STOCK c = 0 { inflow: f }
"""
TRANSFER = """\
SPEC START = 0 STOP = 4 DT = 1
CONST c0 = 2
AUX a0 = IF s0 > 6 THEN c0 ELSE s0 / 2
FLOW move = MIN(a0, s0)
STOCK s0 = 8 { outflow: move }
STOCK s1 = 0 { inflow: move }
"""
# a and b cancel, so the flow-share quotients of a and b overflow
CANCELLING_INFLOWS = """\
SPEC START = 0 STOP = 2 DT = 1
FLOW a = 1e300
FLOW b = -1e300
FLOW c = 1e-300
STOCK s = 0 { inflow: a, b, c }
"""
# s moves z by 1e300 * 0.1 at the mixed point while z moves by 1e-15
STEEP_GATE = """\
SPEC START = 0 STOP = 3 DT = 1
STOCK s = 4.9 { inflow: f }
FLOW f = 0.2 * z
AUX z = IF s > 5 THEN 1.000000000000001 ELSE 1e300 * (s - 4.9) + 1
"""
# every link score is finite (1.4e294 and 1.3e281 at step 1), the product
# along f -> s -> z is not; the loop g -> s stays finite
OVERFLOWING_LOOP = """\
SPEC START = 0 STOP = 3 DT = 1
STOCK s = 4.9 { inflow: f outflow: g }
FLOW f = IF z > 1.0000000000000004 THEN 0.2000000000000001 ELSE 1e280 * (z - 1) + 0.2
FLOW g = 0.01 * s
AUX z = IF s > 5 THEN 1.000000000000001 ELSE 1e280 * (s - 4.9) + 1
"""
