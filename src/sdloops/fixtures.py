"""Bundled demonstration models and the synthetic stress-model generator.

Every fixture parses and validates cleanly; the notes say which numbers
are fixed by the scenario definition and which are tuning choices of this
package.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

__all__ = [
    "Fixture",
    "TWO_STOCK",
    "ARMS_RACE",
    "GREEDY_MISS_EDGES",
    "SyntheticSpec",
    "gen_synthetic",
    "stock_projection_circuit_count",
]


@dataclass(frozen=True)
class Fixture:
    name: str
    source: str
    notes: str


TWO_STOCK = Fixture(
    name="twostock",
    source="""\
# Two decoupled growth loops that hand control of each other's flow
# back and forth as thresholds are crossed.
SPEC START = 0 STOP = 12 DT = 1
STOCK Stock_1 = 1 { inflow: Flow_1 }
STOCK Stock_2 = 1 { inflow: Flow_2 }
FLOW Flow_1 = IF Stock_2 > 50 THEN Stock_2 / DT ELSE Stock_1 / DT
FLOW Flow_2 = IF Stock_1 > 10 AND Stock_1 < 20 THEN Stock_1 / DT ELSE Stock_2 / DT
""",
    notes=(
        "Equations, thresholds, and unit initial values are fixed by the "
        "scenario definition. Run span 0..12 with dt 1 is a tuning choice: "
        "it is the shortest run on which the stock-to-flow link scores "
        "average close to 0.5 / 0.9 / 0.1 / 0.5."
    ),
)


ARMS_RACE = Fixture(
    name="armsrace",
    source="""\
# Three-party arms race: each party chases a weighted sum of its rivals.
# A wants parity with B and 90% of C; B wants parity with A and 110% of C;
# C wants 110% of A and 90% of B.
SPEC START = 0 STOP = 100 DT = 1
CONST acquisition_time = 10
CONST decay_time = 5.25
STOCK A = 50 { inflow: build_A }
STOCK B = 100 { inflow: build_B }
STOCK C = 150 { inflow: build_C }
AUX target_A = B + 0.9 * C
AUX target_B = A + 1.1 * C
AUX target_C = 1.1 * A + 0.9 * B
FLOW build_A = target_A / acquisition_time - A / decay_time
FLOW build_B = target_B / acquisition_time - B / decay_time
FLOW build_C = target_C / acquisition_time - C / decay_time
""",
    notes=(
        "Target weightings (1.0 / 0.9 / 1.1) and initial stocks "
        "(A=50, B=100, C=150) are fixed by the scenario definition. "
        "The net-flow form target/acquisition_time - stock/decay_time and "
        "the time constants 10 / 5.25 are tuning choices: a plain "
        "(target - stock)/tau adjustment pins every loop's long-run score "
        "near 1 regardless of tau, which flattens the relative shares at "
        "roughly 3:3:2 (minor : pairwise : three-party) and never lets the "
        "three-party loops dominate; splitting the rates pushes the "
        "long-run share of the two three-party loops above 0.8 while "
        "keeping the same eight loops, the same coefficient products, and "
        "balancing minors. Run span 0..100 with dt 1 is a tuning choice."
    ),
)


# Edge list demonstrating how greedy best-score pruning can miss the
# strongest loop: starting from a, the search reaches c through d with
# score 100, continues to b with 100, and the direct a->b start (score 10)
# is then pruned, so a->b->c->a (score 1000) is never closed.
GREEDY_MISS_EDGES = Fixture(
    name="greedy-miss",
    source="""\
src,dst,weight
a,b,10
b,c,10
c,a,10
a,d,100
d,c,0.1
c,b,10
""",
    notes=(
        "Weights are derived to satisfy the canonical failure story for "
        "greedy loop search: path products 100 -> 10 -> 100 via d, loop "
        "scores 1000 (a->b->c->a) and 100 (a->d->c->a). The six edges "
        "those statements force also close an incidental b<->c two-cycle "
        "(score 100) that plays no part in the story."
    ),
)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a dense synthetic model: N stocks, each with one net
    flow that is a seeded linear combination of its own stock and
    ceil(density * (N - 1)) others.  Loop count grows combinatorially
    with stocks and density."""

    stocks: int
    density: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.stocks < 2:
            raise ValueError("stocks must be >= 2")
        if not 0.0 < self.density <= 1.0:
            raise ValueError("density must be in (0, 1]")


def gen_synthetic(spec: SyntheticSpec) -> str:
    """Deterministic model text for a SyntheticSpec: same spec and seed
    give byte-identical output, and the result always validates."""
    rng = random.Random(spec.seed)
    n = spec.stocks
    picks = math.ceil(spec.density * (n - 1))
    lines = [
        f"# synthetic model: stocks={n} density={spec.density} seed={spec.seed}",
        "SPEC START = 0 STOP = 100 DT = 1",
    ]
    for i in range(1, n + 1):
        init = rng.uniform(1.0, 10.0)
        lines.append(f"STOCK stock_{i} = {repr(init)} {{ inflow: flow_{i} }}")
    for i in range(1, n + 1):
        others = [j for j in range(1, n + 1) if j != i]
        chosen = sorted(rng.sample(others, picks))
        terms = [(i, rng.uniform(-1.0, 1.0))]
        terms.extend((j, rng.uniform(-1.0, 1.0)) for j in chosen)
        parts = [f"{repr(terms[0][1])} * stock_{terms[0][0]}"]
        for j, coef in terms[1:]:
            op = "+" if coef >= 0 else "-"
            parts.append(f"{op} {repr(abs(coef))} * stock_{j}")
        lines.append(f"FLOW flow_{i} = " + " ".join(parts))
    return "\n".join(lines) + "\n"


def stock_projection_circuit_count(stocks: int) -> int:
    """Elementary circuit count of the fully dense synthetic model's
    stock projection: a complete digraph on `stocks` nodes plus a self
    loop at each (every flow references its own stock), which is
    sum over k=1..N of C(N, k) * (k-1)!."""
    return sum(math.comb(stocks, k) * math.factorial(k - 1) for k in range(1, stocks + 1))
