"""Deterministic instance corpus shared by the property and acceptance suites.

Instances cover monomial and binomial base ideals in up to three variables,
filtration ideals that are either the full variable ideal or principal, and
systems of one or two elements, over QQ plus a few prime fields.  Everything
is fixed (hand-picked families plus a seeded randomized batch), so reruns see
the identical corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from formcone import (
    CriterionParams,
    FieldSpec,
    FiltrationContext,
    PolynomialRing,
    ValidationError,
)

CORPUS_PARAMS = CriterionParams(n_max=8, l_max=12, window=2, degree_cap=6)
CORPUS_SEED = 20260810

# the bases of the three tier-4 inputs, all with q = (x, y, z, w)
TIER4_BASES = (
    ("z^2 - y*w", "y^3 - x*w", "x^3 - y*z", "x^2*y*z - w^2", "x^2*y^2 - z*w"),
    ("x*z - y^2", "x*w - y*z", "y*w - z^2"),
)


@dataclass
class Instance:
    name: str
    ctx: FiltrationContext


def _try_build(name, field, var_names, base_exprs, module_exprs, q_exprs, system_exprs):
    ring = PolynomialRing(field, tuple(var_names))

    def parse_all(exprs):
        return tuple(ring.parse(e) for e in exprs)

    try:
        ctx = FiltrationContext(
            ring, parse_all(base_exprs), parse_all(module_exprs), parse_all(q_exprs),
            [(ring.parse(e), None) for e in system_exprs],
            probe_cap=CORPUS_PARAMS.probe_cap,
            step_budget=CORPUS_PARAMS.step_budget,
        )
    except ValidationError:
        return None
    if any(s.zero_flag for s in ctx.system):
        return None
    return Instance(name, ctx)


_HAND_PICKED = [
    # (field, vars, base, module, q, system)
    (0, ("x",), (), (), ("x",), ("x",)),
    (0, ("x",), ("x^3",), (), ("x",), ("x",)),
    (0, ("x", "y"), (), (), ("x", "y"), ("x", "y")),
    (0, ("x", "y"), (), (), ("x", "y"), ("x",)),
    (0, ("x", "y"), (), (), ("x", "y"), ("x + y",)),
    (0, ("x", "y"), (), (), ("x",), ("x",)),
    (0, ("x", "y"), (), (), ("x + y",), ("x + y",)),
    (0, ("x", "y"), ("x^2",), (), ("x", "y"), ("y",)),
    (0, ("x", "y"), ("x^2",), (), ("x", "y"), ("x", "y")),
    (0, ("x", "y"), ("x^2", "x*y"), (), ("x", "y"), ("y",)),
    (0, ("x", "y"), ("x*y",), (), ("x", "y"), ("x + y",)),
    (0, ("x", "y"), ("x*y",), (), ("x", "y"), ("x",)),
    (0, ("x", "y"), ("x^2*y",), (), ("x", "y"), ("x", "y")),
    (0, ("x", "y"), ("x^2 - y^3",), (), ("x", "y"), ("x",)),
    (0, ("x", "y"), ("x^2 - y^3",), (), ("x", "y"), ("y",)),
    (0, ("x", "y"), ("x^2 - y^3",), (), ("x",), ("x",)),
    (0, ("x", "y"), ("x^2 - y^2",), (), ("x", "y"), ("x + 2y",)),
    (0, ("x", "y"), ("x^3 - y^4",), (), ("x", "y"), ("y", "x")),
    (0, ("x", "y"), (), ("x",), ("x", "y"), ("y",)),
    (0, ("x", "y"), (), ("x^2",), ("x", "y"), ("y", "x")),
    (0, ("x", "y", "z"), (), (), ("x", "y", "z"), ("x", "y")),
    (0, ("x", "y", "z"), ("x*y - z^2",), (), ("x", "y", "z"), ("z",)),
    (0, ("x", "y", "z"), ("x*y - z^2",), (), ("x", "y", "z"), ("x", "y")),
    (0, ("x", "y", "z"), ("x^2 - y*z",), (), ("x", "y", "z"), ("x",)),
    (0, ("x", "y", "z"), ("x*z", "y*z"), (), ("x", "y", "z"), ("x + z",)),
    (0, ("x", "y", "z"), ("x*z", "y*z"), (), ("x", "y", "z"), ("z", "x")),
    (0, ("x", "y", "z"), ("x*y", "x*z", "y*z"), (), ("x", "y", "z"), ("x + y + z",)),
    (0, ("x", "y", "z"), (), (), ("z",), ("z",)),
    (5, ("x", "y"), ("x^2 - y^3",), (), ("x", "y"), ("x",)),
    (5, ("x", "y"), ("x^2", "x*y"), (), ("x", "y"), ("y",)),
    (2, ("x", "y"), ("x*y",), (), ("x", "y"), ("x + y",)),
    (2, ("x",), ("x^4",), (), ("x",), ("x",)),
]


def _randomized_batch(count: int) -> list[tuple]:
    rng = random.Random(CORPUS_SEED)
    out = []
    mono_pool = ["x^2", "x*y", "y^2", "x^2*y", "y^3", "x^3"]
    bino_pool = ["x^2 - y^3", "x^2 - y^2", "x^3 - y^2", "x^2*y - y^3"]
    # systems stay inside q so initial degrees are positive (the quotient
    # recursion needs homogeneous steps, which degree-0 elements may lack)
    systems_full = [("x",), ("y",), ("x + y",), ("x", "y"), ("y", "x + y")]
    systems_principal = [("x",), ("x^2",), ("x*y",), ("x", "x*y")]
    while len(out) < count:
        kind = rng.choice(("monomial", "binomial"))
        if kind == "monomial":
            gens = tuple(sorted(rng.sample(mono_pool, rng.randint(1, 2))))
        else:
            gens = (rng.choice(bino_pool),)
        q = rng.choice((("x", "y"), ("x",)))
        system = rng.choice(systems_full if len(q) == 2 else systems_principal)
        out.append((0, ("x", "y"), gens, (), q, system))
    return out


def build_corpus() -> list[Instance]:
    instances = []
    recipes = list(_HAND_PICKED) + _randomized_batch(10)
    for i, (char, names, base, module, q, system) in enumerate(recipes):
        inst = _try_build(
            f"inst{i:02d}[{'QQ' if char == 0 else f'F{char}'};{','.join(base) or '0'};"
            f"q={','.join(q)};a={','.join(system)}]",
            FieldSpec(char), names, base, module, q, system,
        )
        if inst is not None:
            instances.append(inst)
    return instances


def tier4_contexts() -> list[FiltrationContext]:
    """The three tier-4 inputs: the curve with a = x, the cone with a = x, w
    and the cone with a = x."""
    ring = PolynomialRing(FieldSpec(0), ("x", "y", "z", "w"))
    curve, cone = TIER4_BASES
    return [FiltrationContext(ring, tuple(ring.parse(e) for e in base), (), ring.gens(),
                              [(ring.parse(a), None) for a in system])
            for base, system in ((curve, ("x",)), (cone, ("x", "w")), (cone, ("x",)))]


def minors_context(rows: int = 2, cols: int = 3, system=(0,)) -> FiltrationContext:
    """The 2x2 minors of a generic ``rows`` x ``cols`` matrix whose entries
    are the variables a, b, c, ... row by row, q = m, and a = the variables
    at the ``system`` indexes (by default the first)."""
    ring = PolynomialRing(FieldSpec(0), tuple("abcdefghijklmnop"[:rows * cols]))
    m = [ring.gens()[r * cols:(r + 1) * cols] for r in range(rows)]
    base = tuple(m[r][i] * m[s][j] - m[r][j] * m[s][i] for r, s in combinations(range(rows), 2)
                 for i, j in combinations(range(cols), 2))
    return FiltrationContext(ring, base, (), ring.gens(), [(ring.var(k), 1) for k in system])
