"""Workload inputs for the formcone benchmark, and the outputs it checks.

The inputs live here, not in ``tests/``, so that later additions to the test
corpus do not change what the benchmark measures.  Every workload is a list
of items; an item is built (parse plus ``FiltrationContext`` construction,
timed as set-up) and then run (timed per item).  ``outputs`` turns what an
item produced into plain JSON data, which ``reference.json`` records for
every input a seed can generate.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
SESSION_FILE = HERE / "semigroup_curve.fc"

DEFAULT_SEED = 20260810

# ---------------------------------------------------------------------------
# corpus41: the acceptance corpus, as tests/corpus.py builds it
# ---------------------------------------------------------------------------

# (characteristic, vars, base, module, q, system)
HAND_PICKED = [
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

MONO_POOL = ["x^2", "x*y", "y^2", "x^2*y", "y^3", "x^3"]
BINO_POOL = ["x^2 - y^3", "x^2 - y^2", "x^3 - y^2", "x^2*y - y^3"]
SYSTEMS_FULL = [("x",), ("y",), ("x + y",), ("x", "y"), ("y", "x + y")]
SYSTEMS_PRINCIPAL = [("x",), ("x^2",), ("x*y",), ("x", "x*y")]
# the default seed draws 10 recipes, one of which does not build; every seed
# draws until this many build, so every seed gives 41 instances
RANDOM_VALID = 9

CORPUS_PARAMS = dict(n_max=8, l_max=12, window=2, degree_cap=6)
TIER4_PARAMS = dict(n_max=2, l_max=12, window=2, degree_cap=6)


def draw_recipe(rng: random.Random) -> tuple:
    """One randomized recipe, drawn exactly as tests/corpus.py draws it."""
    if rng.choice(("monomial", "binomial")) == "monomial":
        gens = tuple(sorted(rng.sample(MONO_POOL, rng.randint(1, 2))))
    else:
        gens = (rng.choice(BINO_POOL),)
    q = rng.choice((("x", "y"), ("x",)))
    system = rng.choice(SYSTEMS_FULL if len(q) == 2 else SYSTEMS_PRINCIPAL)
    return (0, ("x", "y"), gens, (), q, system)


def random_pool() -> list[tuple]:
    """Every recipe ``draw_recipe`` can return."""
    from itertools import combinations

    bases = [(m,) for m in MONO_POOL]
    bases += [tuple(sorted(pair)) for pair in combinations(MONO_POOL, 2)]
    bases += [(b,) for b in BINO_POOL]
    out = []
    for gens in bases:
        for q, systems in ((("x", "y"), SYSTEMS_FULL), (("x",), SYSTEMS_PRINCIPAL)):
            out.extend((0, ("x", "y"), gens, (), q, s) for s in systems)
    return out


def recipe_key(recipe: tuple) -> str:
    char, names, base, module, q, system = recipe
    return ";".join((
        f"F{char}" if char else "QQ", ",".join(names), ",".join(base) or "0",
        ",".join(module) or "0", ",".join(q), ",".join(system),
    ))


def corpus_name(index: int, recipe: tuple) -> str:
    char, _, base, _, q, system = recipe
    return (f"inst{index:02d}[{'QQ' if char == 0 else f'F{char}'};{','.join(base) or '0'};"
            f"q={','.join(q)};a={','.join(system)}]")


def corpus_recipes(seed: int, valid: dict[str, bool]) -> list[tuple[str, tuple]]:
    """(name, recipe) for the 41 instances of ``seed``.

    ``valid`` maps recipe keys to whether the recipe builds (from the
    reference).  A recipe that does not build is skipped but keeps its
    index, as in tests/corpus.py.  Every seed keeps the default seed's
    filtration ideal and system at each position of the batch, redrawing
    until they match, so the seed draws the base ideals: q and the system
    set most of an instance's cost, and a varying mix of them would move
    the per-item median with the seed rather than with the program.  Where
    q = (x, y) the seed keeps the default seed's whole recipe: there the
    base alone moves an instance's cost by up to 15x (x^2 - y^3 with
    a = x + y takes over 1 s, most bases 0.1 s), so one draw in four would
    move ``pass_s`` by about 12 % with the seed.
    """
    def batch(rng: random.Random, kept: list) -> list[tuple]:
        out = []
        for keep in kept:
            while True:
                recipe = draw_recipe(rng)
                if not valid[recipe_key(recipe)]:
                    out.append(recipe)
                elif keep is None or recipe[4:] == keep[4:]:
                    out.append(keep if keep is not None and len(keep[4]) == 2 else recipe)
                    break
        return out

    default = batch(random.Random(DEFAULT_SEED), [None] * RANDOM_VALID)
    kept = [r for r in default if valid[recipe_key(r)]]
    recipes = HAND_PICKED + batch(random.Random(seed), kept)
    return [(corpus_name(i, r), r) for i, r in enumerate(recipes) if valid[recipe_key(r)]]


# ---------------------------------------------------------------------------
# tier4: hand-written inputs in four variables over QQ
# ---------------------------------------------------------------------------

_CURVE = ("z^2 - y*w", "y^3 - x*w", "x^3 - y*z", "x^2*y*z - w^2", "x^2*y^2 - z*w")
_CONE = ("x*z - y^2", "x*w - y*z", "y*w - z^2")  # 2x2 minors of [[x,y,z],[y,z,w]]
_XYZW = ("x", "y", "z", "w")
TIER4 = [
    ("curve_t6_t7_t11_t15;a=x", (0, _XYZW, _CURVE, (), _XYZW, ("x",))),
    ("twisted_cubic_cone;a=x,w", (0, _XYZW, _CONE, (), _XYZW, ("x", "w"))),
    ("twisted_cubic_cone;a=x", (0, _XYZW, _CONE, (), _XYZW, ("x",))),
]

# ---------------------------------------------------------------------------
# Items
# ---------------------------------------------------------------------------


class PipelineItem:
    """One instance: equivalence check, then the CM report on the same context."""

    def __init__(self, name: str, recipe: tuple, params: dict):
        self.name = name
        self.key = recipe_key(recipe)
        self.recipe = recipe
        self.params = params

    def build(self, fc):
        """Parse the recipe and construct its context; None if it does not build."""
        char, names, base, module, q, system = self.recipe
        ring = fc.PolynomialRing(fc.FieldSpec(char), tuple(names))
        params = fc.CriterionParams(**self.params)

        def parse_all(exprs):
            return tuple(ring.parse(e) for e in exprs)

        try:
            ctx = fc.FiltrationContext(
                ring, parse_all(base), parse_all(module), parse_all(q),
                [(ring.parse(e), None) for e in system],
                probe_cap=params.probe_cap, step_budget=params.step_budget,
            )
        except fc.ValidationError:
            return None
        if any(s.zero_flag for s in ctx.system):
            return None
        return ctx, params

    @staticmethod
    def run(fc, built):
        ctx, params = built
        return (fc.defect_regularity_equivalence(ctx, params),
                fc.cohen_macaulay_report(ctx, params))

    @staticmethod
    def outputs(produced) -> dict:
        """The mathematical outputs: no timings, certificates, notes or statuses."""
        eq, report = produced
        return {
            "agree": eq.agree,
            "all_vanish": eq.all_vanish,
            "regular_exists": eq.regular_exists,
            "classification": eq.classification,
            "cm": report.cm_verdict,
            "depth": report.depth,
            "dim": report.dim,
            "grade_direct": report.grade_direct,
            "grade_recursion": report.grade_recursion,
            "sop": report.sop_flag,
            "band": list(report.predicted_band),
            "vanishing": [r.vanishing for r in report.lzero_table],
            "level_bases": [[str(g) for g in r.ideal.groebner().generators]
                            for r in report.lzero_table],
        }


# formcone.cli.COMMANDS at the commit that recorded the reference
CLI_COMMANDS = ("gb", "formring", "hilbert", "dim", "depth", "lzero", "grade",
                "cm-check", "full-report", "emit-cas")

# keys of the CLI JSON that carry timings, certificates or statuses
_CLI_DROPPED = frozenset(("timings", "certificates", "certified", "stabilized_l", "notes"))


def _strip(value):
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k not in _CLI_DROPPED}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


class CliItem:
    """One CLI command on the session file, run in-process with --json."""

    def __init__(self, command: str):
        self.name = command
        self.key = command

    def build(self, fc):
        """The set-up ``main`` repeats inside every command: read, parse,
        construct.  ``run`` does not use it; it is built so that set-up time
        covers the same work on every workload."""
        from formcone.session import parse_session

        spec = parse_session(SESSION_FILE.read_text(encoding="utf-8"))
        return spec if self.name == "emit-cas" else spec.context()

    def run(self, fc, built):
        from formcone.cli import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([self.name, str(SESSION_FILE), "--json"])
        return code, out.getvalue()

    @staticmethod
    def outputs(produced) -> dict:
        code, text = produced
        if code != 0:
            return {"exit_code": code}
        return _strip(json.loads(text))


def items(workload: str, seed: int, reference: dict) -> list:
    """The items of one workload for ``seed``, in the order they run."""
    if workload == "corpus41":
        valid = {k: v["valid"] for k, v in reference["corpus41"].items()}
        return [PipelineItem(name, r, CORPUS_PARAMS) for name, r in corpus_recipes(seed, valid)]
    if workload == "tier4":
        out = [PipelineItem(name, r, TIER4_PARAMS) for name, r in TIER4]
    elif workload == "cli_curve":
        out = [CliItem(c) for c in CLI_COMMANDS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(out)  # the seed only orders these fixed items
    return out
