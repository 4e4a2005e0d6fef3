"""Line-oriented input DSL describing a filtered quotient-ring setup.

    field QQ            # or: field FP <p>
    vars X, Y, Z
    base: X^4 - Y*Z, Y^3 - X*Z, Z^2 - X^3*Y^2
    module: 0           # extra generators beyond base; 0 means M = A
    q: X, Y, Z
    a: X @ 1            # optional "@ c" asserts the initial degree
    set n_max = 10

`#` starts a comment; expressions use the canonical polynomial syntax.
`base:`, `module:` and `q:` come at most once each, and `0` is the empty list.
`set` lines and the CLI's `--set` flags go through one setter, `apply_setting`.
Parse errors carry 1-based line/column and the accepted alternatives.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .criterion import CriterionParams
from .errors import ParseError, ValidationError
from .filtration import FiltrationContext
from .rings import FieldSpec, Polynomial, PolynomialRing, parse_polynomial

# the keys a `set` line or a `--set` flag may name
PARAM_KEYS = frozenset(f.name for f in fields(CriterionParams)) - {"search_coefficients"}
# the sections that each hold one expression list
LIST_SECTIONS = ("base", "module", "q")


@dataclass(frozen=True)
class SessionSpec:
    field: FieldSpec
    variables: tuple[str, ...]
    base: tuple[Polynomial, ...]
    module: tuple[Polynomial, ...]
    q: tuple[Polynomial, ...]
    system: tuple[tuple[Polynomial, int | None], ...]
    params: CriterionParams

    @property
    def ring(self) -> PolynomialRing:
        return PolynomialRing(self.field, self.variables)

    def context(self) -> FiltrationContext:
        return FiltrationContext(
            self.ring, self.base, self.module, self.q, self.system,
            probe_cap=self.params.probe_cap, step_budget=self.params.step_budget,
        )


def _split_top_level(text: str) -> list[tuple[str, int]]:
    """Comma-split with 1-based column offsets (expressions contain no commas)."""
    out = []
    start = 0
    for i, ch in enumerate(text + ","):
        if ch == ",":
            chunk = text[start:i]
            out.append((chunk, start))
            start = i + 1
    return [(c, off) for c, off in out if c.strip()]


def apply_setting(params: CriterionParams, assignment: str) -> CriterionParams:
    """``params`` with one ``key = value`` assignment applied: the one setter
    of the ``set`` lines and the ``--set`` flags (raises ValidationError)."""
    key, eq, value = (part.strip() for part in assignment.partition("="))
    if not eq:
        raise ValidationError(f"expected key=value, got {assignment.strip()!r}")
    if key not in PARAM_KEYS:
        raise ValidationError(
            f"unknown parameter {key!r}; known: {', '.join(sorted(PARAM_KEYS))}")
    try:
        number = int(value)
    except ValueError:
        raise ValidationError(f"parameter {key} needs an integer value")
    return replace(params, **{key: number})


def parse_session(text: str) -> SessionSpec:
    field_spec: FieldSpec | None = None
    variables: tuple[str, ...] | None = None
    ring: PolynomialRing | None = None
    sections: dict[str, list[Polynomial]] = {}
    system: list[tuple[Polynomial, int | None]] = []
    params = CriterionParams()

    def make_ring() -> PolynomialRing:
        """The ring of the declared field and variables, built by whichever of
        the two lines comes second; a bad or repeated name is reported at the
        vars line either way."""
        try:
            return PolynomialRing(field_spec, variables)
        except ValidationError as exc:
            raise ParseError(str(exc), *vars_at, ("variable names",))

    def need_ring(lineno: int, col: int) -> PolynomialRing:
        if ring is None:
            raise ParseError("field and vars must come before expressions", lineno, col,
                             ("field", "vars"))
        return ring

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        stripped = line.lstrip()
        indent = len(line) - len(stripped)
        word = stripped.split(None, 1)[0]

        if word == "field":
            if field_spec is not None:
                raise ParseError("duplicate field declaration", lineno, indent + 1, ())
            rest = stripped[len("field"):].strip()
            parts = rest.split()
            if parts and parts[0] == "QQ" and len(parts) == 1:
                field_spec = FieldSpec(0)
            elif len(parts) == 2 and parts[0] == "FP" and parts[1].isdigit():
                try:
                    field_spec = FieldSpec(int(parts[1]))
                except ValidationError as exc:
                    raise ParseError(str(exc), lineno, indent + 1, ("prime number",))
            else:
                raise ParseError(f"bad field declaration {rest!r}", lineno, indent + 1,
                                 ("QQ", "FP <prime>"))
            if variables is not None:
                ring = make_ring()
            continue

        if word == "vars":
            if variables is not None:
                raise ParseError("duplicate vars declaration", lineno, indent + 1, ())
            rest = stripped[len("vars"):]
            names = tuple(n.strip() for n, _ in _split_top_level(rest))
            if not names:
                raise ParseError("empty variable list", lineno, indent + 1, ("name",))
            variables, vars_at = names, (lineno, indent + 1)
            if field_spec is not None:
                ring = make_ring()
            continue

        if word == "set":
            try:
                params = apply_setting(params, stripped[len("set"):])
            except ValidationError as exc:
                raise ParseError(str(exc), lineno, indent + 1)
            continue

        if ":" in stripped:
            raw_head, body = stripped.split(":", 1)
            head = raw_head.strip()
            col0 = indent + len(raw_head) + 1
            if head in LIST_SECTIONS:
                if head in sections:
                    raise ParseError(f"duplicate {head} section", lineno, indent + 1, ())
                sections[head] = [] if body.strip() == "0" else [
                    parse_polynomial(need_ring(lineno, col0), chunk, lineno, col0 + off)
                    for chunk, off in _split_top_level(body)]
                continue
            if head == "a":
                for chunk, off in _split_top_level(body):
                    if "@" in chunk:
                        expr, claim = chunk.split("@", 1)
                        claim = claim.strip()
                        if not claim.isdigit():
                            raise ParseError("initial-degree claim must be a natural number",
                                             lineno, col0 + off + len(expr) + 1, ("number",))
                        degree = int(claim)
                    else:
                        expr, degree = chunk, None
                    poly = parse_polynomial(need_ring(lineno, col0), expr, lineno, col0 + off)
                    system.append((poly, degree))
                continue
            raise ParseError(f"unknown section {head!r}", lineno, indent + 1,
                             (*LIST_SECTIONS, "a"))

        raise ParseError(f"unrecognized directive {word!r}", lineno, indent + 1,
                         ("field", "vars", "base:", "module:", "q:", "a:", "set"))

    if field_spec is None:
        raise ParseError("missing field declaration", 1, 1, ("field",))
    if variables is None:
        raise ParseError("missing vars declaration", 1, 1, ("vars",))
    if not sections.get("q"):
        raise ParseError("missing q section", 1, 1, ("q:",))
    return SessionSpec(
        field=field_spec,
        variables=variables,
        base=tuple(sections.get("base", ())),
        module=tuple(sections.get("module", ())),
        q=tuple(sections["q"]),
        system=tuple(system),
        params=params,
    )
