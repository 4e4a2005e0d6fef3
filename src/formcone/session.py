"""Line-oriented input DSL describing a filtered quotient-ring setup.

    field QQ            # or: field FP <p>
    vars X, Y, Z
    base: X^4 - Y*Z, Y^3 - X*Z, Z^2 - X^3*Y^2
    module: 0           # extra generators beyond base; 0 means M = A
    q: X, Y, Z
    a: X @ 1            # optional "@ c" asserts the initial degree
    set n_max = 10

`#` starts a comment; expressions use the canonical polynomial syntax.
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


def parse_session(text: str) -> SessionSpec:
    field_spec: FieldSpec | None = None
    variables: tuple[str, ...] | None = None
    ring: PolynomialRing | None = None
    base: list[Polynomial] = []
    module: list[Polynomial] = []
    q: list[Polynomial] = []
    system: list[tuple[Polynomial, int | None]] = []
    seen: set[str] = set()
    params = CriterionParams()

    def need_ring(lineno: int, col: int) -> PolynomialRing:
        if ring is None:
            raise ParseError("field and vars must come before expressions", lineno, col,
                             ("field", "vars"))
        return ring

    def parse_list(body: str, lineno: int, col0: int) -> list[Polynomial]:
        if body.strip() == "0":
            return []
        out = []
        for chunk, off in _split_top_level(body):
            out.append(parse_polynomial(need_ring(lineno, col0), chunk, lineno, col0 + off))
        return out

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
                ring = PolynomialRing(field_spec, variables)
            continue

        if word == "vars":
            if variables is not None:
                raise ParseError("duplicate vars declaration", lineno, indent + 1, ())
            rest = stripped[len("vars"):]
            names = tuple(n.strip() for n, _ in _split_top_level(rest))
            if not names:
                raise ParseError("empty variable list", lineno, indent + 1, ("name",))
            variables = names
            if field_spec is not None:
                try:
                    ring = PolynomialRing(field_spec, variables)
                except ValidationError as exc:
                    raise ParseError(str(exc), lineno, indent + 1, ("variable names",))
            continue

        if word == "set":
            rest = stripped[len("set"):]
            if "=" not in rest:
                raise ParseError("set needs key = value", lineno, indent + 1, ("key = value",))
            key, value = (part.strip() for part in rest.split("=", 1))
            if key not in PARAM_KEYS:
                raise ParseError(f"unknown parameter {key!r}", lineno, indent + 1,
                                 tuple(sorted(PARAM_KEYS)))
            try:
                params = replace(params, **{key: int(value)})
            except ValueError:
                raise ParseError(f"parameter {key} needs an integer", lineno, indent + 1,
                                 ("integer",))
            except ValidationError as exc:
                raise ParseError(str(exc), lineno, indent + 1, ())
            continue

        if ":" in stripped:
            raw_head, body = stripped.split(":", 1)
            head = raw_head.strip()
            col0 = indent + len(raw_head) + 1
            if head == "base":
                if "base" in seen:
                    raise ParseError("duplicate base section", lineno, indent + 1, ())
                seen.add("base")
                base = parse_list(body, lineno, col0)
                continue
            if head == "module":
                if "module" in seen:
                    raise ParseError("duplicate module section", lineno, indent + 1, ())
                seen.add("module")
                module = parse_list(body, lineno, col0)
                continue
            if head == "q":
                if "q" in seen:
                    raise ParseError("duplicate q section", lineno, indent + 1, ())
                seen.add("q")
                q = parse_list(body, lineno, col0)
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
                             ("base", "module", "q", "a"))

        raise ParseError(f"unrecognized directive {word!r}", lineno, indent + 1,
                         ("field", "vars", "base:", "module:", "q:", "a:", "set"))

    if field_spec is None:
        raise ParseError("missing field declaration", 1, 1, ("field",))
    if variables is None:
        raise ParseError("missing vars declaration", 1, 1, ("vars",))
    if "q" not in seen or not q:
        raise ParseError("missing q section", 1, 1, ("q:",))
    return SessionSpec(
        field=field_spec,
        variables=variables,
        base=tuple(base),
        module=tuple(module),
        q=tuple(q),
        system=tuple(system),
        params=params,
    )
