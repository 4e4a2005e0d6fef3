"""Exact sparse multivariate polynomial arithmetic over QQ and prime fields.

Monomials are exponent tuples; a polynomial is an immutable map from
monomials to nonzero coefficients together with a reference to its ambient
ring.  Coefficients are `fractions.Fraction` in characteristic zero and
reduced residues (plain ints in ``0..p-1``) in characteristic ``p``.  No
floating point appears anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from operator import add, le, neg, sub
from typing import Callable, Iterable, Union

from .errors import ParseError, RingMismatchError, ValidationError

Monomial = tuple[int, ...]
Coefficient = Union[Fraction, int]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: the rationals (characteristic 0) or F_p, p prime < 2**31."""

    characteristic: int = 0

    def __post_init__(self):
        p = self.characteristic
        if p == 0:
            return
        if p >= 2**31 or not _is_prime(p):
            raise ValidationError(f"characteristic must be 0 or a prime < 2**31, got {p}")

    @property
    def is_rationals(self) -> bool:
        return self.characteristic == 0

    def coerce(self, value) -> Coefficient:
        """Normalize an int/Fraction into this field's canonical representation.

        Floats are rejected outright: arithmetic is exact everywhere.
        """
        if isinstance(value, float):
            raise ValidationError("floating-point coefficients are not supported")
        if self.characteristic == 0:
            return value if isinstance(value, Fraction) else Fraction(value)
        if isinstance(value, Fraction):
            if value.denominator % self.characteristic == 0:
                raise ZeroDivisionError("denominator vanishes in the prime field")
            return (value.numerator * pow(value.denominator, -1, self.characteristic)) % self.characteristic
        return value % self.characteristic

    def add(self, a: Coefficient, b: Coefficient) -> Coefficient:
        s = a + b
        return s if self.characteristic == 0 else s % self.characteristic

    def mul(self, a: Coefficient, b: Coefficient) -> Coefficient:
        s = a * b
        return s if self.characteristic == 0 else s % self.characteristic

    def neg(self, a: Coefficient) -> Coefficient:
        return -a if self.characteristic == 0 else (-a) % self.characteristic

    def inv(self, a: Coefficient) -> Coefficient:
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        if self.characteristic == 0:
            return 1 / Fraction(a)
        return pow(a, -1, self.characteristic)

    def div(self, a: Coefficient, b: Coefficient) -> Coefficient:
        """Exact a / b; over QQ an int quotient of two ints stays an int.

        Over QQ the operands are Fractions (as ``coerce`` gives) or the ints
        the Groebner engine holds for integer values; the result is never a
        float.  b == 0 raises ZeroDivisionError.
        """
        if self.characteristic == 0:
            if type(a) is int and type(b) is int:
                q, r = divmod(a, b)
                return Fraction(a, b) if r else q
            return a / b
        return self.mul(a, self.inv(b))

    def __str__(self) -> str:
        return "QQ" if self.characteristic == 0 else f"FP {self.characteristic}"


QQ = FieldSpec(0)


# ---------------------------------------------------------------------------
# Monomial helpers (exponent tuples, componentwise arithmetic only)
# ---------------------------------------------------------------------------

def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True iff a | b componentwise."""
    return all(map(le, a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """Quotient a / b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def exponents(nvars: int, degree: int) -> list[Monomial]:
    """Every exponent tuple of ``nvars`` entries and total ``degree``, in
    ascending lex order; built one position at a time, with no recursion."""
    rows = [((), degree)]
    for i in range(nvars):
        rows = [(head + (e,), left - e) for head, left in rows
                for e in ((left,) if i == nvars - 1 else range(left + 1))]
    return [head for head, left in rows if not left]


def minimal_monomials(monomials, key=sum) -> list[Monomial]:
    """The minimal elements of ``monomials`` under divisibility, ascending by
    ``key``, which must rank a divisor before its multiples (total degree,
    or a monomial order), so that one pass keeps them."""
    kept: list[Monomial] = []
    for m in sorted(monomials, key=key):
        if not any(mono_divides(k, m) for k in kept):
            kept.append(m)
    return kept


# ---------------------------------------------------------------------------
# Monomial orders
# ---------------------------------------------------------------------------

class OrderKind(str, Enum):
    DEGREVLEX = "degrevlex"
    LEX = "lex"
    BLOCK = "block-elimination"
    WDEGREVLEX = "weighted-degrevlex"


def _drl_key(m: Monomial):
    # Tuple comparison of (total degree, negated reversed exponents) realizes
    # degrevlex: larger key = larger monomial.
    return (sum(m), tuple(map(neg, reversed(m))))


@dataclass(frozen=True)
class MonomialOrder:
    """A total multiplicative well-order on monomials.

    * ``degrevlex`` -- default everywhere.
    * ``lex`` -- plain lexicographic on the ambient variable list.
    * ``block-elimination`` -- degrevlex on the variables listed in ``block``
      first, then degrevlex on the rest; any monomial meeting the block beats
      any monomial that avoids it, which is what elimination needs.
    * ``weighted-degrevlex`` -- nonnegative ``weights`` first, full degrevlex
      as tie-break so zero weights keep the order a well-order.
    """

    kind: OrderKind = OrderKind.DEGREVLEX
    block: tuple[int, ...] = ()
    weights: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind is OrderKind.WDEGREVLEX and any(w < 0 for w in self.weights):
            raise ValidationError("order weights must be nonnegative")

    def key(self) -> Callable[[Monomial], tuple]:
        """Sort key; larger key means larger monomial."""
        if self.kind is OrderKind.DEGREVLEX:
            return _drl_key
        if self.kind is OrderKind.LEX:
            return lambda m: m
        if self.kind is OrderKind.BLOCK:
            inside = frozenset(self.block)
            splits: dict[int, tuple[list[int], list[int]]] = {}  # nvars -> (block, rest)

            def block_key(m: Monomial):
                split = splits.get(len(m))
                if split is None:
                    n = range(len(m))
                    split = splits[len(m)] = ([i for i in n if i in inside],
                                              [i for i in n if i not in inside])
                first, rest = split
                return (_drl_key([m[i] for i in first]), _drl_key([m[i] for i in rest]))

            return block_key
        if self.kind is OrderKind.WDEGREVLEX:
            weights = self.weights

            def wdrl_key(m: Monomial):
                return (sum(w * e for w, e in zip(weights, m)), _drl_key(m))

            return wdrl_key
        raise ValidationError(f"unknown order kind {self.kind}")


DEGREVLEX = MonomialOrder(OrderKind.DEGREVLEX)
LEX = MonomialOrder(OrderKind.LEX)


def block_order(indexes: Iterable[int]) -> MonomialOrder:
    return MonomialOrder(OrderKind.BLOCK, block=tuple(sorted(indexes)))


def weighted_order(weights: Iterable[int]) -> MonomialOrder:
    """Weights first, degrevlex as tie-break.  Equal weights rank monomials
    exactly as degrevlex does, so they give ``DEGREVLEX`` itself: one order,
    one value, and ideals in either compare."""
    order = MonomialOrder(OrderKind.WDEGREVLEX, weights=tuple(weights))
    return DEGREVLEX if len(set(order.weights)) <= 1 else order


# ---------------------------------------------------------------------------
# Rings and polynomials
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class PolynomialRing:
    """Ambient polynomial ring: a field plus an ordered variable list.

    Equality is by value, so two rings over the same field with the same
    variable names are interchangeable; everything else raises
    RingMismatchError as early as possible.
    """

    field: FieldSpec
    variables: tuple[str, ...]

    def __post_init__(self):
        seen = set()
        for name in self.variables:
            if not _NAME_RE.fullmatch(name):
                raise ValidationError(f"bad variable name {name!r}")
            if name in seen:
                raise ValidationError(f"duplicate variable name {name!r}")
            seen.add(name)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, value) -> "Polynomial":
        c = self.field.coerce(value)
        return Polynomial(self, {(0,) * self.nvars: c} if c else {})

    def var(self, index: int) -> "Polynomial":
        e = [0] * self.nvars
        e[index] = 1
        return Polynomial(self, {tuple(e): self.field.coerce(1)})

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.var(i) for i in range(self.nvars))

    def monomial(self, expts: Monomial, coeff=1) -> "Polynomial":
        if len(expts) != self.nvars:
            raise RingMismatchError("exponent tuple has wrong length")
        if any(e < 0 for e in expts):
            raise ValidationError("monomial exponents must be nonnegative")
        c = self.field.coerce(coeff)
        return Polynomial(self, {tuple(expts): c} if c else {})

    def extend(self, new_names: Iterable[str]) -> "PolynomialRing":
        """Fresh ring with extra variables appended."""
        return PolynomialRing(self.field, self.variables + tuple(new_names))

    def fresh_name(self, stem: str) -> str:
        """A variable name not already used by this ring."""
        if stem not in self.variables:
            return stem
        i = 0
        while f"{stem}{i}" in self.variables:
            i += 1
        return f"{stem}{i}"

    def fresh_names(self, stem: str, count: int) -> list[str]:
        """``count`` distinct names ``stem1``, ``stem2``, ... that this ring
        does not use, skipping the ones it does."""
        taken = set(self.variables)
        out: list[str] = []
        i = 1
        while len(out) < count:
            name = f"{stem}{i}"
            if name not in taken:
                out.append(name)
                taken.add(name)
            i += 1
        return out

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(self, text)

    def __str__(self) -> str:
        return f"{self.field}[{', '.join(self.variables)}]"


class Polynomial:
    """Immutable sparse polynomial.  Never mutate ``terms`` after construction."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolynomialRing, terms: dict):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}
        self._hash = None

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Max total degree of a term; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def min_degree(self) -> int:
        return min((sum(m) for m in self.terms), default=-1)

    def leading_term(self, order: MonomialOrder = DEGREVLEX) -> tuple[Monomial, Coefficient]:
        """The order-maximal (monomial, coefficient) pair; error on zero."""
        if not self.terms:
            raise ValidationError("leading term of the zero polynomial")
        m = max(self.terms, key=order.key())
        return m, self.terms[m]

    def leading_monomial(self, order: MonomialOrder = DEGREVLEX) -> Monomial:
        return self.leading_term(order)[0]

    def sorted_terms(self, order: MonomialOrder = DEGREVLEX) -> list[tuple[Monomial, Coefficient]]:
        return [(m, self.terms[m]) for m in sorted(self.terms, key=order.key(), reverse=True)]

    def homogeneous_part(self, degree: int) -> "Polynomial":
        return Polynomial(self.ring, {m: c for m, c in self.terms.items() if sum(m) == degree})

    def is_homogeneous(self, weights: tuple[int, ...] | None = None) -> bool:
        w = weights or (1,) * self.ring.nvars
        degs = {sum(wi * e for wi, e in zip(w, m)) for m in self.terms}
        return len(degs) <= 1

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError(f"mixed rings: {self.ring} vs {other.ring}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        self._check(other)
        fld = self.ring.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = fld.add(out.get(m, 0), c)
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        fld = self.ring.field
        return Polynomial(self.ring, {m: fld.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        fld = self.ring.field
        if len(self.terms) > len(other.terms):
            big, small = self.terms, other.terms
        else:
            big, small = other.terms, self.terms
        out: dict = {}
        for m1, c1 in small.items():
            for m2, c2 in big.items():
                m = mono_mul(m1, m2)
                s = fld.add(out.get(m, 0), fld.mul(c1, c2))
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def scale(self, scalar) -> "Polynomial":
        c = self.ring.field.coerce(scalar)
        if not c:
            return self.ring.zero()
        fld = self.ring.field
        return Polynomial(self.ring, {m: fld.mul(c, v) for m, v in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValidationError("negative polynomial power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- structure maps ------------------------------------------------------

    def map_to(self, ring: PolynomialRing, positions: list[int]) -> "Polynomial":
        """Reindex into another ring; ``positions[i]`` is the target slot of variable i.

        All unnamed target exponents become 0; slots shared by several source
        variables accumulate (use only for embeddings and coordinate drops
        prepared by the caller).
        """
        out: dict = {}
        fld = ring.field
        for m, c in self.terms.items():
            e = [0] * ring.nvars
            for i, exp in enumerate(m):
                if exp:
                    e[positions[i]] += exp
            mono = tuple(e)
            s = fld.add(out.get(mono, 0), fld.coerce(c))
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return Polynomial(ring, out)

    # -- equality / hashing / printing ---------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                return self.terms == self.ring.constant(other).terms
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        return self.to_string(DEGREVLEX)

    def __repr__(self):
        return f"<{self} in {self.ring}>"

    def to_string(self, order: MonomialOrder = DEGREVLEX) -> str:
        """Canonical text form: descending terms, `^` powers, explicit `*`."""
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for m, c in self.sorted_terms(order):
            factors = [
                f"{self.ring.variables[i]}^{e}" if e > 1 else self.ring.variables[i]
                for i, e in enumerate(m)
                if e
            ]
            body = "*".join(factors)
            neg = c < 0 if self.ring.field.is_rationals else False
            mag = -c if neg else c
            if not body:
                piece = str(mag)
            elif mag == 1:
                piece = body
            else:
                piece = f"{mag}*{body}"
            if not chunks:
                chunks.append(f"-{piece}" if neg else piece)
            else:
                chunks.append(f"- {piece}" if neg else f"+ {piece}")
        return " ".join(chunks)


# ---------------------------------------------------------------------------
# Polynomial expression parser
# ---------------------------------------------------------------------------

# parentheses nest at most this deep: each level costs the recursive-descent
# parser four stack frames, so deeper input would hit Python's recursion limit
MAX_NESTING = 100

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\s*/\s*\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()]))"
)


class _Tokens:
    def __init__(self, text: str, line: int = 1, col_offset: int = 0):
        self.text = text
        self.line = line
        self.col_offset = col_offset
        self.pos = 0
        self.nesting = 0
        self.items: list[tuple[str, str, int]] = []  # (kind, value, col)
        while self.pos < len(text):
            m = _TOKEN_RE.match(text, self.pos)
            if not m or m.end() == self.pos:
                stray = text[self.pos:].lstrip()
                if not stray:
                    break
                col = col_offset + len(text) - len(stray) + 1
                raise ParseError(f"unexpected character {stray[0]!r}", line, col,
                                 ("number", "name", "operator"))
            kind = m.lastgroup or "op"
            value = m.group(kind)
            col = col_offset + m.start(kind) + 1
            self.items.append((kind, value, col))
            self.pos = m.end()
        self.index = 0

    def peek(self):
        return self.items[self.index] if self.index < len(self.items) else ("eof", "", self.col_offset + len(self.text) + 1)

    def next(self):
        item = self.peek()
        self.index += 1
        return item


def parse_polynomial(ring: PolynomialRing, text: str, line: int = 1, col_offset: int = 0) -> Polynomial:
    """Parse the canonical text form (and common variants) into a polynomial.

    Grammar: sums of products of powers; numbers are integers or integer
    fractions ``a/b``; ``*`` may be omitted between a coefficient and a name.
    """
    toks = _Tokens(text, line, col_offset)
    poly = _parse_sum(ring, toks)
    kind, value, col = toks.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {value!r}", line, col, ("+", "-", "end of expression"))
    return poly


def _parse_sum(ring: PolynomialRing, toks: _Tokens) -> Polynomial:
    acc = _parse_product(ring, toks, allow_sign=True)
    while True:
        kind, value, _ = toks.peek()
        if kind == "op" and value in "+-":
            toks.next()
            rhs = _parse_product(ring, toks, allow_sign=True)
            acc = acc + rhs if value == "+" else acc - rhs
        else:
            return acc


def _parse_product(ring: PolynomialRing, toks: _Tokens, allow_sign: bool = False) -> Polynomial:
    sign = 1
    if allow_sign:
        while True:
            kind, value, _ = toks.peek()
            if kind == "op" and value in "+-":
                toks.next()
                if value == "-":
                    sign = -sign
            else:
                break
    acc = _parse_power(ring, toks)
    while True:
        kind, value, _ = toks.peek()
        if kind == "op" and value == "*":
            toks.next()
            acc = acc * _parse_power(ring, toks)
        elif kind in ("name",) or (kind == "op" and value == "("):
            # implicit multiplication after a coefficient, e.g. "3x" or "2(x+y)"
            acc = acc * _parse_power(ring, toks)
        else:
            break
    return acc.scale(sign) if sign < 0 else acc


def _parse_power(ring: PolynomialRing, toks: _Tokens) -> Polynomial:
    base = _parse_atom(ring, toks)
    kind, value, _ = toks.peek()
    if kind == "op" and value == "^":
        toks.next()
        kind, value, col = toks.next()
        if kind != "number" or "/" in value:
            raise ParseError("exponent must be a nonnegative integer", toks.line, col,
                             ("nonnegative integer",))
        return base ** int(value)
    return base


def _parse_atom(ring: PolynomialRing, toks: _Tokens) -> Polynomial:
    kind, value, col = toks.next()
    if kind == "number":
        if "/" in value:
            num, den = (part.strip() for part in value.split("/"))
            if int(den) == 0:
                raise ParseError("zero denominator", toks.line, col, ("nonzero integer",))
            return ring.constant(Fraction(int(num), int(den)))
        return ring.constant(int(value))
    if kind == "name":
        if value not in ring.variables:
            raise ParseError(f"unknown variable {value!r}", toks.line, col, tuple(ring.variables))
        return ring.var(ring.variables.index(value))
    if kind == "op" and value == "(":
        if toks.nesting == MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING} levels",
                             toks.line, col, ())
        toks.nesting += 1
        inner = _parse_sum(ring, toks)
        toks.nesting -= 1
        kind, value, col = toks.next()
        if not (kind == "op" and value == ")"):
            raise ParseError("unbalanced parenthesis", toks.line, col, (")",))
        return inner
    raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of expression",
                     toks.line, col, ("number", "variable", "("))
