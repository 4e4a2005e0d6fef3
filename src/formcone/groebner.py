"""Buchberger engine: normal forms and reduced Groebner bases.

The same engine serves polynomial ideals and submodules of free modules;
internally every element is a map ``term -> coefficient``, where a term is
one int packing a position and a monomial (``_Codec``), ordered
position-over-term (position 0 greatest) with the caller's monomial order
underneath.  Ring polynomials are the rank-1 case.  Koszul cycles and
Koszul boundaries are one ``GraphBasis`` computation, and so are colons and
intersections, except those of monomial ideals by terms, which
``ideals.meet_of_colons`` reads off exponents.

Determinism contract: fixed generators plus a fixed order produce the
identical reduced basis (reduced bases are unique up to scaling, and output
is monic and sorted by leading term).

Cost notes: a term's int is laid out so that comparing two ints compares the
terms in the order (Bachmann-Schoenemann, ISSAC 1998): a vector's lead is its
``max``, a quotient monomial is the difference of two terms and multiplying
by it is a sum, a divisibility test is one subtraction and one mask, and
under DEGREVLEX an lcm takes a fixed number of integer operations whatever
the number of variables.  Public elements become term vectors only in
``_to_vec`` and return only in ``_from_vec``, through the codec's ``pack``
and ``unpack``, compiled once per codec with the variables unrolled.  A basis
the engine makes (``buchberger``, a graph basis's image, a colon kernel) is
born holding its run's monic vectors and lead index (``_born``), so no later
batch packs its generators; a basis listed from generators packs them once,
on first use.  Every field keeps a guard bit that a valid term leaves clear;
a product whose exponent outgrows its field sets it, and the computation is
redone with fields twice as wide (``_first_fit``), so the width bounds no
exponent.  Each basis run interreduces in a single pass, and updates
coefficients with one multiply and one add per term, reducing mod p only in
characteristic p.  Coefficients keep ``FieldSpec``'s format (over QQ an int
when integral, a Fraction otherwise), so conversion touches no coefficient.
Inside a run, basis elements over QQ are primitive integer vectors (an
all-int vector takes one gcd, and one already primitive is kept as it is),
and the S-polynomial is formed fraction-free,
lc(g) * m_f * f - lc(f) * m_g * g; the interreduction makes a vector monic
by exact division by its lead, none when the lead is 1.  Each half of a
graph basis is interreduced by itself.  A run grows one lead index (the divisor lookup of every reduction)
as its basis grows, and forms pairs by walking the lead index of the new
element's position only.  The chain criterion keeps, per element, the set of
partners whose pair is settled, and tests only the intersection of two such
sets instead of scanning the basis.  A single-term vector normalises to
coefficient 1 without gcd work.  A ``GraphBasis`` modulo entry given as a
``GroebnerBasis`` in the kernel's own order is a settled block: no pair is
formed inside it (a member's pair loop stops where its block starts), and the
chain criterion counts its elements as established partners of each other; a
plain list is never settled, since it need not be a Groebner basis.
``buchberger`` takes a ``settled`` basis in its own order the same way, so
extending a reduced basis by a few elements (an ideal's ``sum_with``, a
graded presentation's quotients) forms only the pairs those elements bring.
A settled block reads the basis's packed vectors, moved to its position by
one addition per term, unless they were packed at another width.  Each queued
pair carries the lcm of its leads, which the chain criterion and the
S-polynomial read.  Every ``normal_forms`` batch against a ``GroebnerBasis``
reuses its packed vectors and lead index (``normal_form`` is a batch of one).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul

from .errors import BudgetExceededError, RingMismatchError, ValidationError
from .rings import DEGREVLEX, MonomialOrder, OrderKind, Polynomial, PolynomialRing

DEFAULT_STEP_BUDGET = 10**6
_MIN_WIDTH = 8  # bits per field, below its guard bit, of a run's first attempt


class FreeModuleElement:
    """Element of a free module P^rank, one polynomial per position."""

    __slots__ = ("ring", "components")

    def __init__(self, ring: PolynomialRing, components):
        comps = tuple(components)
        for c in comps:
            if c.ring != ring:
                raise RingMismatchError("component from a different ring")
        self.ring = ring
        self.components = comps

    @property
    def rank(self) -> int:
        return len(self.components)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def dot(self, polys) -> Polynomial:
        acc = self.ring.zero()
        for c, p in zip(self.components, polys):
            acc = acc + c * p
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, FreeModuleElement)
            and self.ring == other.ring
            and self.components == other.components
        )

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis: monic generators, sorted by leading term."""

    generators: tuple
    order: MonomialOrder

    @cached_property
    def _shape(self):
        """(ring, rank, nonzero generators, codec, their term vectors, their
        lead index), computed on first use unless the engine set it
        (``_born``).

        Every later ``normal_forms`` batch reuses the packed generators: one
        int per term is smaller than the exponent tuple that the generator
        itself keys its term by.  Nothing mutates the stored vectors.
        """
        gens = tuple(g for g in self.generators if not g.is_zero())
        if not gens:
            return None, None, gens, None, None, None
        ring, rank = _common_shape(gens)
        packed = _first_fit(lambda codec: (codec, *_packed(gens, codec)),
                            self.order, ring.nvars, rank or 1)
        return (ring, rank, gens, *packed)


def _born(ring: PolynomialRing, rank: int | None, order: MonomialOrder, codec: _Codec,
          vecs: list[dict], leads: list[int]) -> GroebnerBasis:
    """The reduced basis of monic term vectors ``vecs`` (leads ``leads``,
    ascending) under ``codec``: its ``_shape`` is these vectors themselves,
    so no later batch packs its generators again."""
    gens = tuple(_from_vec(v, codec, ring, rank) for v in vecs)
    basis = GroebnerBasis(gens, order)
    basis.__dict__["_shape"] = (ring, rank, gens, codec, vecs, _lead_index(leads, codec))
    return basis


# ---------------------------------------------------------------------------
# Internal term representation
# ---------------------------------------------------------------------------

class _Overflow(Exception):
    """A term outgrew its fields; the computation is redone with wider ones."""


class _Codec:
    """The engine's terms for one order, number of variables, number of
    positions and field width: one int per (position, monomial).

    Fields of ``width`` value bits, each with a guard bit above it, are
    stacked lowest first; ``pack``, ``unpack`` and ``mono`` convert between
    exponent tuples and terms.  DEGREVLEX on x_1..x_n has the complements
    L - e_1, ..., L - e_n and the total degree on top; the weighted order
    adds its weight field above those; a block order stacks the DEGREVLEX
    fields of the block above those of the other variables; LEX has
    e_n, ..., e_1.  The position field, rank - 1 - position, sits on top.
    Comparing two ints is then comparing (-position, order.key()(m)).

    L (``limit``) is the largest exponent a term may carry: it keeps every
    sum field (a degree, a weight) below 2^width.  A valid term leaves
    every guard bit clear.  The map is affine in the exponents, so for
    terms u, v, w at one position with v | w, u + (w - v) packs u * (w / v),
    with a guard bit set if any field left its range.  Divisibility reads
    the exponent fields: v | w iff ``(key(v) - (w ^ flip)) & exps`` is 0,
    where ``flip`` turns LEX's fields into complements like the others and
    ``key`` also sets the guard bits of the sum fields, so that they
    borrow nothing.
    """

    def __init__(self, order: MonomialOrder, nvars: int, npos: int, width: int):
        n = range(nvars)

        def drl(group):  # DEGREVLEX on ``group``: complements, then the degree
            return [({i: -1}, i) for i in group] + [(dict.fromkeys(group, 1), None)]

        # (coefficient per variable, the variable of an exponent field), lowest first
        if order.kind is OrderKind.LEX:
            fields = [({i: 1}, i) for i in reversed(n)]
        elif order.kind is OrderKind.BLOCK:
            inside = set(order.block)
            fields = drl([i for i in n if i not in inside]) + drl([i for i in n if i in inside])
        else:
            fields = drl(n)
            if order.kind is OrderKind.WDEGREVLEX:
                fields.append((dict(zip(n, order.weights)), None))
        span = width + 1
        self.width, self.npos, self.pshift = width, npos, len(fields) * span
        self.fm = (1 << width) - 1
        self.limit = self.fm // max([1] + [sum(c.values()) for c, var in fields if var is None])
        self.complement = order.kind is not OrderKind.LEX
        self.guard = self.exps = self.flip = self.one = 0
        self.coefs, self.shifts = [0] * nvars, [0] * nvars
        for slot, (coefs, var) in enumerate(fields):
            shift = slot * span
            self.guard |= 1 << (shift + width)
            for i, c in coefs.items():
                self.coefs[i] += c << shift
            if var is not None:
                self.exps |= 1 << (shift + width)
                self.shifts[var] = shift
                if self.complement:
                    self.one += self.limit << shift
                else:
                    self.flip |= self.fm << shift
        self.free = self.guard ^ self.exps
        self.values = self.exps - (self.exps >> width)  # the value bits of the exponent fields
        # unrolled over the variables: pack maps exponent tuples to terms at an
        # origin, dropping any with an exponent above the limit; unpack maps
        # terms back, and mono reads one term's exponents
        xs = "".join(f"x{i}, " for i in n)
        packed = "".join(f"x{i} * {c} + " for i, c in enumerate(self.coefs))
        fits = " and ".join(f"x{i} <= {self.limit}" for i in n) or "True"
        top = f"{self.limit} - " if self.complement else ""
        exps = "".join(f"{top}(t >> {s} & {self.fm}), " for s in self.shifts)
        self.pack, self.unpack, self.mono = eval(
            f"(lambda terms, o: {{{packed}o: c for ({xs}), c in terms.items() if {fits}}},"
            f" lambda vec: {{({exps}): c for t, c in vec.items()}}, lambda t: ({exps}))")
        self.low = (1 << self.pshift) - 1
        self.lcm = self._lcm_unpacked
        if order.kind is OrderKind.DEGREVLEX and nvars:
            # exponent fields in slots 0..n-1, the degree in slot n
            self.lcm = self._lcm_drl
            self._ones = sum(1 << (i * span) for i in n)
            self._top = (nvars - 1) * span
            self._total = nvars * self.limit

    def origin(self, position: int) -> int:
        """The term of the monomial 1 at ``position``."""
        return ((self.npos - 1 - position) << self.pshift) + self.one

    def position(self, t: int) -> int:
        return self.npos - 1 - (t >> self.pshift)

    def key(self, t: int) -> int:
        """The divisor key of ``t`` (see the class docstring)."""
        return (t ^ self.flip) | self.free

    def _lcm_unpacked(self, a: int, b: int) -> tuple[int, int]:
        """(total degree, term) of the lcm of two terms at one position."""
        m = tuple(map(max, self.mono(a), self.mono(b)))
        return sum(m), (a & ~self.low) + sum(map(mul, m, self.coefs), self.one)

    def _lcm_drl(self, a: int, b: int) -> tuple[int, int]:
        """``_lcm_unpacked`` for DEGREVLEX, on all fields at once: the lcm's
        complements are the fieldwise minimum of the two, and its degree is
        n * limit minus their sum, which no partial sum lets carry."""
        values = self.values
        ac, bc = a & values, b & values
        ge = ((ac | self.exps) - bc) & self.exps  # guard bit kept where a's field >= b's
        least = ac ^ ((ac ^ bc) & (ge - (ge >> self.width)))
        degree = self._total - ((least * self._ones) >> self._top & self.fm)
        return degree, (a & ~self.low) | (degree << (self._top + self.width + 1)) | least


@lru_cache(maxsize=256)
def _codec(order: MonomialOrder, nvars: int, npos: int, width: int) -> _Codec:
    return _Codec(order, nvars, npos, width)


def _first_fit(attempt, order: MonomialOrder, nvars: int, npos: int, width: int = _MIN_WIDTH):
    """``attempt(codec)`` under the narrowest fields, from ``width`` up by
    doubling, in which no term it makes overflows."""
    while True:
        try:
            return attempt(_codec(order, nvars, npos, width))
        except _Overflow:
            width *= 2


def _to_vec(element, codec: _Codec, position: int = 0) -> dict:
    """Term vector of a public element, its components placed from ``position``
    on; an exponent above the codec's limit overflows."""
    comps = (element,) if isinstance(element, Polynomial) else element.components
    vec = {}
    for p, comp in enumerate(comps, position):
        packed = codec.pack(comp.terms, codec.origin(p))
        if len(packed) < len(comp.terms):
            raise _Overflow
        vec.update(packed)
    return vec


def _from_vec(vec: dict, codec: _Codec, ring: PolynomialRing, rank: int | None):
    """Public element from a term vector."""
    if rank is None:
        return Polynomial(ring, codec.unpack(vec))
    comps = [dict() for _ in range(rank)]
    mono = codec.mono
    for t, c in vec.items():
        comps[codec.position(t)][mono(t)] = c
    return FreeModuleElement(ring, tuple(Polynomial(ring, d) for d in comps))


def _sub_scaled(vec: dict, other: dict, q: int, q_coeff, fld, guard: int) -> None:
    """In place: vec -= q_coeff * x^q * other, for the quotient monomial q
    (a difference of two terms); a product that sets a guard bit overflows."""
    p = fld.characteristic
    neg = -q_coeff
    for s, c in other.items():
        t = s + q
        if t & guard:
            raise _Overflow
        v = vec.get(t, 0) + neg * c
        if p:
            v %= p
        if v:
            vec[t] = v
        else:
            vec.pop(t, None)


def _normalize(vec: dict, fld) -> dict:
    """Scale to a canonical representative: over QQ the primitive integer
    vector (as ints) with a positive lead, over F_p the monic one.  For a
    single term both are coefficient 1.  A vector that is canonical already
    is returned itself."""
    if len(vec) == 1:
        return dict.fromkeys(vec, 1)
    lc = vec[max(vec)]
    if fld.is_rationals:
        try:
            num = gcd(*vec.values())
        except TypeError:  # a Fraction among the coefficients: clear the denominators
            den = lcm(*(c.denominator for c in vec.values()))
            vec = {t: c.numerator * (den // c.denominator) for t, c in vec.items()}
            num = gcd(*vec.values())
        num = -num if lc < 0 else num
        return vec if num == 1 else {t: c // num for t, c in vec.items()}
    if lc == 1:
        return vec
    inv = fld.inv(lc)
    return {t: fld.mul(c, inv) for t, c in vec.items()}


def _lead_index(leads, codec: _Codec) -> dict:
    """position field -> [(divisor key, lead, basis index)], the divisor
    lookup of ``_reduce_full``."""
    by_pos: dict[int, list[tuple]] = {}
    for idx, t in enumerate(leads):
        by_pos.setdefault(t >> codec.pshift, []).append((codec.key(t), t, idx))
    return by_pos


def _packed(gens, codec: _Codec) -> tuple[list[dict], dict]:
    """Term vectors of nonzero ``gens`` and their lead index."""
    vecs = [_to_vec(g, codec) for g in gens]
    return vecs, _lead_index([max(v) for v in vecs], codec)


def _reduce_full(vec: dict, basis, by_pos: dict, codec: _Codec, fld) -> dict:
    """Full normal form: no remaining term is divisible by a lead in ``by_pos``.

    The updates sum raw products (over QQ an integral sum may be a
    Fraction); each remainder term is coerced to the field's format once."""
    flip, exps, pshift, guard = codec.flip, codec.exps, codec.pshift, codec.guard
    work = dict(vec)
    remainder: dict = {}
    while work:
        t = max(work)
        tk = t ^ flip
        for key, lead, idx in by_pos.get(t >> pshift, ()):
            if not (key - tk) & exps:
                break
        else:
            remainder[t] = fld.coerce(work.pop(t))
            continue
        g = basis[idx]
        _sub_scaled(work, g, t - lead, fld.div(work[t], g[lead]), fld, guard)
    return remainder


def _spoly(f: dict, g: dict, lf: int, lg: int, m: int, fld, guard: int) -> dict:
    """Fraction-free S-polynomial lc(g) * m_f * f - lc(f) * m_g * g, with
    m = lcm(lf, lg).

    It is lc(f) * lc(g) times the monic S-polynomial, so it reduces to zero
    exactly when that one does; the engine's F_p elements are monic, where the
    two coincide.
    """
    out = dict()
    _sub_scaled(out, f, m - lf, -g[lg], fld, guard)
    _sub_scaled(out, g, m - lg, f[lf], fld, guard)
    return out


def _engine(vectors: list[dict], codec: _Codec, fld, step_budget: int, rank_one: bool,
            settled=()) -> tuple[list[dict], list[int]]:
    """Buchberger with normal (degree-queue) pair selection; not interreduced.

    Product criterion only in rank one (it is unsound for modules); chain
    criterion only against pairs whose S-polynomial reduction is already
    established, which avoids the classical circular-skip pitfall.
    ``partners[i]`` holds every k whose pair with i is established, so a
    popped pair (i, j) is skipped iff some k in ``partners[i] & partners[j]``
    has a lead dividing lcm(lead i, lead j).  This is the full scan over all
    k other than i and j with the same lead position: pairs only ever join
    elements of one lead position, so every partner shares it; a queued pair
    is established only after it is popped, so neither i nor j is in the
    intersection; and the test is existential, so set order is irrelevant.
    Pairs pop by the lcm's total degree, then by the lcm in the order.
    ``step_budget`` bounds the S-polynomial reductions; pairs either
    criterion skips are not counted.

    ``settled`` lists (start, stop) index ranges of ``vectors``, which then
    holds no zero vector.  Each range is a *settled block*: a Groebner basis
    in ``order`` whose elements share one position.  Every pair inside a
    block reduces to zero over the block itself, so no such pair is formed,
    and the chain criterion counts the elements of a block as established
    partners of each other: a popped pair (i, j) with i in block B also
    looks for k in ``partners[j] & B``, and likewise with i and j swapped.
    """
    basis = [_normalize(v, fld) for v in vectors if v]
    leads = [max(v) for v in basis]
    keys = [codec.key(t) for t in leads]
    by_pos = _lead_index(leads, codec)
    flip, exps, pshift, low, one, guard = (codec.flip, codec.exps, codec.pshift, codec.low,
                                           codec.one, codec.guard)
    lcm_of = codec.lcm
    blocks: list = [None] * len(basis)
    first = list(range(len(basis)))  # where each element's settled block starts
    for start, stop in settled:
        blocks[start:stop] = [frozenset(range(start, stop))] * (stop - start)
        first[start:stop] = [start] * (stop - start)

    heap: list = []
    partners: list[set[int]] = [set() for _ in basis]

    def establish(i: int, j: int):
        partners[i].add(j)
        partners[j].add(i)

    def push_pairs(j: int):
        lj = leads[j]
        mono_j = len(basis[j]) == 1
        before = first[j]  # the lists run in index order: what follows is j or its block
        for _, li, i in by_pos[lj >> pshift]:
            if i >= before:
                break  # settled: a pair inside a block reduces to zero within it
            if mono_j and len(basis[i]) == 1:
                establish(i, j)  # S-polynomial of two terms is identically zero
                continue
            degree, m = lcm_of(li, lj)
            if rank_one and (li + lj - m) & low == one:
                establish(i, j)  # coprime leads (their gcd is 1): reduces to zero
                continue
            heapq.heappush(heap, (degree, m, i, j))

    for j in range(len(basis)):
        push_pairs(j)

    steps = 0
    while heap:
        _, m, i, j = heapq.heappop(heap)
        common = partners[i] & partners[j]
        if blocks[i] is not None:
            common |= partners[j] & blocks[i]
        if blocks[j] is not None:
            common |= partners[i] & blocks[j]
        mk = m ^ flip
        if any(not (keys[k] - mk) & exps for k in common):
            continue
        steps += 1
        if steps > step_budget:
            raise BudgetExceededError(
                f"pair-reduction budget {step_budget} exhausted; raise step_budget"
            )
        s = _spoly(basis[i], basis[j], leads[i], leads[j], m, fld, guard)
        r = _reduce_full(s, basis, by_pos, codec, fld)
        establish(i, j)
        if r:
            r = _normalize(r, fld)
            t = max(r)
            keys.append(codec.key(t))
            by_pos.setdefault(t >> pshift, []).append((keys[-1], t, len(basis)))
            basis.append(r)
            leads.append(t)
            partners.append(set())
            blocks.append(None)
            first.append(len(basis) - 1)
            push_pairs(len(basis) - 1)
    return basis, leads


def _interreduce(basis: list[dict], leads: list[int], codec: _Codec,
                 fld) -> tuple[list[dict], list[int]]:
    """Reduced basis from a Groebner basis, with its leads: monic, sorted by
    ascending lead.

    Keeps the elements with minimal leads, then reduces each tail against
    all of them in one pass.  A tail term lies below its own lead, so no
    multiple of that lead divides it; no lead is divisible by another, so
    reduction never changes a lead; every tail is then irreducible against
    the final leads, and a second pass would change nothing.
    """
    flip, exps, pshift = codec.flip, codec.exps, codec.pshift
    minimal: list[dict] = []
    min_leads: list[int] = []
    by_pos: dict[int, list[tuple]] = {}
    for i in sorted(range(len(basis)), key=leads.__getitem__):
        t = leads[i]
        tk = t ^ flip
        at = by_pos.setdefault(t >> pshift, [])
        if not any(not (key - tk) & exps for key, _, _ in at):
            at.append((codec.key(t), t, len(minimal)))
            minimal.append(basis[i])
            min_leads.append(t)
    monic = []
    for v, lead in zip(minimal, min_leads):
        lc = v[lead]
        r = {lead: lc}
        r.update(_reduce_full({t: c for t, c in v.items() if t != lead}, minimal, by_pos,
                              codec, fld))
        monic.append(r if lc == 1 else {t: fld.div(c, lc) for t, c in r.items()})
    return monic, min_leads


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

def _common_shape(elements):
    """(ring, rank) of a nonempty homogeneous list; rank None marks ring polynomials."""
    ring = None
    rank = None
    for e in elements:
        r = e.ring
        k = None if isinstance(e, Polynomial) else e.rank
        if ring is None:
            ring, rank = r, k
        elif ring != r or rank != k:
            raise RingMismatchError("mixed ambients in generator list")
    return ring, rank


def _settled_vecs(basis: GroebnerBasis, codec: _Codec, position: int = 0) -> list[dict]:
    """Term vectors under ``codec`` of the nonzero generators of ``basis``
    (in the codec's order), placed from ``position`` on: its packed vectors
    moved to that position when they were packed at the codec's width, else
    packed afresh."""
    _, _, gens, own, vecs, _ = basis._shape
    if not gens:
        return []
    if own.width != codec.width:
        return [_to_vec(g, codec, position) for g in gens]
    shift = (codec.npos - own.npos - position) << codec.pshift
    return vecs if not shift else [{t + shift: c for t, c in v.items()} for v in vecs]


def buchberger(gens, order: MonomialOrder = DEGREVLEX,
               step_budget: int = DEFAULT_STEP_BUDGET,
               settled: GroebnerBasis | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal/submodule spanned by ``gens`` and
    the generators of ``settled``.

    A ``settled`` basis in ``order`` is a settled block of the engine, as a
    ``GraphBasis`` modulo entry is: no pair inside it is formed, so extending
    a known basis by a few elements costs only the pairs they bring.  With
    nothing to add it is the answer.  One in another order counts as plain
    generators.  The result holds the run's term vectors (``_born``).
    """
    gens = [g for g in gens if not g.is_zero()]
    block = None
    if settled is not None:
        if settled.order != order:
            gens = list(settled.generators) + gens
        elif not gens:
            return settled
        else:
            block = settled
    elements = gens if block is None else list(block.generators) + gens
    if not elements:
        return GroebnerBasis((), order)
    ring, rank = _common_shape(elements)
    fld = ring.field

    def attempt(codec):
        vecs = [] if block is None else _settled_vecs(block, codec)
        blocks = [(0, len(vecs))] if vecs else ()
        vecs = vecs + [_to_vec(g, codec) for g in gens]
        run = _engine(vecs, codec, fld, step_budget, rank in (None, 1), blocks)
        return _born(ring, rank, order, codec, *_interreduce(*run, codec, fld))

    return _first_fit(attempt, order, ring.nvars, rank or 1)


def normal_forms(elements, basis: GroebnerBasis):
    """Remainders of full division of each of ``elements`` by ``basis``,
    yielded lazily and in order (same ambient, same order).

    The basis is packed once, on its first use (``GroebnerBasis._shape``);
    an element with an exponent too large for its fields is reduced against
    the basis packed wider.  An empty basis yields the elements unchanged.
    """
    ring, rank, gens, codec, vecs, by_pos = basis._shape
    if not gens:
        yield from elements
        return

    def reduced(element, codec, vecs, by_pos):
        return _from_vec(_reduce_full(_to_vec(element, codec), vecs, by_pos, codec, ring.field),
                         codec, ring, rank)

    for element in elements:
        if element.ring != ring:
            raise RingMismatchError("element and basis live in different rings")
        e_rank = None if isinstance(element, Polynomial) else element.rank
        if e_rank != rank:
            raise RingMismatchError("element and basis have different ranks")
        try:
            out = reduced(element, codec, vecs, by_pos)
        except _Overflow:
            out = _first_fit(lambda wide: reduced(element, wide, *_packed(gens, wide)),
                             basis.order, ring.nvars, rank or 1, codec.width * 2)
        yield out


def normal_form(element, basis: GroebnerBasis):
    """Remainder of full division of ``element`` by ``basis`` (same ambient, same order)."""
    return next(normal_forms((element,), basis))


class GraphBasis:
    """Kernel and image of P^k -> (+)_j P/M_j, e_i -> column i, from one basis.

    ``modulo`` is empty (plain syzygies) or lists, for each of the r
    positions of the columns, M_j as a list of generators or as a
    ``GroebnerBasis``; one in ``order`` itself is a settled block of the
    engine, read off its packed vectors, and both halves are the same either
    way.  Method: one module
    Groebner basis of the graph vectors ``column_i (+) e_i`` and ``g * e_j``
    inside P^(r+k) under position-over-term with the original positions
    dominating; each half is interreduced by itself when first asked for.
    An element with its lead at position r or later has no term below r, so
    no other lead divides any of its terms: these elements alone decide which
    are minimal and what their tails reduce to; shifted down by r they are
    the reduced ``kernel`` (``kernel_ideal`` for one column).  The others,
    projected below r, keep their leads and span span(columns) + (+)_j M_j
    e_j: a Groebner basis of it, which interreduces to its reduced basis, the
    ``image`` (Greuel-Pfister 2.8).  Both bases are born packed.
    """

    def __init__(self, columns, order: MonomialOrder = DEGREVLEX,
                 step_budget: int = DEFAULT_STEP_BUDGET, modulo=()):
        cols = list(columns)
        if not cols:
            raise ValidationError("a graph basis needs at least one column")
        ring, rank = _common_shape(cols)
        r = 1 if rank is None else rank
        if modulo and len(modulo) != r:
            raise ValidationError(f"modulo lists {len(modulo)} submodules for {r} positions")
        blocks = []
        for entry in modulo:
            is_basis = isinstance(entry, GroebnerBasis)
            gens = entry.generators if is_basis else entry
            if any(g.ring != ring for g in gens):
                raise RingMismatchError("modulo generator from a different ring")
            blocks.append(entry if is_basis and entry.order == order
                          else [g for g in gens if not g.is_zero()])
        self._order, self._budget = order, step_budget
        self._ring, self._rank, self._r, self._cols, self._blocks = ring, rank, r, cols, blocks
        self._run = _first_fit(self._graph_run, order, ring.nvars, r + len(cols))

    def _graph_run(self, codec: _Codec):
        """(codec, basis, leads) of the graph basis under ``codec``."""
        r, ring = self._r, self._ring
        one = ring.field.coerce(1)
        graph = [{**_to_vec(col, codec), codec.origin(r + i): one}
                 for i, col in enumerate(self._cols)]
        settled = []
        for j, block in enumerate(self._blocks):
            start = len(graph)
            if isinstance(block, GroebnerBasis):
                graph += _settled_vecs(block, codec, j)
                settled.append((start, len(graph)))
            else:
                graph += [_to_vec(g, codec, j) for g in block]
        return codec, *_engine(graph, codec, ring.field, self._budget, False, settled)

    def _half(self, kernel: bool) -> tuple:
        """(codec, vectors, leads) of the reduced kernel or image half, under
        the codec of its own rank: the kernel's positions r.. of the graph
        have the fields of its own positions 0.., and the image's positions
        are shifted up by the number of columns.  An overflow in the
        interreduction reruns the basis wider."""
        codec, basis, leads = self._run
        k = len(self._cols)
        split = k << codec.pshift  # terms at positions below r lie above it
        kept = [i for i, t in enumerate(leads) if (t < split) == kernel]
        off = 0 if kernel else split  # the image keeps its terms above it, moved down
        vecs = [{t - off: c for t, c in basis[i].items() if t >= off} for i in kept]
        try:
            out = _interreduce(vecs, [leads[i] - off for i in kept], codec, self._ring.field)
        except _Overflow:
            self._run = _first_fit(self._graph_run, self._order, self._ring.nvars,
                                   codec.npos, codec.width * 2)
            return self._half(kernel)
        return (_codec(self._order, self._ring.nvars, k if kernel else self._r, codec.width),
                *out)

    @cached_property
    def kernel(self) -> list[FreeModuleElement]:
        codec, vecs, _ = self._half(True)
        return [_from_vec(v, codec, self._ring, len(self._cols)) for v in vecs]

    @cached_property
    def kernel_ideal(self) -> GroebnerBasis:
        """The kernel of a one-column map, an ideal of P, as its reduced
        basis (the polynomials of ``kernel``), holding the run's vectors."""
        if len(self._cols) != 1:
            raise ValidationError("an ideal kernel needs exactly one column")
        return _born(self._ring, None, self._order, *self._half(True))

    @cached_property
    def image(self) -> GroebnerBasis:
        return _born(self._ring, self._rank, self._order, *self._half(False))


def syzygy_basis(columns, order: MonomialOrder = DEGREVLEX,
                 step_budget: int = DEFAULT_STEP_BUDGET,
                 modulo=()) -> list[FreeModuleElement]:
    """Reduced basis of the kernel of P^k -> (+)_j P/M_j sending e_i to column i:
    the kernel half of ``GraphBasis``, or none for no columns.  Colons and
    intersections (but for the monomial ones), Koszul cycles and, as the
    image half, Koszul boundaries are all this one computation."""
    cols = list(columns)
    return GraphBasis(cols, order, step_budget, modulo).kernel if cols else []
