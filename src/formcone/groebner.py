"""Buchberger engine: normal forms and reduced Groebner bases.

The same engine serves polynomial ideals and submodules of free modules;
internally every element is a map ``(position, monomial) -> coefficient``
ordered position-over-term (position 0 greatest) with the caller's monomial
order underneath.  Ring polynomials are the rank-1 case.  Colons, intersections,
Koszul cycles and Koszul boundaries are all one ``GraphBasis`` computation.

Determinism contract: fixed generators plus a fixed order produce the
identical reduced basis (reduced bases are unique up to scaling, and output
is monic and sorted by leading term).

Cost notes: each basis run computes a term's order key once (a memo local
to the run), interreduces in a single pass, and updates coefficients with
one multiply and one add per term, reducing mod p only in characteristic p.
Over QQ the engine holds integer values as Python ints (``_to_vec``) and
turns them back into Fractions only at the public boundary (``_from_vec``):
basis elements are primitive integer vectors, and the S-polynomial is formed
fraction-free, lc(g) * m_f * f - lc(f) * m_g * g.  Each half of a graph
basis is interreduced by itself.  A run grows one lead index (the
divisor lookup of every reduction) as its basis grows, and forms pairs by
walking the lead index of the new element's position only.  The chain
criterion keeps, per element, the set of partners whose pair is settled, and
tests only the intersection of two such sets instead of scanning the basis.
A single-term vector normalises to coefficient 1 without gcd work.  A
``GraphBasis`` modulo entry given as a ``GroebnerBasis`` in the kernel's own
order is a settled block: no pair is formed inside it, and the chain
criterion counts its elements as established partners of each other; a plain
list is never settled, since it need not be a Groebner basis.  A
``GroebnerBasis`` builds the lead index of its generators once;
``normal_form`` converts the generators to term vectors per call and keeps
none, which keeps long-lived bases small.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import BudgetExceededError, RingMismatchError, ValidationError
from .rings import (
    DEGREVLEX,
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

DEFAULT_STEP_BUDGET = 10**6


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
        """(ring, rank, nonzero generators, their lead index), computed on first use.

        The term vectors are deliberately not kept: stored beside every
        cached basis they raise peak memory more than they save time.
        """
        gens = tuple(g for g in self.generators if not g.is_zero())
        if not gens:
            return None, None, gens, {}
        ring, rank = _common_shape(gens)
        key = _term_key(self.order)
        return ring, rank, gens, _lead_index([_lead(_to_vec(g), key) for g in gens])


# ---------------------------------------------------------------------------
# Internal vector representation
# ---------------------------------------------------------------------------

def _to_vec(element) -> dict:
    """Term vector of a public element; integer-valued Fractions become ints."""
    if isinstance(element, Polynomial):
        return {(0, m): c.numerator if c.denominator == 1 else c
                for m, c in element.terms.items()}
    return {
        (i, m): c.numerator if c.denominator == 1 else c
        for i, comp in enumerate(element.components)
        for m, c in comp.terms.items()
    }


def _from_vec(vec: dict, ring: PolynomialRing, rank: int | None, shift: int = 0):
    """Public element from a term vector; ``shift`` is taken off every position.

    Over QQ every coefficient becomes a Fraction again, as ``Polynomial`` holds.
    """
    if ring.field.is_rationals:
        vec = {t: Fraction(c) if type(c) is int else c for t, c in vec.items()}
    if rank is None:
        return Polynomial(ring, {m: c for (_, m), c in vec.items()})
    comps = [dict() for _ in range(rank)]
    for (p, m), c in vec.items():
        comps[p - shift][m] = c
    return FreeModuleElement(ring, tuple(Polynomial(ring, d) for d in comps))


def _term_key(order: MonomialOrder):
    """Sort key on ``(position, monomial)`` terms, memoised for one basis run.

    The memo lives in the returned closure, so it is dropped with the run.
    """
    mono_key = order.key()
    memo: dict = {}

    def key(term):
        k = memo.get(term)
        if k is None:
            k = memo[term] = (-term[0], mono_key(term[1]))
        return k

    return key


def _lead(vec: dict, key):
    return max(vec, key=key)


def _sub_scaled(vec: dict, other: dict, q_mono, q_coeff, fld) -> None:
    """In place: vec -= q_coeff * x^q_mono * other."""
    p = fld.characteristic
    neg = -q_coeff
    for (pos, m), c in other.items():
        t = (pos, mono_mul(m, q_mono))
        s = vec.get(t, 0) + neg * c
        if p:
            s %= p
        if s:
            vec[t] = s
        else:
            vec.pop(t, None)


def _normalize(vec: dict, key, fld) -> dict:
    """Scale to a canonical representative: over QQ the primitive integer
    vector (as ints) with a positive lead, over F_p the monic one.  For a
    single term both are coefficient 1."""
    if len(vec) == 1:
        return dict.fromkeys(vec, 1)
    if fld.is_rationals:
        den = lcm(*(c.denominator for c in vec.values()))
        num = gcd(*(c.numerator * (den // c.denominator) for c in vec.values()))
        if vec[_lead(vec, key)] < 0:
            num = -num
        return {t: c.numerator * (den // c.denominator) // num for t, c in vec.items()}
    inv = fld.inv(vec[_lead(vec, key)])
    return {t: fld.mul(c, inv) for t, c in vec.items()}


def _lead_index(leads) -> dict:
    """position -> [(lead monomial, basis index)], the divisor lookup of ``_reduce_full``."""
    by_pos: dict[int, list[tuple]] = {}
    for idx, (p, m) in enumerate(leads):
        by_pos.setdefault(p, []).append((m, idx))
    return by_pos


def _reduce_full(vec: dict, basis, by_pos: dict, key, fld) -> dict:
    """Full normal form: no remaining term is divisible by a lead in ``by_pos``."""
    work = dict(vec)
    remainder: dict = {}
    while work:
        t = _lead(work, key)
        pos, mono = t
        hit = None
        for lead_mono, idx in by_pos.get(pos, ()):
            if mono_divides(lead_mono, mono):
                hit = (lead_mono, idx)
                break
        if hit is None:
            remainder[t] = work.pop(t)
            continue
        lead_mono, idx = hit
        g = basis[idx]
        q_mono = mono_div(mono, lead_mono)
        q_coeff = fld.div(work[t], g[(pos, lead_mono)])
        _sub_scaled(work, g, q_mono, q_coeff, fld)
    return remainder


def _spoly(f: dict, g: dict, lf, lg, key, fld) -> dict:
    """Fraction-free S-polynomial lc(g) * m_f * f - lc(f) * m_g * g.

    It is lc(f) * lc(g) times the monic S-polynomial, so it reduces to zero
    exactly when that one does; the engine's F_p elements are monic, where the
    two coincide.
    """
    (_, mf), (_, mg) = lf, lg
    m = mono_lcm(mf, mg)
    out = dict()
    _sub_scaled(out, f, mono_div(m, mf), -g[lg], fld)
    _sub_scaled(out, g, mono_div(m, mg), f[lf], fld)
    return out


def _engine(vectors: list[dict], key, fld, step_budget: int, rank_one: bool,
            settled=()) -> tuple[list[dict], list]:
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
    ``step_budget`` bounds the S-polynomial reductions; pairs either
    criterion skips are not counted.  The caller passes the term key, so one
    memo serves the whole run and the caller's interreduction of its result.

    ``settled`` lists (start, stop) index ranges of ``vectors``, which then
    holds no zero vector.  Each range is a *settled block*: a Groebner basis
    in ``order`` whose elements share one position.  Every pair inside a
    block reduces to zero over the block itself, so no such pair is formed,
    and the chain criterion counts the elements of a block as established
    partners of each other: a popped pair (i, j) with i in block B also
    looks for k in ``partners[j] & B``, and likewise with i and j swapped.
    """
    basis = [_normalize(v, key, fld) for v in vectors if v]
    leads = [_lead(v, key) for v in basis]
    by_pos = _lead_index(leads)
    blocks: list = [None] * len(basis)
    for start, stop in settled:
        blocks[start:stop] = [frozenset(range(start, stop))] * (stop - start)

    heap: list = []
    partners: list[set[int]] = [set() for _ in basis]

    def establish(i: int, j: int):
        partners[i].add(j)
        partners[j].add(i)

    def push_pairs(j: int):
        pj, mj = leads[j]
        mono_j = len(basis[j]) == 1
        block_j = blocks[j]
        for mi, i in by_pos[pj]:
            if i == j:
                break
            if block_j is not None and i in block_j:
                continue  # settled: the pair reduces to zero within its block
            if mono_j and len(basis[i]) == 1:
                establish(i, j)  # S-polynomial of two terms is identically zero
                continue
            lcm = mono_lcm(mi, mj)
            if rank_one and lcm == mono_mul(mi, mj):
                establish(i, j)  # coprime leads: S-polynomial reduces to zero
                continue
            heapq.heappush(heap, (sum(lcm), key((pj, lcm)), i, j))

    for j in range(len(basis)):
        push_pairs(j)

    steps = 0
    while heap:
        _, _, i, j = heapq.heappop(heap)
        common = partners[i] & partners[j]
        if blocks[i] is not None:
            common |= partners[j] & blocks[i]
        if blocks[j] is not None:
            common |= partners[i] & blocks[j]
        if common:
            lcm = mono_lcm(leads[i][1], leads[j][1])
            if any(mono_divides(leads[k][1], lcm) for k in common):
                continue
        steps += 1
        if steps > step_budget:
            raise BudgetExceededError(
                f"pair-reduction budget {step_budget} exhausted; raise step_budget"
            )
        s = _spoly(basis[i], basis[j], leads[i], leads[j], key, fld)
        r = _reduce_full(s, basis, by_pos, key, fld)
        establish(i, j)
        if r:
            r = _normalize(r, key, fld)
            p, m = _lead(r, key)
            by_pos.setdefault(p, []).append((m, len(basis)))
            basis.append(r)
            leads.append((p, m))
            partners.append(set())
            blocks.append(None)
            push_pairs(len(basis) - 1)
    return basis, leads


def _interreduce(basis: list[dict], leads: list, key, fld) -> list[dict]:
    """Reduced basis from a Groebner basis: monic, sorted by ascending lead.

    Keeps the elements with minimal leads, then reduces each tail against
    all of them in one pass.  A tail term lies below its own lead, so no
    multiple of that lead divides it; no lead is divisible by another, so
    reduction never changes a lead; every tail is then irreducible against
    the final leads, and a second pass would change nothing.
    """
    order_ix = sorted(range(len(basis)), key=lambda i: key(leads[i]))
    minimal: list[dict] = []
    min_leads: list = []
    for i in order_ix:
        if not any(p == leads[i][0] and mono_divides(m, leads[i][1]) for p, m in min_leads):
            minimal.append(basis[i])
            min_leads.append(leads[i])
    by_pos = _lead_index(min_leads)
    monic = []
    for v, lead in zip(minimal, min_leads):
        r = {lead: v[lead]}
        r.update(_reduce_full({t: c for t, c in v.items() if t != lead}, minimal, by_pos,
                              key, fld))
        inv = fld.inv(r[lead])
        monic.append({t: fld.mul(c, inv) for t, c in r.items()})
    return monic


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


def buchberger(gens, order: MonomialOrder = DEGREVLEX,
               step_budget: int = DEFAULT_STEP_BUDGET) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal/submodule spanned by ``gens``."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return GroebnerBasis((), order)
    ring, rank = _common_shape(gens)
    vecs = [_to_vec(g) for g in gens]
    key = _term_key(order)
    out = _interreduce(*_engine(vecs, key, ring.field, step_budget, rank_one=rank in (None, 1)),
                       key, ring.field)
    return GroebnerBasis(tuple(_from_vec(v, ring, rank) for v in out), order)


def normal_form(element, basis: GroebnerBasis):
    """Remainder of full division of ``element`` by ``basis`` (same ambient, same order)."""
    ring, rank, gens, by_pos = basis._shape
    if not gens:
        return element
    if element.ring != ring:
        raise RingMismatchError("element and basis live in different rings")
    e_rank = None if isinstance(element, Polynomial) else element.rank
    if e_rank != rank:
        raise RingMismatchError("element and basis have different ranks")
    r = _reduce_full(_to_vec(element), [_to_vec(g) for g in gens], by_pos,
                     _term_key(basis.order), ring.field)
    return _from_vec(r, ring, rank)


class GraphBasis:
    """Kernel and image of P^k -> (+)_j P/M_j, e_i -> column i, from one basis.

    ``modulo`` is empty (plain syzygies) or lists, for each of the r
    positions of the columns, M_j as a list of generators or as a
    ``GroebnerBasis``; one in ``order`` itself is a settled block of the
    engine, and both halves are the same either way.  Method: one module
    Groebner basis of the graph vectors ``column_i (+) e_i`` and ``g * e_j``
    inside P^(r+k) under position-over-term with the original positions
    dominating; each half is interreduced by itself when first asked for.
    An element with its lead at position r or later has no term below r, so
    no other lead divides any of its terms: these elements alone decide which
    are minimal and what their tails reduce to; shifted down by r they are
    the reduced ``kernel``.  The others, projected below r, keep their leads
    and span span(columns) + (+)_j M_j e_j: a Groebner basis of it, which
    interreduces to its reduced basis, the ``image`` (Greuel-Pfister 2.8).
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
        one, origin = ring.field.coerce(1), (0,) * ring.nvars
        graph = [{**_to_vec(col), (r + i, origin): one} for i, col in enumerate(cols)]
        settled = []
        for j, entry in enumerate(modulo):
            is_basis = isinstance(entry, GroebnerBasis)
            gens = entry.generators if is_basis else entry
            if any(g.ring != ring for g in gens):
                raise RingMismatchError("modulo generator from a different ring")
            start = len(graph)
            graph += [{(j, m): c for m, c in g.terms.items()} for g in gens if not g.is_zero()]
            if is_basis and entry.order == order:
                settled.append((start, len(graph)))
        self._key, self._order = _term_key(order), order
        self._ring, self._rank, self._r, self._k = ring, rank, r, len(cols)
        self._run = _engine(graph, self._key, ring.field, step_budget, False, settled)

    def _half(self, kernel: bool) -> list[dict]:
        basis, leads = self._run
        kept = [i for i, (p, _) in enumerate(leads) if (p >= self._r) == kernel]
        vecs = [basis[i] if kernel else {t: c for t, c in basis[i].items() if t[0] < self._r}
                for i in kept]
        return _interreduce(vecs, [leads[i] for i in kept], self._key, self._ring.field)

    @cached_property
    def kernel(self) -> list[FreeModuleElement]:
        return [_from_vec(v, self._ring, self._k, self._r) for v in self._half(True)]

    @cached_property
    def image(self) -> GroebnerBasis:
        out = tuple(_from_vec(v, self._ring, self._rank) for v in self._half(False))
        return GroebnerBasis(out, self._order)


def syzygy_basis(columns, order: MonomialOrder = DEGREVLEX,
                 step_budget: int = DEFAULT_STEP_BUDGET,
                 modulo=()) -> list[FreeModuleElement]:
    """Reduced basis of the kernel of P^k -> (+)_j P/M_j sending e_i to column i:
    the kernel half of ``GraphBasis``, or none for no columns.  Colons,
    intersections, Koszul cycles and, as the image half, Koszul boundaries
    are all this one computation."""
    cols = list(columns)
    return GraphBasis(cols, order, step_budget, modulo).kernel if cols else []
