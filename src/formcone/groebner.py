"""Buchberger engine: normal forms and reduced Groebner bases.

The same engine serves polynomial ideals and submodules of free modules;
internally every element is a map ``(position, monomial) -> coefficient``
ordered position-over-term (position 0 greatest) with the caller's monomial
order underneath.  Ring polynomials are the rank-1 case.

Determinism contract: fixed generators plus a fixed order produce the
identical reduced basis (reduced bases are unique up to scaling, and output
is monic and sorted by leading term).

Cost notes: each basis run computes a term's order key once (a memo local
to the run), interreduces in a single pass, and updates coefficients with
one multiply and one add per term, reducing mod p only in characteristic p.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

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

    __slots__ = ("ring", "components", "_hash")

    def __init__(self, ring: PolynomialRing, components):
        comps = tuple(components)
        for c in comps:
            if c.ring != ring:
                raise RingMismatchError("component from a different ring")
        self.ring = ring
        self.components = comps
        self._hash = None

    @property
    def rank(self) -> int:
        return len(self.components)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __add__(self, other: "FreeModuleElement") -> "FreeModuleElement":
        self._check(other)
        return FreeModuleElement(self.ring, tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "FreeModuleElement") -> "FreeModuleElement":
        self._check(other)
        return FreeModuleElement(self.ring, tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "FreeModuleElement":
        return FreeModuleElement(self.ring, tuple(-a for a in self.components))

    def scale(self, scalar) -> "FreeModuleElement":
        return FreeModuleElement(self.ring, tuple(a.scale(scalar) for a in self.components))

    def dot(self, polys) -> Polynomial:
        acc = self.ring.zero()
        for c, p in zip(self.components, polys):
            acc = acc + c * p
        return acc

    def _check(self, other: "FreeModuleElement"):
        if self.ring != other.ring or self.rank != other.rank:
            raise RingMismatchError("free-module rank or ring mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, FreeModuleElement)
            and self.ring == other.ring
            and self.components == other.components
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.components))
        return self._hash

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis: monic generators, sorted by leading term."""

    generators: tuple
    order: MonomialOrder

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


# ---------------------------------------------------------------------------
# Internal vector representation
# ---------------------------------------------------------------------------

def _to_vec(element) -> dict:
    if isinstance(element, Polynomial):
        return {(0, m): c for m, c in element.terms.items()}
    return {
        (i, m): c
        for i, comp in enumerate(element.components)
        for m, c in comp.terms.items()
    }


def _from_vec(vec: dict, ring: PolynomialRing, rank: int | None):
    if rank is None:
        return Polynomial(ring, {m: c for (_, m), c in vec.items()})
    comps = [dict() for _ in range(rank)]
    for (p, m), c in vec.items():
        comps[p][m] = c
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
    """Scale to a canonical representative: primitive integral over QQ, monic over F_p."""
    if not vec:
        return vec
    if fld.is_rationals:
        den = 1
        for c in vec.values():
            den = den * c.denominator // gcd(den, c.denominator)
        num = 0
        for c in vec.values():
            num = gcd(num, abs(c.numerator * den // c.denominator))
        lead_c = vec[_lead(vec, key)]
        sign = -1 if lead_c < 0 else 1
        factor = Fraction(sign * den, num)
        return {t: c * factor for t, c in vec.items()}
    inv = fld.inv(vec[_lead(vec, key)])
    return {t: fld.mul(c, inv) for t, c in vec.items()}


def _reduce_full(vec: dict, basis: list[dict], leads: list, key, fld) -> dict:
    """Full normal form: no remaining term is divisible by any basis lead."""
    work = dict(vec)
    remainder: dict = {}
    by_pos: dict[int, list[tuple]] = {}
    for idx, (p, m) in enumerate(leads):
        by_pos.setdefault(p, []).append((m, idx))
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
        q_coeff = fld.div(work[t], g[leads[idx]])
        _sub_scaled(work, g, q_mono, q_coeff, fld)
    return remainder


def _spoly(f: dict, g: dict, lf, lg, key, fld) -> dict:
    (_, mf), (_, mg) = lf, lg
    lcm = mono_lcm(mf, mg)
    out = dict()
    _sub_scaled(out, f, mono_div(lcm, mf), fld.neg(fld.inv(f[lf])), fld)
    _sub_scaled(out, g, mono_div(lcm, mg), fld.inv(g[lg]), fld)
    return out


def _engine(vectors: list[dict], order: MonomialOrder, fld, step_budget: int,
            rank_one: bool) -> list[dict]:
    """Buchberger with normal (degree-queue) pair selection.

    Product criterion only in rank one (it is unsound for modules); chain
    criterion only against pairs whose S-polynomial reduction is already
    established, which avoids the classical circular-skip pitfall.
    ``step_budget`` bounds the S-polynomial reductions; pairs either
    criterion skips are not counted.  One term-key memo serves the whole run,
    the final interreduction included.
    """
    key = _term_key(order)
    basis = [_normalize(v, key, fld) for v in vectors if v]
    leads = [_lead(v, key) for v in basis]

    heap: list = []
    established: set[tuple[int, int]] = set()

    def push_pairs(j: int):
        pj, mj = leads[j]
        mono_j = len(basis[j]) == 1
        for i in range(j):
            pi, mi = leads[i]
            if pi != pj:
                continue
            if mono_j and len(basis[i]) == 1:
                established.add((i, j))  # S-polynomial of two terms is identically zero
                continue
            lcm = mono_lcm(mi, mj)
            if rank_one and lcm == mono_mul(mi, mj):
                established.add((i, j))  # coprime leads: S-polynomial reduces to zero
                continue
            heapq.heappush(heap, (sum(lcm), key((pi, lcm)), i, j))

    for j in range(len(basis)):
        push_pairs(j)

    steps = 0
    while heap:
        _, _, i, j = heapq.heappop(heap)
        (pi, mi), (pj, mj) = leads[i], leads[j]
        lcm = mono_lcm(mi, mj)
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            pk, mk = leads[k]
            if pk != pi or not mono_divides(mk, lcm):
                continue
            a, b = (min(i, k), max(i, k)), (min(j, k), max(j, k))
            if a in established and b in established:
                skip = True
                break
        if skip:
            continue
        steps += 1
        if steps > step_budget:
            raise BudgetExceededError(
                f"pair-reduction budget {step_budget} exhausted; raise step_budget"
            )
        s = _spoly(basis[i], basis[j], leads[i], leads[j], key, fld)
        r = _reduce_full(s, basis, leads, key, fld)
        established.add((i, j))
        if r:
            r = _normalize(r, key, fld)
            basis.append(r)
            leads.append(_lead(r, key))
            push_pairs(len(basis) - 1)
    return _interreduce(basis, leads, key, fld)


def _interreduce(basis: list[dict], leads: list, key, fld) -> list[dict]:
    """Reduced basis from a Groebner basis: monic, sorted by ascending lead.

    Keeps the elements with minimal leads, then reduces each against the
    others in one pass.  No lead is divisible by another, so reduction never
    changes a lead; every tail is then irreducible against the final leads,
    and a second pass would change nothing.
    """
    order_ix = sorted(range(len(basis)), key=lambda i: key(leads[i]))
    minimal: list[dict] = []
    min_leads: list = []
    for i in order_ix:
        if not any(p == leads[i][0] and mono_divides(m, leads[i][1]) for p, m in min_leads):
            minimal.append(basis[i])
            min_leads.append(leads[i])
    monic = []
    for i, lead in enumerate(min_leads):
        r = _reduce_full(minimal[i], minimal[:i] + minimal[i + 1:],
                         min_leads[:i] + min_leads[i + 1:], key, fld)
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
    out = _engine(vecs, order, ring.field, step_budget, rank_one=rank in (None, 1))
    return GroebnerBasis(tuple(_from_vec(v, ring, rank) for v in out), order)


def normal_form(element, basis: GroebnerBasis):
    """Remainder of full division of ``element`` by ``basis`` (same ambient, same order)."""
    gens = [g for g in basis.generators if not g.is_zero()]
    if not gens:
        return element
    ring, rank = _common_shape(gens)
    if element.ring != ring:
        raise RingMismatchError("element and basis live in different rings")
    e_rank = None if isinstance(element, Polynomial) else element.rank
    if e_rank != rank:
        raise RingMismatchError("element and basis have different ranks")
    key = _term_key(basis.order)
    vecs = [_to_vec(g) for g in gens]
    leads = [_lead(v, key) for v in vecs]
    r = _reduce_full(_to_vec(element), vecs, leads, key, ring.field)
    return _from_vec(r, ring, rank)


def _graph_basis(ring: PolynomialRing, heads, relations, order: MonomialOrder,
                 step_budget: int) -> GroebnerBasis:
    """POT basis of the graph vectors ``head_i (+) e_i`` and ``relation (+) 0``.

    ``heads`` and ``relations`` are component tuples of one length r; the
    result lives in P^(r+k) for k heads, with the r head positions dominating.
    """
    k = len(heads)
    zero, one = ring.zero(), ring.one()
    graph = [
        FreeModuleElement(ring, head + tuple(one if j == i else zero for j in range(k)))
        for i, head in enumerate(heads)
    ]
    graph += [FreeModuleElement(ring, rel + (zero,) * k) for rel in relations]
    return buchberger(graph, order, step_budget)


def syzygy_basis(columns, order: MonomialOrder = DEGREVLEX,
                 step_budget: int = DEFAULT_STEP_BUDGET,
                 relations=()) -> list[FreeModuleElement]:
    """Reduced basis of the kernel of P^k -> P^r/N sending e_i to column i.

    N is the submodule spanned by ``relations`` (empty: plain syzygies).
    Method: one module Groebner basis of the graph vectors
    ``column_i (+) e_i`` and ``relation (+) 0`` inside P^(r+k) under
    position-over-term with the original positions dominating; basis
    elements whose first block vanishes are the kernel, and their tails form
    its reduced basis.  Colons, intersections and Koszul cycles are all this
    one kernel (Greuel-Pfister, sections 1.8 and 2.8).
    """
    cols, rels = list(columns), list(relations)
    if not cols:
        return []
    ring, rank = _common_shape(cols + rels)

    def parts(v):
        return (v,) if rank is None else v.components

    r = 1 if rank is None else rank
    gb = _graph_basis(ring, [parts(c) for c in cols], [parts(v) for v in rels],
                      order, step_budget)
    return [
        FreeModuleElement(ring, g.components[r:])
        for g in gb.generators
        if all(c.is_zero() for c in g.components[:r])
    ]


class MembershipLifter:
    """Express ring elements in terms of a fixed generator list.

    Precomputes the graph-module Groebner basis once; each ``lift`` is then a
    single module normal form.  ``lift(f)`` returns cofactors ``h`` with
    ``f == sum h_i * gens_i``, or None when f is not in the ideal.
    """

    def __init__(self, gens, order: MonomialOrder = DEGREVLEX,
                 step_budget: int = DEFAULT_STEP_BUDGET):
        gens = list(gens)
        if not gens:
            raise ValidationError("empty generator list")
        ring, rank = _common_shape(gens)
        if rank is not None:
            raise ValidationError("MembershipLifter works on ring elements")
        self.ring = ring
        self.gens = gens
        self._gb = _graph_basis(ring, [(g,) for g in gens], (), order, step_budget)

    def lift(self, f: Polynomial) -> list[Polynomial] | None:
        if f.ring != self.ring:
            raise RingMismatchError("element lives in a different ring")
        zero = self.ring.zero()
        probe = FreeModuleElement(self.ring, (f,) + (zero,) * len(self.gens))
        r = normal_form(probe, self._gb)
        if not r.components[0].is_zero():
            return None
        return [-c for c in r.components[1:]]
