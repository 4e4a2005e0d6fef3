"""Ideal arithmetic in presented quotient rings A = P/I_A.

Every ideal of A is carried as an ideal of the ambient polynomial ring P
containing a fixed ``base`` ideal I_A; all operations add the base
automatically, so one Groebner engine serves the quotient world.  Each ideal
has one monomial order, DEGREVLEX unless its maker chose another (a graded
presentation takes its weighted order), and computes one reduced basis in
it; membership, colons, intersections and dimension all read that basis, and
every ideal derived from it keeps the order.  Colons and intersections are
one function, ``meet_of_colons``: one module kernel in general, and a closed
form on exponents when every basis and element is a monomial.  Values are
immutable; the cached reduced basis is write-once.
"""

from __future__ import annotations

from itertools import combinations

from .errors import RingMismatchError, ValidationError
from .groebner import (
    DEFAULT_STEP_BUDGET,
    FreeModuleElement,
    GraphBasis,
    GroebnerBasis,
    buchberger,
    normal_form,
)
from .rings import (
    DEGREVLEX,
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    block_order,
    minimal_monomials,
    mono_lcm,
)


class PresentedIdeal:
    """generators + base inside a common ambient ring, with one monomial
    order; equality via reduced bases."""

    __slots__ = ("ring", "base", "generators", "step_budget", "order", "_gb", "_extends", "_dim")

    def __init__(self, ring: PolynomialRing, base, generators,
                 step_budget: int = DEFAULT_STEP_BUDGET, order: MonomialOrder = DEGREVLEX):
        self.ring = ring
        self.base = tuple(base)
        self.generators = tuple(generators)
        self.step_budget = step_budget
        self.order = order
        for f in self.base + self.generators:
            if f.ring != ring:
                raise RingMismatchError("generator from a different ring")
        self._gb: GroebnerBasis | None = None
        self._extends: PresentedIdeal | None = None  # set by ``sum_with``
        self._dim: int | None = None

    # -- construction helpers -------------------------------------------------

    def spawn(self, generators) -> "PresentedIdeal":
        """Same ring, base and order, new generators."""
        return PresentedIdeal(self.ring, self.base, tuple(generators), self.step_budget,
                              self.order)

    def spawn_reduced(self, basis, generators=None) -> "PresentedIdeal":
        """Same ring, base and order, generated by ``generators`` (default
        the basis's); ``basis`` must be the result's reduced, monic, sorted
        basis in that order, as a ``GroebnerBasis`` or its generators, and
        it seeds the cache."""
        if not isinstance(basis, GroebnerBasis):
            basis = GroebnerBasis(tuple(basis), self.order)
        result = self.spawn(basis.generators if generators is None else generators)
        result._gb = basis
        return result

    def combined(self) -> tuple[Polynomial, ...]:
        return self.generators + self.base

    # -- Groebner layer --------------------------------------------------------

    def groebner(self) -> GroebnerBasis:
        """The reduced basis in ``order``, computed once.  An ideal made by
        ``sum_with`` extends its summand's basis, a settled block of the run,
        by the added elements alone."""
        if self._gb is None:
            first = self._extends
            if first is None:
                self._gb = buchberger(self.combined(), self.order, self.step_budget)
            else:
                self._gb = buchberger(self.generators[len(first.generators):], self.order,
                                      self.step_budget, settled=first.groebner())
        return self._gb

    def contains(self, f: Polynomial) -> bool:
        self._check_ring(f)
        return normal_form(f, self.groebner()).is_zero()

    def equals(self, other: "PresentedIdeal") -> bool:
        self._check(other)
        return self.groebner().generators == other.groebner().generators

    def is_proper(self) -> bool:
        gb = self.groebner().generators
        return not (gb and gb[0] == self.ring.one())

    def is_m_primary(self) -> bool:
        """True when the ideal (plus base) is proper and every variable is
        nilpotent modulo it, that is, when the origin is its only zero.  A
        variable is nilpotent exactly when saturating by it gives the unit
        ideal."""
        return self.is_proper() and not any(
            self.saturation(v)[0].is_proper() for v in self.ring.gens())

    def is_zero(self) -> bool:
        return not self.groebner().generators

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "PresentedIdeal") -> "PresentedIdeal":
        self._check(other)
        return self.spawn(self.generators + other.generators)

    def sum_with(self, *polys: Polynomial) -> "PresentedIdeal":
        """I + (polys); its basis run extends I's reduced basis (``groebner``)."""
        result = self.spawn(self.generators + tuple(polys))
        result._extends = self
        return result

    def intersect(self, other: "PresentedIdeal") -> "PresentedIdeal":
        """I cap J = (I : 1) cap (J : 1) (see ``meet_of_colons``)."""
        one = self.ring.one()
        return meet_of_colons((self, other), (one, one))

    def colon(self, f: Polynomial) -> "PresentedIdeal":
        """(I : f) = {g : g*f in I}; colon by a member returns the unit ideal."""
        return meet_of_colons((self,), (f,))

    def colon_ideal(self, other: "PresentedIdeal") -> "PresentedIdeal":
        """(I : J) as the intersection of the colons by J's listed generators."""
        self._check(other)
        gens = other.generators or (self.ring.zero(),)  # (I : 0) is the unit ideal
        return meet_of_colons((self,) * len(gens), gens)

    def saturation(self, f: Polynomial) -> tuple["PresentedIdeal", int]:
        """(I : f^inf) plus the first exponent k with (I:f^k) = (I:f^(k+1)).

        Because the colon target I is fixed, that single equality certifies
        global stabilization.
        """
        if f.is_zero():
            raise ValidationError("saturation by zero")
        current = self
        k = 0
        while True:
            nxt = current.colon(f)
            if nxt.equals(current):
                return current, k
            current = nxt
            k += 1

    def eliminate(self, var_indexes) -> "PresentedIdeal":
        """Intersection with the subring avoiding the given variables.

        The result is returned in the same ambient ring (with a plain GB
        generating set); treat it as an ideal of P rather than of A.
        """
        gone = tuple(sorted(set(var_indexes)))
        if not gone:
            return self.spawn(self.groebner().generators)
        gb = buchberger(self.combined(), block_order(gone), self.step_budget)
        keep = tuple(
            g for g in gb.generators
            if all(all(m[i] == 0 for i in gone) for m in g.terms)
        )
        return PresentedIdeal(self.ring, (), keep, self.step_budget, self.order)

    # -- invariants ---------------------------------------------------------------

    def krull_dim(self) -> int:
        """Krull dimension of P/(I + base); -1 for the unit ideal (empty spectrum).

        Computed once, as the largest variable subset independent modulo the
        leading ideal: no leading monomial may be supported inside the
        subset.  A variable that is a pure-power lead lies in no such subset,
        so the search runs over the other variables only.
        """
        if self._dim is None:
            self._dim = self._independent_set_size()
        return self._dim

    def _independent_set_size(self) -> int:
        if not self.is_proper():
            return -1
        supports = [
            frozenset(i for i, e in enumerate(g.leading_monomial(self.order)) if e)
            for g in self.groebner().generators
        ]
        free = [i for i in range(self.ring.nvars) if frozenset((i,)) not in supports]
        for size in range(len(free), 0, -1):
            for subset in combinations(free, size):
                chosen = set(subset)
                if all(not s <= chosen for s in supports):
                    return size
        return 0

    # -- plumbing -----------------------------------------------------------------

    def _check(self, other: "PresentedIdeal"):
        if self.ring != other.ring:
            raise RingMismatchError("ideals live in different rings")
        if self.base != other.base:
            raise RingMismatchError("ideals have different base ideals")
        if self.order != other.order:
            raise RingMismatchError("ideals use different monomial orders")

    def _check_ring(self, f: Polynomial):
        if f.ring != self.ring:
            raise RingMismatchError("element lives in a different ring")

    def __str__(self):
        gens = ", ".join(str(g) for g in self.generators) or "0"
        if self.base:
            return f"({gens}) + base({len(self.base)} gens) in {self.ring}"
        return f"({gens}) in {self.ring}"


def meet_of_colons(ideals, elements) -> PresentedIdeal:
    """The intersection of the colons (I_k : f_k), all in one ring and base.

    A pair whose f_k is 0 is dropped: (I_k : 0) is the unit ideal, the
    identity of the meet, so with no pair left the result is the unit ideal,
    with no kernel.  When every remaining f_k is a single term and every
    I_k's reduced basis (base included) holds only monomials, the result is
    read off exponents with no kernel (``_monomial_meet``).  Otherwise it is
    one module kernel: the kernel of P -> (+)_k P/I_k sending 1 to (f_k),
    the ``kernel_ideal`` of a ``GraphBasis`` in the ideals' shared order
    modulo their reduced bases, which are passed as ``GroebnerBasis`` values
    so the engine forms no pairs within them and reads their packed terms.
    Every way, the result's generators are its reduced, monic basis sorted
    ascending in that order, so they seed its basis cache
    (``spawn_reduced``); the kernel's basis seeds it as the engine made it,
    term vectors included.
    """
    ideals, elements = tuple(ideals), tuple(elements)
    if not ideals or len(ideals) != len(elements):
        raise ValidationError("need one element per ideal, and at least one ideal")
    first = ideals[0]
    for ideal, f in zip(ideals, elements):
        first._check(ideal)
        first._check_ring(f)
    kept = [(ideal, f) for ideal, f in zip(ideals, elements) if not f.is_zero()]
    if not kept:
        return first.spawn_reduced((first.ring.one(),))
    ideals, elements = zip(*kept)
    bases = [ideal.groebner() for ideal in ideals]
    if all(len(f.terms) == 1 for f in elements) and all(
            len(g.terms) == 1 for gb in bases for g in gb.generators):
        meet = _monomial_meet(bases, elements, first.order.key())
        return first.spawn_reduced(first.ring.monomial(m) for m in meet)
    column = FreeModuleElement(first.ring, elements)
    return first.spawn_reduced(
        GraphBasis((column,), first.order, first.step_budget, bases).kernel_ideal)


def _monomial_meet(bases, elements, key) -> list:
    """Exponents of the minimal generators of the meet of the colons
    (I_k : u_k), ascending by ``key``, for reduced bases of monomials and
    single terms u_k.  (I : x^u) is generated by the x^max(v - u, 0) over
    I's generators x^v, and I cap J by the pairwise lcms of their generators
    (Herzog-Hibi, Monomial Ideals, 1.2)."""
    meet = None
    for gb, f in zip(bases, elements):
        (u,) = f.terms
        colon = minimal_monomials((tuple(max(e - d, 0) for e, d in zip(v, u))
                                   for g in gb.generators for v in g.terms), key)
        meet = colon if meet is None else minimal_monomials(
            (mono_lcm(a, b) for a in meet for b in colon), key)
    return meet
