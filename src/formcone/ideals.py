"""Ideal arithmetic in presented quotient rings A = P/I_A.

Every ideal of A is carried as an ideal of the ambient polynomial ring P
containing a fixed ``base`` ideal I_A; all operations add the base
automatically, so one Groebner engine serves the quotient world.  Values are
immutable; the cached reduced basis is write-once.
"""

from __future__ import annotations

from itertools import combinations

from .errors import RingMismatchError, ValidationError
from .groebner import (
    DEFAULT_STEP_BUDGET,
    FreeModuleElement,
    GroebnerBasis,
    buchberger,
    normal_form,
    syzygy_basis,
)
from .rings import DEGREVLEX, MonomialOrder, Polynomial, PolynomialRing, block_order


class PresentedIdeal:
    """generators + base inside a common ambient ring; equality via reduced bases."""

    __slots__ = ("ring", "base", "generators", "step_budget", "_gb_cache")

    def __init__(self, ring: PolynomialRing, base, generators,
                 step_budget: int = DEFAULT_STEP_BUDGET):
        self.ring = ring
        self.base = tuple(base)
        self.generators = tuple(generators)
        self.step_budget = step_budget
        for f in self.base + self.generators:
            if f.ring != ring:
                raise RingMismatchError("generator from a different ring")
        self._gb_cache: dict[MonomialOrder, GroebnerBasis] = {}

    # -- construction helpers -------------------------------------------------

    def spawn(self, generators) -> "PresentedIdeal":
        """Same ring and base, new generators."""
        return PresentedIdeal(self.ring, self.base, tuple(generators), self.step_budget)

    def combined(self) -> tuple[Polynomial, ...]:
        return self.generators + self.base

    # -- Groebner layer --------------------------------------------------------

    def groebner(self, order: MonomialOrder = DEGREVLEX) -> GroebnerBasis:
        gb = self._gb_cache.get(order)
        if gb is None:
            gb = buchberger(self.combined(), order, self.step_budget)
            self._gb_cache[order] = gb
        return gb

    def contains(self, f: Polynomial) -> bool:
        self._check_ring(f)
        return normal_form(f, self.groebner()).is_zero()

    def reduce(self, f: Polynomial) -> Polynomial:
        self._check_ring(f)
        return normal_form(f, self.groebner())

    def equals(self, other: "PresentedIdeal") -> bool:
        self._check(other)
        return self.groebner().generators == other.groebner().generators

    def contains_ideal(self, other: "PresentedIdeal") -> bool:
        self._check(other)
        gb = self.groebner()
        # _check ensured a shared base, and self contains its own base
        return all(normal_form(g, gb).is_zero() for g in other.generators)

    def is_proper(self) -> bool:
        gb = self.groebner().generators
        return not (gb and gb[0] == self.ring.one())

    def is_zero(self) -> bool:
        return not self.groebner().generators

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "PresentedIdeal") -> "PresentedIdeal":
        self._check(other)
        return self.spawn(self.generators + other.generators)

    def sum_with(self, *polys: Polynomial) -> "PresentedIdeal":
        return self.spawn(self.generators + tuple(polys))

    def intersect(self, other: "PresentedIdeal") -> "PresentedIdeal":
        """I cap J = (I : 1) cap (J : 1), one module kernel (see ``meet_of_colons``)."""
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
        return PresentedIdeal(self.ring, (), keep, self.step_budget)

    # -- invariants ---------------------------------------------------------------

    def krull_dim(self) -> int:
        """Krull dimension of P/(I + base); -1 for the unit ideal (empty spectrum).

        Computed as the largest variable subset independent modulo the leading
        ideal: no leading monomial may be supported inside the subset.
        """
        if not self.is_proper():
            return -1
        supports = [
            frozenset(i for i, e in enumerate(g.leading_monomial()) if e)
            for g in self.groebner().generators
        ]
        n = self.ring.nvars
        for size in range(n, 0, -1):
            for subset in combinations(range(n), size):
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

    It is one module kernel: the kernel of P -> (+)_k P/I_k sending 1 to
    (f_k), computed by ``syzygy_basis`` modulo the reduced bases of the I_k,
    which are passed as ``GroebnerBasis`` values so the engine forms no
    pairs within them.
    The result's generators are its reduced, monic, sorted DEGREVLEX basis,
    so they seed its basis cache.
    """
    ideals, elements = tuple(ideals), tuple(elements)
    if not ideals or len(ideals) != len(elements):
        raise ValidationError("need one element per ideal, and at least one ideal")
    first = ideals[0]
    for ideal, f in zip(ideals, elements):
        first._check(ideal)
        first._check_ring(f)
    kernel = syzygy_basis((FreeModuleElement(first.ring, elements),), DEGREVLEX,
                          first.step_budget, [ideal.groebner() for ideal in ideals])
    result = first.spawn(v.components[0] for v in kernel)
    result._gb_cache[DEGREVLEX] = GroebnerBasis(result.generators, DEGREVLEX)
    return result
