"""Adic filtration toolkit for cyclic modules M = A/I_M over A = P/I_A.

Provides initial degrees along the q-adic filtration, Rees-algebra and
associated-graded (form ring) presentations by tag-variable elimination, a
direct lowest-form tangent-cone route for cross-checking, and the passage
M -> M/bM used by the depth recursion.  A context's inputs are immutable,
but it memoises in place (powers, presentations, and the ``scratch`` space
where the criterion grows its level chains), so one context must not be
scanned from two threads at once.

One basis per context, of I_M + (y_j - f_j T) under an order that eliminates
the tag T, serves both presentations and the graded images.  The image of a
in degree d is the class of a in q^d M / q^(d+1) M: a lies in q^d M exactly
when the normal form of a*T^d against that basis is free of T, and the
T-free normal form is then a polynomial in the x- and y-variables that
presents the image.

The power ladder q^n + J (J = I_M or I_A) is built level by level from the
identity (q^(n-1) + J) * q + J = q^n + J, multiplying the previous level's
reduced basis by q's generators instead of forming all degree-n products.
Each previous basis element is first reduced modulo J: the part of it that
lies in J would only add products that are already in J, and their S-pairs
are wasted work.

Graded inputs skip the ladder.  When J is homogeneous and q + I_A is the
ideal m of all variables, q^n + J = m^n + J, whose reduced basis is read off
J's (``graded_power_basis``): the elements of degree below n, plus the
degree-n monomials that none of their leads divides.  ``is_graded`` decides
this once per ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .errors import ConsistencyError, RingMismatchError, ValidationError
from .groebner import DEFAULT_STEP_BUDGET, GroebnerBasis, buchberger, normal_form
from .ideals import PresentedIdeal
from .rings import (
    DEGREVLEX,
    Monomial,
    Polynomial,
    PolynomialRing,
    block_order,
    mono_divides,
    weighted_order,
)

DEFAULT_PROBE_CAP = 12


@dataclass(frozen=True)
class SystemElement:
    """One element of the distinguished system with its filtration exponent.

    ``exact`` marks the exponent as the true initial degree (element lies in
    that power but not the next, modulo I_A).  Level scans only need
    membership exponents; the graded routes insist on exact ones.
    """

    element: Polynomial
    degree: int
    zero_flag: bool = False
    exact: bool = True


def graded_power_basis(ring: PolynomialRing, basis, n: int) -> tuple[Polynomial, ...]:
    """Reduced DEGREVLEX basis of m^n + J, from the reduced basis of a
    homogeneous ideal J (m is the ideal of all variables).

    In degrees below n the sum is J, and from degree n on it holds every
    monomial.  So its leads are those of J's elements of degree below n,
    which stay reduced, plus the degree-n monomials that none of them
    divides; sorted by ascending lead, as the engine returns them.
    """
    low = tuple(g for g in basis if g.total_degree() < n)
    leads = [g.leading_monomial() for g in low]
    one = ring.field.coerce(1)
    monos = []
    for chosen in combinations_with_replacement(range(ring.nvars), n):
        mono = [0] * ring.nvars
        for i in chosen:
            mono[i] += 1
        mono = tuple(mono)
        if not any(mono_divides(lead, mono) for lead in leads):
            monos.append(mono)
    monos.sort(key=DEGREVLEX.key())
    return low + tuple(Polynomial(ring, {m: one}) for m in monos)


class GradedQuotientPresentation:
    """Polynomial presentation of a graded quotient: k[x-vars, y-vars]/H.

    x-variables carry weight 0 (they present the degree-0 part), y-variables
    carry weight 1 (one per filtration-ideal generator).  ``y_offset`` counts
    the leading weight-0 variables; for the direct tangent-cone route every
    variable has weight 1 and it is 0.
    """

    __slots__ = ("ring", "weights", "ideal", "context", "y_offset", "_order")

    def __init__(self, ring: PolynomialRing, weights, ideal: PresentedIdeal, context):
        self.ring = ring
        self.weights = tuple(weights)
        self.ideal = ideal
        self.context = context
        self.y_offset = next((i for i, w in enumerate(self.weights) if w), len(self.weights))
        self._order = weighted_order(self.weights)
        if len(self.weights) != ring.nvars:
            raise ValidationError("one weight per presentation variable required")

    @property
    def order(self):
        return self._order

    def groebner(self):
        return self.ideal.groebner(self._order)

    def y_degree(self, mono: Monomial) -> int:
        return sum(w * e for w, e in zip(self.weights, mono))

    def is_y_homogeneous(self, f: Polynomial) -> bool:
        return f.is_homogeneous(self.weights)

    def reduce(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self.groebner())

    def contains(self, f: Polynomial) -> bool:
        return self.reduce(f).is_zero()

    def quotient_by(self, reps) -> "GradedQuotientPresentation":
        """Presentation of the quotient by the listed (homogeneous) elements."""
        return GradedQuotientPresentation(
            self.ring, self.weights, self.ideal.sum_with(*reps), self.context,
        )

    def variable_cone(self) -> "GradedQuotientPresentation":
        """Rename y-variables onto the ambient variables they present.

        Valid when the filtration ideal is the full variable ideal (each
        y-variable presents one ambient variable) and the degree-0 part is the
        base field (every x-variable lies in the defining ideal).  The result
        is directly comparable with the lowest-form tangent-cone route.
        """
        ctx = self.context
        if ctx is None or self.y_offset == 0:
            raise ValidationError("presentation does not carry filtration provenance")
        ambient = ctx.ring
        slots: list[int] = []
        for g in ctx.q_generators:
            if len(g.terms) != 1:
                raise ValidationError("filtration ideal generators are not single variables")
            mono, coeff = next(iter(g.terms.items()))
            if sum(mono) != 1 or coeff != ambient.field.coerce(1):
                raise ValidationError("filtration ideal generators are not single variables")
            slots.append(mono.index(1))
        gb = self.groebner()
        for i in range(self.y_offset):
            if not self.contains(self.ring.var(i)):
                raise ValidationError("degree-0 part of the presentation is not the base field")
        positions = list(range(self.y_offset)) + slots
        gens = []
        for g in gb.generators:
            if all(all(m[i] == 0 for i in range(self.y_offset)) for m in g.terms):
                gens.append(g.map_to(ambient, positions))
        return GradedQuotientPresentation(
            ambient, (1,) * ambient.nvars,
            PresentedIdeal(ambient, (), tuple(gens), self.ideal.step_budget), ctx,
        )


class FiltrationContext:
    """The tuple (A = P/I_A, cyclic M = A/I_M, filtration ideal q, system a).

    Construction verifies that q is proper, that M and M/qM are nonzero, and
    that every system element has the claimed initial degree modulo I_A.
    ``local_model_mismatch`` flags inputs whose filtration ideal is not
    contained in the variable ideal; affine results then need not match the
    power-series picture and reports say so.
    """

    def __init__(self, ring: PolynomialRing, base_gens, module_gens, q_gens,
                 system, probe_cap: int = DEFAULT_PROBE_CAP,
                 step_budget: int = DEFAULT_STEP_BUDGET,
                 _validated_system: tuple[SystemElement, ...] | None = None):
        self.ring = ring
        self.base_generators = tuple(base_gens)
        self.module_generators = tuple(module_gens)
        self.q_generators = tuple(q_gens)
        self.probe_cap = probe_cap
        self.step_budget = step_budget
        for f in self.base_generators + self.module_generators + self.q_generators:
            if f.ring != ring:
                raise RingMismatchError("context data from a different ring")

        self.ideal_a = PresentedIdeal(ring, (), self.base_generators, step_budget)
        self.ideal_m = PresentedIdeal(ring, self.base_generators, self.module_generators, step_budget)
        self.q_ideal = PresentedIdeal(ring, self.base_generators, self.q_generators, step_budget)

        if not self.q_generators:
            raise ValidationError("filtration ideal needs at least one generator")
        if not self.ideal_a.is_proper():
            raise ValidationError("base ideal is the unit ideal")
        if not self.ideal_m.is_proper():
            raise ValidationError("module is zero (module ideal is the unit ideal)")
        if not self.q_ideal.is_proper():
            raise ValidationError("filtration ideal is not proper")
        if not self.ideal_m.spawn(self.module_generators + self.q_generators).is_proper():
            raise ValidationError("filtration ideal acts as the unit ideal on the module")

        self._variable_ideal = PresentedIdeal(ring, self.base_generators, ring.gens(),
                                              step_budget)
        self.local_model_mismatch = not all(
            self._variable_ideal.contains(g) for g in self.q_generators
        )

        self._products: dict[int, tuple] = {}
        self._powers_base: dict[int, PresentedIdeal] = {}
        self._powers_module: dict[int, PresentedIdeal] = {}
        self._system_powers: dict = {}
        self._presentations: dict = {}
        self._graded: dict[str, bool] = {}
        # memo space for higher layers: records are immutable, but level
        # chains and the colon sequence in it are extended in place
        self.scratch: dict = {}

        if _validated_system is not None:
            self.system = _validated_system
        else:
            validated = []
            for entry in system:
                element, claimed = entry if isinstance(entry, tuple) else (entry, None)
                if self.ideal_a.contains(element):
                    raise ValidationError(f"system element {element} is zero in the base ring")
                degree = self.initial_degree(element)
                if degree is None:
                    validated.append(SystemElement(element, probe_cap, zero_flag=True))
                    continue
                if claimed is not None and claimed != degree:
                    raise ValidationError(
                        f"claimed initial degree {claimed} for {element}, computed {degree}"
                    )
                validated.append(SystemElement(element, degree))
            self.system = tuple(validated)

    # -- power ladder ---------------------------------------------------------

    def q_power_products(self, n: int) -> tuple:
        """Degree-n multiset products of q's generators as (exponent, polynomial) pairs.

        Levels are filled upward, each from the one below, starting at the
        highest cached level; the cache always holds levels 0..top.
        """
        products = self._products
        s = len(self.q_generators)
        if not products:
            products[0] = (((0,) * s, self.ring.one()),)
        for level in range(len(products), n + 1):
            seen: dict[tuple, Polynomial] = {}
            for expt, poly in products[level - 1]:
                # extend only at or after the last used generator: each multiset once
                top = max((i for i in range(s) if expt[i]), default=0)
                for i in range(top, s):
                    e = list(expt)
                    e[i] += 1
                    key = tuple(e)
                    if key not in seen:
                        seen[key] = poly * self.q_generators[i]
            products[level] = tuple(sorted(seen.items()))
        return products[n]

    def q_power(self, n: int, modulo: str = "module") -> PresentedIdeal:
        """q^n + J as a presented ideal with cached reduced basis, where J is
        I_M (``modulo="module"``) or I_A (``"base"``).

        Levels 0 and 1 are generated by the products of q's generators.  Each
        higher level comes from the level below by the identity

            (q^(n-1) + J) * q + J = q^n + J        (J*q lies in J),

        so its generators are the products g*f, with f among q's generators
        and g among the reduced basis of q^(n-1) + J, plus J's generators.
        That basis is far smaller than the C(n+k-1, k-1) products of degree
        n.  Each g is first reduced modulo J's basis, which keeps its class
        modulo J: the part of g inside J would only contribute products that
        already lie in J, and the S-pairs they create reduce to zero.  Zero
        remainders are dropped and the products deduplicated in order.
        Levels are filled upward from the highest cached one.

        Where ``is_graded(modulo)`` holds, each level is instead the closed
        form m^n + J of ``graded_power_basis``, with no basis computation.
        """
        cache, j_ideal, j_gens = self._ladder(modulo)
        if self.is_graded(modulo):
            if n not in cache:
                cache[n] = self.q_ideal.spawn_reduced(
                    graded_power_basis(self.ring, j_ideal.groebner().generators, n))
            return cache[n]
        for level in range(len(cache), n + 1):
            if level <= 1:
                gens = tuple(p for _, p in self.q_power_products(level))
            else:
                prev = cache[level - 1].groebner().generators
                if j_ideal.combined():
                    prev = (j_ideal.reduce(g) for g in prev)
                gens = tuple(dict.fromkeys(
                    g * f for g in prev if not g.is_zero() for f in self.q_generators
                ))
            cache[level] = PresentedIdeal(self.ring, self.base_generators,
                                          gens + j_gens, self.step_budget)
        return cache[n]

    def is_graded(self, modulo: str = "module") -> bool:
        """True when J (I_M for ``modulo="module"``, I_A for ``"base"``) is
        homogeneous and q + I_A is the ideal m of all variables, so that
        q^n + J = m^n + J for every n.  Decided once per ladder from bases
        that construction already computed."""
        if modulo not in self._graded:
            _, j_ideal, _ = self._ladder(modulo)
            self._graded[modulo] = (
                all(g.is_homogeneous() for g in j_ideal.groebner().generators)
                and self.q_ideal.equals(self._variable_ideal)
            )
        return self._graded[modulo]

    def _ladder(self, modulo: str) -> tuple[dict, PresentedIdeal, tuple]:
        """(power cache, J, J's extra generators) for ``modulo`` "module"
        (J = I_M) or "base" (J = I_A); any other value is refused."""
        if modulo == "module":
            return self._powers_module, self.ideal_m, self.module_generators
        if modulo == "base":
            return self._powers_base, self.ideal_a, ()
        raise ValidationError(f'modulo must be "module" or "base", not {modulo!r}')

    def system_power(self, index: int, exponent: int) -> Polynomial:
        key = (index, exponent)
        if key not in self._system_powers:
            self._system_powers[key] = self.system[index].element ** exponent
        return self._system_powers[key]

    # -- initial degrees -------------------------------------------------------

    def initial_degree(self, a: Polynomial, modulo: str = "base") -> int | None:
        """Largest c <= probe_cap with a in q^c (mod I_A or I_M); None once the
        probe cap is hit, which by convention means the initial form is zero."""
        _, zero_test, _ = self._ladder(modulo)
        if zero_test.contains(a):
            raise ValidationError("element is zero in the quotient; no initial degree")
        for c in range(1, self.probe_cap + 1):
            if not self.q_power(c, modulo).contains(a):
                return c - 1
        return None

    # -- graded presentations -----------------------------------------------------

    def _rees_basis(self) -> tuple[PolynomialRing, GroebnerBasis]:
        """The ring P[y, T] and the basis of I_M + (y_j - f_j T) in it under
        the order that eliminates T, the last variable; computed once per
        context."""
        key = ("rees",)
        if key not in self._presentations:
            n, s = self.ring.nvars, len(self.q_generators)
            y_names = self.ring.fresh_names("y", s)
            big = self.ring.extend(tuple(y_names) + (self.ring.fresh_name("T"),))
            emb = list(range(n))
            t = big.var(n + s)
            gens = [g.map_to(big, emb) for g in self.base_generators + self.module_generators]
            for j, f in enumerate(self.q_generators):
                gens.append(big.var(n + j) - f.map_to(big, emb) * t)
            gb = buchberger(gens, block_order((n + s,)), self.step_budget)
            self._presentations[key] = big, gb
        return self._presentations[key]

    def rees_presentation(self) -> GradedQuotientPresentation:
        """Presentation of the blowup algebra of M: the T-free elements of
        the Rees basis, which generate I_M + (y_j - f_j T) with T eliminated."""
        big, gb = self._rees_basis()
        t_index = big.nvars - 1
        pres_ring = big.drop((t_index,))
        keep = []
        for g in gb.generators:
            if all(m[t_index] == 0 for m in g.terms):
                keep.append(g.map_to(pres_ring, list(range(t_index)) + [0]))
        weights = (0,) * self.ring.nvars + (1,) * len(self.q_generators)
        return GradedQuotientPresentation(
            pres_ring, weights,
            PresentedIdeal(pres_ring, (), tuple(keep), self.step_budget), self,
        )

    def form_presentation(self) -> GradedQuotientPresentation:
        """Associated-graded presentation of M: the Rees presentation modulo
        the filtration ideal rewritten in the degree-0 variables."""
        key = ("form",)
        if key in self._presentations:
            return self._presentations[key]
        rees = self.rees_presentation()
        pres_ring = rees.ring
        n = self.ring.nvars
        emb = list(range(n))
        gens = rees.ideal.generators + tuple(f.map_to(pres_ring, emb) for f in self.q_generators)
        pres = GradedQuotientPresentation(
            pres_ring, rees.weights,
            PresentedIdeal(pres_ring, (), gens, self.step_budget), self,
        )
        for g in pres.groebner().generators:
            if not pres.is_y_homogeneous(g):
                raise ConsistencyError("form presentation is not weight-homogeneous")
        self._presentations[key] = pres
        return pres

    def tangent_cone_direct(self) -> GradedQuotientPresentation:
        """Lowest-form route to the tangent cone, for cross-checking.

        Requires q to be the full variable ideal of A.  Homogenize the module
        ideal with an auxiliary variable, run a basis computation under an
        order that ranks the auxiliary variable first, and collect the lowest
        x-degree slice of each basis element.
        """
        key = ("cone",)
        if key in self._presentations:
            return self._presentations[key]
        if not self.q_ideal.equals(self._variable_ideal):
            raise ValidationError("direct cone route needs q = (all variables)")
        n = self.ring.nvars
        h_name = self.ring.fresh_name("h")
        big = self.ring.extend((h_name,))
        emb = list(range(n))
        h = big.var(n)
        homogenized = []
        for f in self.ideal_m.combined():
            if f.is_zero():
                continue
            lifted = f.map_to(big, emb)
            top = f.total_degree()
            acc = big.zero()
            for d in range(f.min_degree(), top + 1):
                acc = acc + lifted.homogeneous_part(d, (1,) * n + (0,)) * h ** (top - d)
            homogenized.append(acc)
        gb = buchberger(homogenized, block_order((n,)), self.step_budget)
        cone_gens = []
        for g in gb.generators:
            top_h = max(m[n] for m in g.terms)
            slice_terms = {m[:n]: c for m, c in g.terms.items() if m[n] == top_h}
            cone_gens.append(Polynomial(self.ring, slice_terms))
        pres = GradedQuotientPresentation(
            self.ring, (1,) * n,
            PresentedIdeal(self.ring, (), tuple(cone_gens), self.step_budget), self,
        )
        self._presentations[key] = pres
        return pres

    # -- graded images of ring elements ---------------------------------------------

    def graded_image(self, a: Polynomial, degree: int,
                     presentation: GradedQuotientPresentation) -> Polynomial:
        """Class of a in q^degree M / q^(degree+1) M as a weight-homogeneous
        element of the presentation.

        a*T^degree lies in the Rees algebra of M exactly when its normal form
        against the Rees basis is free of T (subalgebra membership,
        Shannon-Sweedler 1988); that normal form is then a polynomial in the
        x- and y-variables with the same image in the Rees algebra, and it is
        reduced modulo the presentation.  With weights 0, 1, 1 on x, y and T
        the Rees ideal is homogeneous, so its reduced basis is too, and the
        normal form of a*T^degree already has weight ``degree``.  An element
        outside q^degree M raises ValidationError; one inside it whose class
        in M is zero maps to 0.
        """
        self._check_ring(a)
        if presentation.y_offset == 0:
            raise ValidationError("presentation has no degree-0 slots; use the elimination route")
        big, gb = self._rees_basis()
        t_index = big.nvars - 1
        lifted = normal_form(a.map_to(big, list(range(self.ring.nvars)))
                             * big.var(t_index) ** degree, gb)
        if any(m[t_index] for m in lifted.terms):
            raise ValidationError(f"element is not in power {degree} of the filtration "
                                  "ideal on the module")
        image = presentation.reduce(lifted.map_to(presentation.ring, list(range(t_index)) + [0]))
        if not presentation.is_y_homogeneous(image):
            raise ConsistencyError("graded image came out inhomogeneous")
        return image

    # -- derived contexts ---------------------------------------------------------------

    def quotient_by_element(self, b: Polynomial) -> "FiltrationContext":
        """Context for M/bM: the module ideal grows by b; ring, q, and the
        system (validated modulo I_A) are unchanged."""
        self._check_ring(b)
        return FiltrationContext(
            self.ring, self.base_generators, self.module_generators + (b,),
            self.q_generators, (), probe_cap=self.probe_cap,
            step_budget=self.step_budget,
            _validated_system=self.system,
        )

    def with_exponent_system(self, pairs) -> "FiltrationContext":
        """Same data with a system given by (element, exponent) pairs where
        only membership in that power is required.

        The exponent need not be the initial degree (the element may sit
        deeper); such systems drive level scans but not the graded routes.
        """
        validated = []
        for element, exponent in pairs:
            if self.ideal_a.contains(element):
                raise ValidationError(f"system element {element} is zero in the base ring")
            if exponent < 0 or not self.q_power(exponent, "base").contains(element):
                raise ValidationError(
                    f"element {element} is not in power {exponent} of the filtration ideal"
                )
            computed = self.initial_degree(element)
            validated.append(
                SystemElement(element, exponent, zero_flag=False,
                              exact=(computed == exponent))
            )
        return FiltrationContext(
            self.ring, self.base_generators, self.module_generators,
            self.q_generators, (), probe_cap=self.probe_cap,
            step_budget=self.step_budget,
            _validated_system=tuple(validated),
        )

    def _check_ring(self, f: Polynomial):
        if f.ring != self.ring:
            raise RingMismatchError("element lives in a different ring")

    def __str__(self):
        return (
            f"context over {self.ring}: |I_A|={len(self.base_generators)}, "
            f"|I_M|={len(self.module_generators)}, q=({', '.join(str(g) for g in self.q_generators)}), "
            f"system=({', '.join(str(s.element) for s in self.system)})"
        )
