"""Adic filtration toolkit for cyclic modules M = A/I_M over A = P/I_A.

Provides initial degrees along the q-adic filtration, Rees-algebra and
associated-graded (form ring) presentations by tag-variable elimination, a
direct lowest-form tangent-cone route for cross-checking, and the passage
M -> M/bM used by the depth recursion.  Contexts are immutable; caches are
write-once and shared with derived contexts where sound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConsistencyError, RingMismatchError, ValidationError
from .groebner import DEFAULT_STEP_BUDGET, MembershipLifter, buchberger
from .ideals import PresentedIdeal
from .rings import (
    Monomial,
    Polynomial,
    PolynomialRing,
    block_order,
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


def _fresh_names(ring: PolynomialRing, stem: str, count: int) -> list[str]:
    taken = set(ring.variables)
    out: list[str] = []
    i = 1
    while len(out) < count:
        name = f"{stem}{i}"
        if name not in taken:
            out.append(name)
            taken.add(name)
        i += 1
    return out


class GradedQuotientPresentation:
    """Polynomial presentation of a graded quotient: k[x-vars, y-vars]/H.

    x-variables carry weight 0 (they present the degree-0 part), y-variables
    carry weight 1 (one per filtration-ideal generator).  For the direct
    tangent-cone route every variable has weight 1 and ``y_offset`` is 0.
    """

    __slots__ = ("ring", "weights", "ideal", "kind", "context", "y_offset", "_order")

    def __init__(self, ring: PolynomialRing, weights, ideal: PresentedIdeal,
                 kind: str, context, y_offset: int):
        self.ring = ring
        self.weights = tuple(weights)
        self.ideal = ideal
        self.kind = kind
        self.context = context
        self.y_offset = y_offset
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
        from .groebner import normal_form

        return normal_form(f, self.groebner())

    def contains(self, f: Polynomial) -> bool:
        return self.reduce(f).is_zero()

    def quotient_by(self, reps) -> "GradedQuotientPresentation":
        """Presentation of the quotient by the listed (homogeneous) elements."""
        return GradedQuotientPresentation(
            self.ring, self.weights, self.ideal.sum_with(*reps),
            self.kind, self.context, self.y_offset,
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
            PresentedIdeal(ambient, (), tuple(gens), self.ideal.step_budget),
            self.kind, ctx, 0,
        )

    def __str__(self):
        return f"{self.ring} / ({', '.join(str(g) for g in self.ideal.combined()) or '0'}) [{self.kind}]"


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
                 _validated_system: tuple[SystemElement, ...] | None = None,
                 _shared_products: dict | None = None):
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

        variable_ideal = PresentedIdeal(ring, self.base_generators, ring.gens(), step_budget)
        self.local_model_mismatch = not all(
            variable_ideal.contains(g) for g in self.q_generators
        )

        self._products: dict[int, tuple] = _shared_products if _shared_products is not None else {}
        self._powers_base: dict[int, PresentedIdeal] = {}
        self._powers_module: dict[int, PresentedIdeal] = {}
        self._system_powers: dict = {}
        self._lifters: dict[int, MembershipLifter] = {}
        self._presentations: dict = {}
        self.scratch: dict = {}  # memo space for higher layers; values immutable

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
        """Degree-n multiset products of q's generators as (exponent, polynomial) pairs."""
        if n in self._products:
            return self._products[n]
        s = len(self.q_generators)
        if n == 0:
            out = (((0,) * s, self.ring.one()),)
        else:
            prev = self.q_power_products(n - 1)
            seen: dict[tuple, Polynomial] = {}
            for expt, poly in prev:
                top = next((i for i in range(s - 1, -1, -1) if expt[i]), 0) if any(expt) else 0
                start = top if any(expt) else 0
                for i in range(start, s):
                    e = list(expt)
                    e[i] += 1
                    key = tuple(e)
                    if key not in seen:
                        seen[key] = poly * self.q_generators[i]
            out = tuple(sorted(seen.items()))
        self._products[n] = out
        return out

    def q_power(self, n: int, modulo: str = "module") -> PresentedIdeal:
        """q^n + I_M (or + I_A) as a presented ideal, with cached reduced basis."""
        cache = self._powers_module if modulo == "module" else self._powers_base
        if n not in cache:
            gens = tuple(p for _, p in self.q_power_products(n))
            if modulo == "module":
                ideal = PresentedIdeal(self.ring, self.base_generators,
                                       gens + self.module_generators, self.step_budget)
            else:
                ideal = PresentedIdeal(self.ring, self.base_generators, gens, self.step_budget)
            cache[n] = ideal
        return cache[n]

    def system_power(self, index: int, exponent: int) -> Polynomial:
        key = (index, exponent)
        if key not in self._system_powers:
            self._system_powers[key] = self.system[index].element ** exponent
        return self._system_powers[key]

    # -- initial degrees -------------------------------------------------------

    def initial_degree(self, a: Polynomial, cap: int | None = None,
                       modulo: str = "base") -> int | None:
        """Largest c <= cap with a in q^c (mod I_A or I_M); None once the probe
        cap is hit, which by convention means the initial form is zero."""
        cap = self.probe_cap if cap is None else cap
        zero_test = self.ideal_a if modulo == "base" else self.ideal_m
        if zero_test.contains(a):
            raise ValidationError("element is zero in the quotient; no initial degree")
        for c in range(1, cap + 1):
            if not self.q_power(c, modulo).contains(a):
                return c - 1
        return None

    # -- graded presentations -----------------------------------------------------

    def rees_presentation(self) -> GradedQuotientPresentation:
        """Presentation of the blowup algebra of M: eliminate the tag T from
        I_M + (y_j - f_j T)."""
        key = ("rees",)
        if key in self._presentations:
            return self._presentations[key]
        n = self.ring.nvars
        s = len(self.q_generators)
        y_names = _fresh_names(self.ring, "y", s)
        t_name = self.ring.fresh_name("T")
        big = self.ring.extend(tuple(y_names) + (t_name,))
        emb = list(range(n))
        t_index = n + s
        t = big.var(t_index)
        gens = [g.map_to(big, emb) for g in self.base_generators + self.module_generators]
        for j, f in enumerate(self.q_generators):
            gens.append(big.var(n + j) - f.map_to(big, emb) * t)
        gb = buchberger(gens, block_order((t_index,)), self.step_budget)
        pres_ring = big.drop((t_index,))
        keep = []
        for g in gb.generators:
            if all(m[t_index] == 0 for m in g.terms):
                keep.append(g.map_to(pres_ring, list(range(n + s)) + [0]))
        weights = (0,) * n + (1,) * s
        pres = GradedQuotientPresentation(
            pres_ring, weights,
            PresentedIdeal(pres_ring, (), tuple(keep), self.step_budget),
            "rees", self, n,
        )
        self._presentations[key] = pres
        return pres

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
            PresentedIdeal(pres_ring, (), gens, self.step_budget),
            "form-module", self, n,
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
        variable_ideal = PresentedIdeal(self.ring, self.base_generators,
                                        self.ring.gens(), self.step_budget)
        if not self.q_ideal.equals(variable_ideal):
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
            PresentedIdeal(self.ring, (), tuple(cone_gens), self.step_budget),
            "form-module", self, 0,
        )
        self._presentations[key] = pres
        return pres

    # -- graded images of ring elements ---------------------------------------------

    def _power_lifter(self, degree: int) -> MembershipLifter:
        if degree not in self._lifters:
            gens = [p for _, p in self.q_power_products(degree)] + list(self.base_generators)
            self._lifters[degree] = MembershipLifter(gens, step_budget=self.step_budget)
        return self._lifters[degree]

    def graded_image(self, a: Polynomial, degree: int,
                     presentation: GradedQuotientPresentation) -> Polynomial:
        """Image of a (in q^degree) as a weight-homogeneous element of the
        presentation: rewrite a over the degree-``degree`` products of q's
        generators and replace each product by the matching y-monomial."""
        if presentation.y_offset == 0:
            raise ValidationError("presentation has no degree-0 slots; use the elimination route")
        products = self.q_power_products(degree)
        lifter = self._power_lifter(degree)
        cofactors = lifter.lift(a)
        if cofactors is None:
            raise ValidationError(f"element is not in power {degree} of the filtration ideal")
        pres_ring = presentation.ring
        n = self.ring.nvars
        emb = list(range(n))
        acc = pres_ring.zero()
        for (expt, _), cof in zip(products, cofactors):
            if cof.is_zero():
                continue
            y_mono = (0,) * n + expt
            acc = acc + cof.map_to(pres_ring, emb) * pres_ring.monomial(y_mono)
        image = presentation.reduce(acc)
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
            _shared_products=self._products,
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
            _shared_products=self._products,
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
