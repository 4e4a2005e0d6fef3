"""Adic filtration toolkit for cyclic modules M = A/I_M over A = P/I_A.

Provides initial degrees along the q-adic filtration, Rees-algebra and
associated-graded (form ring) presentations by tag-variable elimination, a
direct lowest-form tangent-cone route for cross-checking, and the passage
M -> M/bM used by the depth recursion.  This module builds every graded
presentation, a plain ``graded.GradedQuotientPresentation`` that keeps no
reference to the context, and maps ring elements into it (``graded_image``);
``graded`` reads presentations and never imports this module, and
``criterion`` reads both.  A context's inputs are immutable,
but it memoises in place (powers, presentations, and the ``scratch`` space
where the criterion grows its level chains), so one context and those
derived from it, which share its ``base``, must not be scanned from two
threads at once.

One basis per context, of I_M + (y_j - f_j T) under an order that eliminates
the tag T, serves both presentations and the graded images.  The image of a
in degree d is the class of a in q^d M / q^(d+1) M: a lies in q^d M exactly
when the normal form of a*T^d against that basis is free of T, and the
T-free normal form is then a polynomial in the x- and y-variables that
presents the image.

The power ladder q^n M = q^n + I_M is built level by level from the
identity (q^(n-1) + I_M) * q + I_M = q^n + I_M, multiplying the previous
level's reduced basis, reduced modulo I_M, by q's generators instead of
forming all degree-n products.  The ladder q^n + I_A, which system
validation reads, is the same method on ``ctx.base``, the context of M = A;
when M = A the two are one.

Graded inputs skip the ladder.  When I_M is homogeneous and q + I_A is the
ideal m of all variables, q^n + I_M = m^n + I_M, whose reduced basis is read
off I_M's (``graded_power_basis``): the elements of degree below n, plus the
degree-n monomials that none of their leads divides.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import combinations_with_replacement

from .errors import ConsistencyError, RingMismatchError, ValidationError
from .graded import GradedQuotientPresentation
from .groebner import (
    DEFAULT_STEP_BUDGET,
    GroebnerBasis,
    buchberger,
    normal_form,
    normal_forms,
)
from .ideals import PresentedIdeal
from .rings import DEGREVLEX, Polynomial, PolynomialRing, block_order, mono_divides

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


class FiltrationContext:
    """The tuple (A = P/I_A, cyclic M = A/I_M, filtration ideal q, system a).

    Three layers, each with one owner.  ``base`` is the context of M = A
    over the same A, q, ``probe_cap`` and ``step_budget`` (a context built
    with no module is its own); only it builds and checks I_A, q + I_A,
    ``local_model_mismatch``, the q-products and the q^n + I_A ladder.  The
    module layer holds I_M, its ladder and the presentations, the system
    layer the system; derived contexts replace one layer and share the rest.

    Construction verifies that q is proper, that M and M/qM are nonzero, and
    that every system element has the claimed initial degree modulo I_A.
    ``local_model_mismatch`` flags inputs whose filtration ideal is not
    contained in the variable ideal; affine results then need not match the
    power-series picture and reports say so.  ``q_is_m`` records whether
    q + I_A is the ideal m of all variables, the condition of the graded
    ladder and of ``tangent_cone_direct``.
    """

    def __init__(self, ring: PolynomialRing, base_gens, module_gens, q_gens,
                 system, probe_cap: int = DEFAULT_PROBE_CAP,
                 step_budget: int = DEFAULT_STEP_BUDGET):
        base_gens, module_gens, q_gens = tuple(base_gens), tuple(module_gens), tuple(q_gens)
        for f in base_gens + module_gens + q_gens:
            if f.ring != ring:
                raise RingMismatchError("context data from a different ring")
        if module_gens:  # share the base layer of the context of M = A
            vars(self).update(vars(FiltrationContext(
                ring, base_gens, (), q_gens, (), probe_cap, step_budget)))
        else:
            self._set_base(ring, base_gens, q_gens, probe_cap, step_budget)
        self._set_module(module_gens)
        self._set_system(tuple(self._validated(entry) for entry in system))

    # -- layers ------------------------------------------------------------------

    def _set_base(self, ring, base_gens, q_gens, probe_cap, step_budget):
        self.base = self
        self.ring, self.probe_cap, self.step_budget = ring, probe_cap, step_budget
        self.base_generators, self.q_generators = base_gens, q_gens
        if not q_gens:
            raise ValidationError("filtration ideal needs at least one generator")
        self.ideal_a = PresentedIdeal(ring, base_gens, (), step_budget)
        self.q_ideal = self.ideal_a.spawn(q_gens)
        if not self.ideal_a.is_proper():
            raise ValidationError("base ideal is the unit ideal")
        if not self.q_ideal.is_proper():
            raise ValidationError("filtration ideal is not proper")
        # the variable ideal m is maximal: I_A + m is m if every base generator
        # vanishes at 0, else (1), and the proper q + I_A is m iff it holds every variable
        self.local_model_mismatch = (all(g.min_degree() != 0 for g in base_gens)
                                     and any(g.min_degree() == 0 for g in q_gens))
        self.q_is_m = all(self.q_ideal.contains(v) for v in ring.gens())
        self._products: dict[int, tuple] = {}

    def _set_module(self, module_gens: tuple):
        self.module_generators, self.ideal_m, level_one = module_gens, self.ideal_a, self.q_ideal
        if module_gens:
            self.ideal_m = self.ideal_a.spawn(module_gens)
            if not self.ideal_m.is_proper():
                raise ValidationError("module is zero (module ideal is the unit ideal)")
            level_one = self.ideal_m.sum_with(*self.q_generators)
            if not level_one.is_proper():
                raise ValidationError("filtration ideal acts as the unit ideal on the module")
        self._graded = self.q_is_m and all(
            g.is_homogeneous() for g in self.ideal_m.groebner().generators)
        self._powers: dict[int, PresentedIdeal] = {
            0: self.ideal_a.spawn_reduced((self.ring.one(),)), 1: level_one}
        self._presentations: dict = {}
        # memo space for higher layers: records are immutable, but level
        # chains and the colon sequence in it are extended in place
        self.scratch: dict = {}

    def _set_system(self, system: tuple[SystemElement, ...]):
        self.system = system
        self._system_powers: dict = {}
        self.scratch = {}

    def _base_degree(self, element: Polynomial) -> int | None:
        """Initial degree modulo I_A of a system element; zero in A is refused."""
        if self.ideal_a.contains(element):
            raise ValidationError(f"system element {element} is zero in the base ring")
        return self.base.initial_degree(element)

    def _validated(self, entry) -> SystemElement:
        element, claimed = entry if isinstance(entry, tuple) else (entry, None)
        degree = self._base_degree(element)
        if degree is None:
            return SystemElement(element, self.probe_cap, zero_flag=True)
        if claimed is not None and claimed != degree:
            raise ValidationError(
                f"claimed initial degree {claimed} for {element}, computed {degree}"
            )
        return SystemElement(element, degree)

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

    def q_power(self, n: int) -> PresentedIdeal:
        """q^n M, that is q^n + I_M, as a presented ideal with cached reduced
        basis; ``base.q_power`` is q^n + I_A.

        Level 0 is the unit ideal and level 1 the q + I_M that construction
        checked (``q_ideal`` when M = A), so neither runs a basis computation.
        Each higher level comes from the level below by the identity

            (q^(n-1) + I_M) * q + I_M = q^n + I_M        (I_M*q lies in I_M),

        so its generators are the products g*f, with f among q's generators
        and g among the reduced basis of q^(n-1) + I_M, plus I_M's
        generators.  That basis is far smaller than the C(n+k-1, k-1)
        products of degree n.  Each g is first reduced modulo I_M's basis,
        which keeps its class modulo I_M: the part of g inside I_M would only
        contribute products that already lie in I_M, and the S-pairs they
        create reduce to zero.  Zero remainders are dropped, the products
        deduplicated in order, and levels filled upward from the top one.

        Where ``is_graded()`` holds, each higher level is the closed form
        m^n + I_M of ``graded_power_basis`` instead, with no basis computation.
        """
        cache = self._powers
        if self._graded:
            if n not in cache:
                cache[n] = self.q_ideal.spawn_reduced(
                    graded_power_basis(self.ring, self.ideal_m.groebner().generators, n))
            return cache[n]
        for level in range(len(cache), n + 1):
            prev = cache[level - 1].groebner().generators
            if self.ideal_m.combined():
                prev = normal_forms(prev, self.ideal_m.groebner())
            gens = tuple(dict.fromkeys(
                g * f for g in prev if not g.is_zero() for f in self.q_generators
            ))
            cache[level] = self.ideal_a.spawn(gens + self.module_generators)
        return cache[n]

    def is_graded(self) -> bool:
        """True when I_M is homogeneous and q + I_A is the ideal m of all
        variables, so that q^n M = m^n + I_M for every n; ``base.is_graded``
        asks the same of I_A.  Read off bases that construction computed."""
        return self._graded

    def system_power(self, index: int, exponent: int) -> Polynomial:
        key = (index, exponent)
        if key not in self._system_powers:
            self._system_powers[key] = self.system[index].element ** exponent
        return self._system_powers[key]

    # -- initial degrees -------------------------------------------------------

    def initial_degree(self, a: Polynomial) -> int | None:
        """Largest c <= probe_cap with a in q^c M; None once the probe cap is
        hit, which by convention means the initial form is zero.
        ``base.initial_degree`` is the degree modulo I_A."""
        if self.ideal_m.contains(a):
            raise ValidationError("element is zero in the quotient; no initial degree")
        for c in range(1, self.probe_cap + 1):
            if not self.q_power(c).contains(a):
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
            PresentedIdeal(pres_ring, (), tuple(keep), self.step_budget),
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
            PresentedIdeal(pres_ring, (), gens, self.step_budget),
        )
        for g in pres.groebner().generators:
            if not g.is_homogeneous(pres.weights):
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
        if not self.q_is_m:
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
        )
        self._presentations[key] = pres
        return pres

    def variable_cone(self) -> GradedQuotientPresentation:
        """The form presentation with its y-variables renamed onto the
        ambient variables they present.

        Valid when every generator of q is a single variable and the degree-0
        part is the base field (every x-variable lies in the defining ideal).
        The result is directly comparable with ``tangent_cone_direct``.
        """
        n, one = self.ring.nvars, self.ring.field.coerce(1)
        slots: list[int] = []
        for g in self.q_generators:
            terms = list(g.terms.items())
            if len(terms) != 1 or sum(terms[0][0]) != 1 or terms[0][1] != one:
                raise ValidationError("filtration ideal generators are not single variables")
            slots.append(terms[0][0].index(1))
        form = self.form_presentation()
        for i in range(n):
            if not form.contains(form.ring.var(i)):
                raise ValidationError("degree-0 part of the presentation is not the base field")
        free = (g for g in form.groebner().generators if not any(any(m[:n]) for m in g.terms))
        gens = tuple(g.map_to(self.ring, list(range(n)) + slots) for g in free)
        return GradedQuotientPresentation(
            self.ring, (1,) * n, PresentedIdeal(self.ring, (), gens, self.step_budget))

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
        big, gb = self._rees_basis()
        t_index = big.nvars - 1
        if presentation.ring != big.drop((t_index,)):
            raise ValidationError("presentation is not over this context's Rees ring; "
                                  "use the elimination route")
        lifted = normal_form(a.map_to(big, list(range(self.ring.nvars)))
                             * big.var(t_index) ** degree, gb)
        if any(m[t_index] for m in lifted.terms):
            raise ValidationError(f"element is not in power {degree} of the filtration "
                                  "ideal on the module")
        image = presentation.reduce(lifted.map_to(presentation.ring, list(range(t_index)) + [0]))
        if not image.is_homogeneous(presentation.weights):
            raise ConsistencyError("graded image came out inhomogeneous")
        return image

    # -- derived contexts ---------------------------------------------------------------

    def quotient_by_element(self, b: Polynomial) -> "FiltrationContext":
        """Context for M/bM: this context with only its module layer
        replaced (I_M grows by b); base and system are shared."""
        self._check_ring(b)
        child = copy.copy(self)
        child._set_module(self.module_generators + (b,))
        return child

    def with_exponent_system(self, pairs) -> "FiltrationContext":
        """This context with only its system layer replaced, by a system given
        as (element, exponent) pairs where only membership in that power of
        q, modulo I_A, is required.

        The exponent need not be the initial degree (the element may sit
        deeper); such systems drive level scans but not the graded routes.
        """
        validated = []
        for element, exponent in pairs:
            computed = self._base_degree(element)
            if exponent < 0 or not self.base.q_power(exponent).contains(element):
                raise ValidationError(
                    f"element {element} is not in power {exponent} of the filtration ideal"
                )
            validated.append(SystemElement(element, exponent, exact=computed == exponent))
        child = copy.copy(self)
        child._set_system(tuple(validated))
        return child

    def _check_ring(self, f: Polynomial):
        if f.ring != self.ring:
            raise RingMismatchError("element lives in a different ring")

    def __str__(self):
        return (
            f"context over {self.ring}: |I_A|={len(self.base_generators)}, "
            f"|I_M|={len(self.module_generators)}, q=({', '.join(str(g) for g in self.q_generators)}), "
            f"system=({', '.join(str(s.element) for s in self.system)})"
        )
