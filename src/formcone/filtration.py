"""Adic filtration toolkit for cyclic modules M = A/I_M over A = P/I_A.

Provides initial degrees along the q-adic filtration, Rees-algebra and
associated-graded (form ring) presentations by tag-variable elimination or,
where q is generated by the variables, from the lowest-form tangent cone.
The grade recursion builds no context for M/bM: it quotients the form
presentation by each regular initial form b*, since
G_{M/bM}(q) = G_M(q)/b*G_M(q) then; the tests replay its certificates
through contexts for M/bM.  This module builds
every graded presentation, a plain ``graded.GradedQuotientPresentation``
that keeps no reference to the context, and maps ring elements into it
(``graded_image``); ``graded`` reads presentations and never imports this
module, and ``criterion`` reads both.  A context's inputs are immutable,
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

Inputs whose q is generated by the ring's variables skip that basis.  When
q's generators are exactly the variables, each once with coefficient 1 in
any order, q + I_A = m and G_M(m) = P[y] / ((x) + in(I_M)(y)), where in(I_M)
is the ideal of lowest forms of I_M's elements (the tangent cone) and y_j
stands for the variable of q's j-th generator.  So the form presentation is
generated by the x-variables and in(I_M) rewritten in the y's; its core
(``graded``) drops the x-variables, so every graded question runs in k[y]
modulo in(I_M)(y).  Where I_M is homogeneous, in(I_M) = I_M and its reduced
basis serves (Bruns-Herzog 4.5, Eisenbud 5.1); otherwise in(I_M) comes
from one basis run in n+1 variables, Lazard's homogenization (EUROCAL
1983), instead of the Rees run in 2n+1.  The image of a in degree d is a's
degree-d part rewritten so, once its parts below d lie in I_M; an
inhomogeneous I_M may still hold a in m^d + I_M otherwise, and that case
takes the Rees normal form.  The Rees presentation, and every other input,
keep the Rees basis; the tests cross-check the two routes.

The power ladder q^n M = q^n + I_M is built level by level from the
identity (q^(n-1) + I_M) * q + I_M = q^n + I_M, multiplying the previous
level's reduced basis, reduced modulo I_M, by q's generators instead of
forming all degree-n products.  It is built on demand: ``q_power(n)``
forms nothing, and a level's generators are formed when they or its basis
are first read, together with every unformed level below it.  The level
scan names q^n M for every level but reads it only where a chain leaves
it or a premise check needs it.  The ladder q^n + I_A, which system
validation reads, is the same method on ``ctx.base``, the context of M = A;
when M = A the two are one.

Where q + I_A is the ideal m of all variables, the ladder's low levels and
the initial degrees are read off orders.  Then m^n = (q + I_A)^n lies in
q^n + I_A, and q lies in m, so q^n + I_M = m^n + I_M for every n.  Where
q's generators are the variables, q + I_A = I_A + m is m when every
generator of I_A vanishes at the origin and (1) otherwise (m is maximal),
so its reduced basis is the variables, sorted, or 1, with no basis run.
Let o be the order of I_M, the least lowest degree of its nonzero
generators (every element of I_M has lowest degree at least o; o is
infinite for I_M = 0).  For n <= o, I_M lies in m^n, so q^n M = m^n, whose
reduced basis is the degree-n monomials; the ladder above o grows from
level o.  So construction checks level one, q + I_M = m + I_M, with no
basis run: it is m for o >= 1 and (1), which is refused, for o = 0.  An
element a of lowest degree c0 < o has initial degree c0: it lies in m^c0,
and a - f in m^(c0+1) with f in I_M would give f the lowest form of a, so
o <= ord f = c0.

Graded inputs skip the ladder too.  When I_M is homogeneous and q + I_A is
m, q^n + I_M = m^n + I_M, whose reduced basis is read off I_M's
(``graded_power_basis``): the elements of degree below n, plus the
degree-n monomials that none of their leads divides.  Such a level
(``graded_power_sum``), like a level n <= o above, is named at once and
listed only when its generators or its basis are first read, so a
certified record, which names q^n M and reads neither, lists none of the
C(n+k-1, k-1) degree-n monomials in k variables.  The initial degree
of a is the lowest degree of its normal form modulo I_M: a homogeneous
basis under a degree order reduces each homogeneous part of a by itself,
so a lies in m^c + I_M exactly when that normal form has no term below
degree c.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

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
from .rings import Polynomial, PolynomialRing, block_order, exponents, mono_divides

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
    divides; sorted by ascending lead, as the engine returns them.  In one
    degree, DEGREVLEX ranks m below m' when reversed(m) is lex-greater than
    reversed(m'), so the reversed tuples of ``exponents`` (ascending lex),
    taken last first, ascend.
    """
    low = tuple(g for g in basis if g.total_degree() < n)
    leads = [g.leading_monomial() for g in low]
    one = ring.field.coerce(1)
    monos = [m[::-1] for m in reversed(exponents(ring.nvars, n))]
    return low + tuple(Polynomial(ring, {m: one}) for m in monos
                       if not any(mono_divides(lead, m) for lead in leads))


def _variable_slots(gens) -> tuple[int, ...] | None:
    """The index of the variable each generator is, when every generator is
    a single variable with coefficient 1; else None."""
    slots = []
    for g in gens:
        terms = list(g.terms.items())
        if len(terms) != 1 or sum(terms[0][0]) != 1 or terms[0][1] != g.ring.field.coerce(1):
            return None
        slots.append(terms[0][0].index(1))
    return tuple(slots)


def graded_power_sum(ideal: PresentedIdeal, n: int) -> PresentedIdeal:
    """m^n + J for an ideal J under DEGREVLEX that is homogeneous or lies in
    m^n, in J's ring, base and order.  The sum is named here and listed
    when its generators or its basis are first read: both are then the
    ``graded_power_basis`` listing of J's reduced basis.  Where J lies in
    m^n, no element of J has degree below n and the listing is m^n's."""
    return _Level(ideal, n)


class _Level(PresentedIdeal):
    """An ideal whose generators and reduced basis are formed when something
    first reads either.  It forms in one of two ways:

    - listed: m^n + J (``graded_power_sum``), whose generators are the
      ``graded_power_basis`` listing of J's reduced basis, which is also
      its reduced basis, so no basis run follows;
    - from the level below: q^n + I_M on a ladder above its closed forms
      (``FiltrationContext.q_power``), whose generators are I_M's followed
      by the products, as ``sum_with`` lists them, and whose basis run
      extends I_M's reduced basis as a settled block.

    Until then the ``generators`` slot is unset, so reading it reaches
    ``__getattr__``, which forms this level and every unformed level below
    it in one upward loop; ``groebner`` lists a listed level first.  A
    formed level is a plain ``PresentedIdeal`` to every reader.
    """

    __slots__ = ("_below", "_q", "_listing")

    def __init__(self, summand: PresentedIdeal, n: int, below: PresentedIdeal | None = None,
                 q_gens=()):
        """Level n: m^n + ``summand``, listed, when ``below`` is None; else
        q^n + I_M, with ``summand`` = I_M, from ``below``, level n - 1."""
        super().__init__(summand.ring, summand.base, (), summand.step_budget, summand.order)
        del self.generators
        self._below, self._q, self._listing = below, q_gens, None
        if below is None:
            self._listing = (summand, n)
        else:
            self._extends = summand

    def __getattr__(self, name):
        if name != "generators":  # only the generators of an unformed level are unset
            raise AttributeError(name)
        pending, level = [self], self._below
        while isinstance(level, _Level) and level._below is not None:
            pending.append(level)
            level = level._below
        for level in reversed(pending):
            level._form()
        return self.generators

    def groebner(self) -> GroebnerBasis:
        if self._listing is not None:
            self._form()
        return super().groebner()

    def _form(self):
        """Set the generators by listing, or from the formed level below
        (the identity in ``FiltrationContext.q_power``)."""
        if self._listing is not None:
            summand, n = self._listing
            basis = graded_power_basis(self.ring, summand.groebner().generators, n)
            self.generators, self._listing = basis, None
            self._gb = GroebnerBasis(basis, self.order)
            return
        module = self._extends
        prev = self._below.groebner().generators
        if module.combined():
            prev = normal_forms(prev, module.groebner())
        self.generators = module.generators + tuple(dict.fromkeys(
            g * f for g in prev if not g.is_zero() for f in self._q))
        self._below = None


class FiltrationContext:
    """The tuple (A = P/I_A, cyclic M = A/I_M, filtration ideal q, system a).

    Three layers, each with one owner.  ``base`` is the context of M = A
    over the same A, q, ``probe_cap`` and ``step_budget`` (a context built
    with no module is its own); only it builds and checks I_A, q + I_A,
    ``local_model_mismatch``, the presentation ring and the q^n + I_A
    ladder.  The module layer holds I_M, its ladder and the presentations,
    the system layer the system; derived contexts replace one layer and
    share the rest.

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
        if not self.ideal_a.is_proper():
            raise ValidationError("base ideal is the unit ideal")
        # the variable ideal m is maximal: I_A + m is m if every base generator
        # vanishes at 0, else (1), and the proper q + I_A is m iff it holds every variable
        inside = all(g.min_degree() != 0 for g in base_gens)
        self.local_model_mismatch = inside and any(g.min_degree() == 0 for g in q_gens)
        self._q_slots = slots = _variable_slots(q_gens)
        n, s = ring.nvars, len(q_gens)
        variables = slots is not None and set(slots) == set(range(n))
        if variables:  # q + I_A = I_A + m, seeded with its reduced basis
            self.q_ideal = self.ideal_a.spawn_reduced(
                graded_power_basis(ring, (), 1) if inside else (ring.one(),), q_gens)
        else:
            self.q_ideal = self.ideal_a.sum_with(*q_gens)
        if not self.q_ideal.is_proper():
            raise ValidationError("filtration ideal is not proper")
        self.q_is_m = variables or all(self.q_ideal.contains(v) for v in ring.gens())
        # the ring P[y] of the Rees and form presentations, one y-variable per
        # generator of q after the x-variables, with weight 0 on the x's and
        # 1 on the y's
        self._pres_ring = ring.extend(ring.fresh_names("y", s))
        self._pres_weights = (0,) * n + (1,) * s
        # where q's generators are the variables (see the module docstring):
        # the slot of each variable's y in the presentation ring
        self._to_y = None
        if slots is not None and sorted(slots) == list(range(n)):
            self._to_y = [n + slots.index(i) for i in range(n)]

    def _set_module(self, module_gens: tuple):
        self.module_generators, self.ideal_m, level_one = module_gens, self.ideal_a, self.q_ideal
        if module_gens:
            self.ideal_m = self.ideal_a.sum_with(*module_gens)
            if not self.ideal_m.is_proper():
                raise ValidationError("module is zero (module ideal is the unit ideal)")
        # the order o of I_M: the least lowest degree of its nonzero generators
        self._im_order = min((g.min_degree() for g in self.ideal_m.combined() if not g.is_zero()),
                             default=math.inf)
        if module_gens:
            if self.q_is_m:  # q + I_M = m + I_M: m when I_M lies in m (o >= 1), else (1)
                ring = self.ring
                basis = graded_power_basis(ring, (), 1) if self._im_order >= 1 else (ring.one(),)
                level_one = self.ideal_m.spawn_reduced(
                    basis, self.ideal_m.generators + self.q_generators)
            else:
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
        try:
            return self.base.initial_degree(element)
        except ValidationError:  # initial_degree's one refusal: the element is zero
            raise ValidationError(f"system element {element} is zero in the base ring") from None

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
        create reduce to zero.  Zero remainders are dropped and the products
        deduplicated in order; they follow I_M's generators, and the level's
        basis run extends I_M's reduced basis as a settled block.

        Naming a level forms nothing: this returns level n at once, and its
        generators are formed when its generators or its reduced basis are
        first read.  That read forms every unformed level below n, upward,
        and so runs the bases of the levels below n that are not yet
        computed; level n's own basis runs when that basis is read.  A
        level that nothing reads, such as the certified record q^n M or a
        chain that never leaves it, costs no basis computation.

        Where ``is_graded()`` holds, each higher level is the closed form
        m^n + I_M of ``graded_power_sum`` instead, with no basis computation.
        Where q + I_A is m but I_M is not homogeneous, q^n M = m^n + I_M too,
        and I_M lies in m^n for n <= o, the order of I_M (the least lowest
        degree of its nonzero generators): each such level is m^n, whose
        reduced basis is the degree-n monomials, with no basis computation,
        and the levels above o grow from level o by the identity above.  A
        closed form is named at once too: its generators and reduced basis,
        both the ``graded_power_basis`` listing of I_M's reduced basis, are
        listed when either is first read.
        """
        cache = self._powers
        if n in cache:
            return cache[n]
        if self.q_is_m and (self._graded or n <= self._im_order):
            cache[n] = graded_power_sum(self.ideal_m, n)
            return cache[n]
        top = self._im_order if self.q_is_m else 1  # the highest closed form, below n
        self.q_power(top)
        for level in range(top + 1, n + 1):
            if level not in cache:
                cache[level] = _Level(self.ideal_m, level, cache[level - 1], self.q_generators)
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
        """Largest c < probe_cap with a in q^c M; None once a lies in
        q^probe_cap M, which by convention means the initial form is zero.
        ``base.initial_degree`` is the degree modulo I_A.

        In general this probes q^c M for c = 1, 2, ... and stops at the
        first power that misses a.  Where q + I_A is m (the module
        docstring has the proofs):

        - where ``is_graded()`` holds, it is the lowest degree of the normal
          form of a modulo I_M, with no probe;
        - otherwise, with c0 the lowest degree of a and o the order of I_M,
          it is c0 when c0 < o, with no probe; when c0 >= o, a lies in
          m^c0, so the probe starts at c0 + 1.
        """
        self._check_ring(a)
        if self._graded:
            residue = normal_form(a, self.ideal_m.groebner())
            if residue.is_zero():
                raise ValidationError("element is zero in the quotient; no initial degree")
            degree = residue.min_degree()
            return degree if degree < self.probe_cap else None
        start = 1
        if self.q_is_m and not a.is_zero():
            degree = a.min_degree()
            if degree < self._im_order:
                return degree if degree < self.probe_cap else None
            start = degree + 1
        if self.ideal_m.contains(a):
            raise ValidationError("element is zero in the quotient; no initial degree")
        for c in range(start, self.probe_cap + 1):
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
            big = self._pres_ring.extend((self._pres_ring.fresh_name("T"),))
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
        pres_ring = self._pres_ring
        keep = []
        for g in gb.generators:
            if all(m[t_index] == 0 for m in g.terms):
                keep.append(g.map_to(pres_ring, list(range(t_index)) + [0]))
        return GradedQuotientPresentation(
            pres_ring, self._pres_weights,
            PresentedIdeal(pres_ring, (), tuple(keep), self.step_budget),
        )

    def _rees_form(self) -> GradedQuotientPresentation:
        """The form presentation by the Rees route: the Rees presentation
        plus q's generators in the degree-0 variables."""
        pres_ring, emb = self._pres_ring, list(range(self.ring.nvars))
        gens = self.rees_presentation().ideal.generators + tuple(
            f.map_to(pres_ring, emb) for f in self.q_generators)
        return GradedQuotientPresentation(
            pres_ring, self._pres_weights, PresentedIdeal(pres_ring, (), gens, self.step_budget))

    def form_presentation(self) -> GradedQuotientPresentation:
        """Associated-graded presentation of M: the Rees presentation modulo
        the filtration ideal rewritten in the degree-0 variables.

        Where q's generators are the ring's variables, no Rees basis is
        computed: the ideal is generated by the x-variables and the
        lowest-form cone of I_M, each variable replaced by its y (the module
        docstring).  The cone is I_M's reduced basis where ``is_graded()``
        holds, else the cone that ``tangent_cone_direct`` returns."""
        key = ("form",)
        if key in self._presentations:
            return self._presentations[key]
        if self._to_y is None:
            pres = self._rees_form()
        else:
            pres_ring = self._pres_ring
            cone = (self.ideal_m.groebner().generators if self._graded
                    else self._lowest_form_cone().ideal.generators)
            gens = pres_ring.gens()[:self.ring.nvars] + tuple(
                g.map_to(pres_ring, self._to_y) for g in cone)
            pres = GradedQuotientPresentation(pres_ring, self._pres_weights,
                                              PresentedIdeal(pres_ring, (), gens, self.step_budget))
        core = pres.core  # the split variables are homogeneous
        for g in core.groebner().generators:
            if not g.is_homogeneous(core.weights):
                raise ConsistencyError("form presentation is not weight-homogeneous")
        self._presentations[key] = pres
        return pres

    def _lowest_form_cone(self) -> GradedQuotientPresentation:
        """The lowest-form cone of I_M by Lazard's homogenization (EUROCAL
        1983), computed once per context: homogenize I_M's generators with
        an auxiliary variable h (each term m of f gains h^(deg f - |m|)),
        run one basis under an order that ranks h first, and keep the top-h
        slice, the lowest x-degree part, of each basis element."""
        key = ("cone",)
        if key in self._presentations:
            return self._presentations[key]
        n = self.ring.nvars
        big = self.ring.extend((self.ring.fresh_name("h"),))
        homogenized = [Polynomial(big, {m + (top - sum(m),): c for m, c in f.terms.items()})
                       for f in self.ideal_m.combined() if (top := f.total_degree()) >= 0]
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

    def tangent_cone_direct(self) -> GradedQuotientPresentation:
        """The tangent cone G_M(m) by the lowest-form route; requires q to be
        the full variable ideal of A.

        Where q's generators are the variables, ``form_presentation`` is
        built from this cone, so it is no independent check of that
        presentation; the Rees route is (``origin_cone``).
        """
        if not self.q_is_m:
            raise ValidationError("direct cone route needs q = (all variables)")
        return self._lowest_form_cone()

    def origin_cone(self) -> GradedQuotientPresentation:
        """G_M(m), the tangent cone of M at the origin, by the route that
        ``form_presentation`` did not take: the Rees-route form where q's
        generators are the variables (q = m, and the form was read off I_M
        or its lowest-form cone), else the lowest-form cone.  Its dimension
        is that of M at the origin, whatever q is."""
        return self._rees_form() if self._to_y is not None else self._lowest_form_cone()

    def variable_cone(self) -> GradedQuotientPresentation:
        """The form presentation with its y-variables renamed onto the
        ambient variables they present.

        Valid when every generator of q is a single variable and the degree-0
        part is the base field (every x-variable lies in the defining ideal).
        The result is directly comparable with ``tangent_cone_direct``; where
        q's generators are the variables, the form presentation is read off
        that cone, so the independent check is the Rees route.
        """
        n, slots = self.ring.nvars, self._q_slots
        if slots is None:
            raise ValidationError("filtration ideal generators are not single variables")
        form = self.form_presentation()
        for i in range(n):
            if not form.contains(form.ring.var(i)):
                raise ValidationError("degree-0 part of the presentation is not the base field")
        free = (g for g in form.groebner().generators if not any(any(m[:n]) for m in g.terms))
        gens = tuple(g.map_to(self.ring, list(range(n)) + list(slots)) for g in free)
        return GradedQuotientPresentation(
            self.ring, (1,) * n, PresentedIdeal(self.ring, (), gens, self.step_budget))

    # -- graded images of ring elements ---------------------------------------------

    def graded_image(self, a: Polynomial, degree: int) -> Polynomial:
        """Class of a in q^degree M / q^(degree+1) M as a weight-homogeneous
        element of the form presentation, reduced modulo it.

        a*T^degree lies in the Rees algebra of M exactly when its normal form
        against the Rees basis is free of T (subalgebra membership,
        Shannon-Sweedler 1988); that normal form is then a polynomial in the
        x- and y-variables with the same image in the Rees algebra, and it is
        reduced modulo the form presentation.  With weights 0, 1, 1 on x, y and T
        the Rees ideal is homogeneous, so its reduced basis is too, and the
        normal form of a*T^degree already has weight ``degree``.  An element
        outside q^degree M raises ValidationError; one inside it whose class
        in M is zero maps to 0.

        Where q's generators are the variables, this reads a's homogeneous
        parts first.  Let ``low`` be the sum of those below ``degree``.  When
        I_M contains ``low``, a is congruent to its parts of degree
        ``degree`` and up, which lie in m^degree, and its class is that of
        its degree-``degree`` part, each variable replaced by its y; no Rees
        basis is needed.  Against the Rees presentation that part stands for
        itself times T^degree, not a*T^degree; both have the one class in
        the form module.  Otherwise a graded I_M puts a outside
        q^degree M = m^degree + I_M, and any other I_M takes the Rees normal
        form above, which decides membership (a = x lies in m^2 + (x - y^2)).
        """
        self._check_ring(a)
        presentation = self.form_presentation()
        inside = False
        if self._to_y is not None:
            inside = self.ideal_m.contains(
                Polynomial(self.ring, {m: c for m, c in a.terms.items() if sum(m) < degree}))
            lifted = a.homogeneous_part(degree).map_to(presentation.ring, self._to_y)
        if not inside and not (self._to_y is not None and self._graded):
            big, gb = self._rees_basis()
            t_index = big.nvars - 1
            lifted = normal_form(a.map_to(big, list(range(self.ring.nvars)))
                                 * big.var(t_index) ** degree, gb)
            inside = not any(m[t_index] for m in lifted.terms)
            lifted = lifted.map_to(presentation.ring, list(range(t_index)) + [0])
        if not inside:
            raise ValidationError(f"element is not in power {degree} of the filtration "
                                  "ideal on the module")
        image = presentation.reduce(lifted)
        if not image.is_homogeneous(presentation.weights):
            raise ConsistencyError("graded image came out inhomogeneous")
        return image

    # -- derived contexts ---------------------------------------------------------------

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
