"""Graded quotient presentations and their invariants.

A ``GradedQuotientPresentation`` is a plain value, k[variables]/H with one
weight per variable, built from its ring, weights and H alone; this module
knows nothing of filtrations.  ``filtration`` builds the Rees, form and
tangent-cone presentations and the graded images of ring elements, and
``criterion`` and the CLI read them through the functions here.

Everything here is exact: Hilbert functions expanded from the numerator K
of the Hilbert series, which one pivot recursion reads off the leading
ideal (Bayer-Stillman 1992, Bigatti 1997), regularity of homogeneous
elements by the presentation's memoised annihilator, grade by
Koszul-complex codepth (which needs no genericity and works over every
supported field), and depth by a greedy regular sequence stopped by a socle
witness or the dimension, with Koszul homology as its fallback.
``first_regular`` picks the first nonzero nonzerodivisor among candidates,
for ``depth`` and the criterion's regular forms alike.  Every one of these
reads one reduced basis, in the presentation's weighted order: that of the
presentation's core, which drops the variables that H contains (the
x-variables of G_M(m), or q's own variables on the Rees route), or of a
quotient's core, which extends it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import ConsistencyError, InfiniteComponentError, ValidationError
from .groebner import FreeModuleElement, GraphBasis, GroebnerBasis, normal_form, normal_forms
from .ideals import PresentedIdeal
from .rings import Monomial, Polynomial, PolynomialRing, minimal_monomials, weighted_order


def _variable(f: Polynomial) -> int | None:
    """The index of the variable that ``f`` is a nonzero multiple of, else None."""
    if len(f.terms) == 1:
        (m,) = f.terms
        if sum(m) == 1:
            return m.index(1)
    return None


def _restricted(f: Polynomial, ring: PolynomialRing, kept) -> Polynomial:
    """``f`` with every variable outside ``kept`` set to 0, in ``ring``,
    whose variables are those of ``kept``."""
    terms = {}
    for m, c in f.terms.items():
        e = tuple(m[i] for i in kept)
        if sum(e) == sum(m):
            terms[e] = c
    return Polynomial(ring, terms)


class GradedQuotientPresentation:
    """Polynomial presentation of a graded quotient k[variables]/H, a plain
    value built from its ring, one weight per variable and H.

    The form and Rees presentations give weight 0 to the variables of the
    degree-0 part and weight 1 to one variable per filtration-ideal
    generator; the direct tangent-cone route gives every variable weight 1.

    H is held in the presentation's weighted order (an ideal given in
    another order is rebuilt from its generators).  Every question reads
    the reduced basis of the ``core`` P'/J: the variables that are
    generators of H are 0 in P/H, so P/H = P'/J, where P' drops them and J
    is H's other generators with them set to 0.  A quotient's core extends
    its parent's, less every variable in the result.  Inputs are restricted
    to the core and answers lifted back.  H's reduced basis is the split
    variables and J's basis, sorted: the weighted order of P restricts to
    that of P', a variable and an element free of it have coprime leads,
    and neither reduces the other.
    """

    __slots__ = ("ring", "weights", "ideal", "_core", "_kept", "_quotients", "_annihilators")

    def __init__(self, ring: PolynomialRing, weights, ideal: PresentedIdeal):
        self.ring = ring
        self.weights = tuple(weights)
        order = weighted_order(self.weights)
        if ideal.order != order:
            ideal = PresentedIdeal(ideal.ring, ideal.base, ideal.generators, ideal.step_budget,
                                   order)
        self.ideal = ideal
        # the core and the variables of ``ring`` it keeps (None: all), set on first use
        self._core: GradedQuotientPresentation | None = None
        self._kept: tuple[int, ...] | None = None
        self._quotients: dict[tuple, GradedQuotientPresentation] = {}
        self._annihilators: dict[tuple, Polynomial | None] = {}
        if len(self.weights) != ring.nvars:
            raise ValidationError("one weight per presentation variable required")

    @property
    def order(self):
        return self.ideal.order

    @property
    def core(self) -> "GradedQuotientPresentation":
        """The presentation P'/J of the same graded ring (class docstring);
        the presentation itself when no generator of H is a variable."""
        if self._core is None:
            self._split(self.ideal.combined(), reduced=False)
        return self._core

    def _split(self, gens, reduced: bool):
        """Make the core: split off the variables among ``gens``, which
        generate H, and restrict the others to the ring of the rest; with
        ``reduced``, ``gens`` is H's reduced basis and so is the result J's."""
        gone = {i for g in gens if (i := _variable(g)) is not None}
        if not gone:
            self._core = self
            return
        kept = self._kept = tuple(i for i in range(self.ring.nvars) if i not in gone)
        ring = PolynomialRing(self.ring.field, tuple(self.ring.variables[i] for i in kept))
        weights = tuple(self.weights[i] for i in kept)
        rest = [h for g in gens if _variable(g) is None if (h := _restricted(g, ring, kept))]
        ideal = PresentedIdeal(ring, (), () if reduced else rest, self.ideal.step_budget,
                               weighted_order(weights))
        core = self._core = GradedQuotientPresentation(
            ring, weights, ideal.spawn_reduced(rest) if reduced else ideal)
        core._core = core

    def _restrict(self, f: Polynomial) -> Polynomial:
        """The image in the core ring: split variables set to 0."""
        return f if self._kept is None else _restricted(f, self._core.ring, self._kept)

    def _lift(self, f: Polynomial) -> Polynomial:
        """A core element as an element of ``ring``."""
        kept = self._kept
        if kept is None:
            return f
        zero = [0] * self.ring.nvars
        terms = {}
        for m, c in f.terms.items():
            e = list(zero)
            for i, x in zip(kept, m):
                e[i] = x
            terms[tuple(e)] = c
        return Polynomial(self.ring, terms)

    def groebner(self) -> GroebnerBasis:
        """H's reduced basis: computed where the presentation is its own
        core, else the split variables merged into the core's basis."""
        core = self.core
        if core is self:
            return self.ideal.groebner()
        basis = core.ideal.groebner().generators
        if basis and basis[0] == core.ring.one():
            return GroebnerBasis((self.ring.one(),), self.order)
        kept = set(self._kept)
        gens = [self.ring.var(i) for i in range(self.ring.nvars) if i not in kept]
        gens += [self._lift(g) for g in basis]
        key, order = self.order.key(), self.order
        gens.sort(key=lambda g: key(g.leading_monomial(order)))
        return GroebnerBasis(tuple(gens), order)

    def y_degree(self, mono: Monomial) -> int:
        return sum(w * e for w, e in zip(self.weights, mono))

    def reduce(self, f: Polynomial) -> Polynomial:
        return self._lift(normal_form(self._restrict(f), self.core.ideal.groebner()))

    def reduce_all(self, fs) -> tuple[Polynomial, ...]:
        """``reduce`` of each element, against one conversion of the basis."""
        core = self.core
        return tuple(self._lift(r) for r in normal_forms([self._restrict(f) for f in fs],
                                                          core.ideal.groebner()))

    def contains(self, f: Polynomial) -> bool:
        return normal_form(self._restrict(f), self.core.ideal.groebner()).is_zero()

    def is_proper(self) -> bool:
        return self.core.ideal.is_proper()

    def quotient_by(self, reps) -> "GradedQuotientPresentation":
        """Presentation of the quotient by the listed (homogeneous) elements:
        one per tuple of elements.  Its core is one basis run in the core
        ring that extends the core's basis by the restricted elements alone
        (``sum_with``), less every variable in the result."""
        return self._quotient(tuple(reps))

    def _quotient(self, reps: tuple) -> "GradedQuotientPresentation":
        if reps not in self._quotients:
            core = self.core
            quotient = GradedQuotientPresentation(self.ring, self.weights,
                                                  self.ideal.sum_with(*reps))
            if core is not self:
                inner = core._quotient(tuple(self._restrict(r) for r in reps))
                quotient._core, quotient._kept = inner._core, self._kept
                if inner._kept is not None:
                    quotient._kept = tuple(self._kept[i] for i in inner._kept)
            else:
                quotient._split(quotient.ideal.groebner().generators, reduced=True)
                if quotient._core is not quotient:  # the core holds the basis, not the value
                    quotient.ideal = self.ideal.sum_with(*reps)
            self._quotients[reps] = quotient
        return self._quotients[reps]

    def annihilator(self, reps) -> Polynomial | None:
        """The first generator of the reduced basis of (H : (reps)) outside H,
        unreduced: a nonzero class that every listed element kills.  None
        when (H : (reps)) = H.  One answer per tuple of restricted elements,
        from the core; an element of H restricts to 0, whose colon is the
        unit ideal, so it is left out."""
        witness = self.core._core_annihilator(tuple(filter(None, map(self._restrict, reps))))
        return witness and self._lift(witness)

    def _core_annihilator(self, reps) -> Polynomial | None:
        if reps not in self._annihilators:
            ann, witness = self.ideal.colon_ideal(self.ideal.spawn(reps)), None
            if not ann.equals(self.ideal):
                witness = next((g for g in ann.generators if not self.ideal.contains(g)), None)
                if witness is None:
                    raise ConsistencyError("annihilator grew but no generator lies outside H")
            self._annihilators[reps] = witness
        return self._annihilators[reps]


@dataclass(frozen=True)
class GradedElement:
    """A weight-homogeneous element of a graded quotient presentation."""

    presentation: GradedQuotientPresentation
    representative: Polynomial
    degree: int

    def __post_init__(self):
        pres = self.presentation
        if self.representative.ring != pres.ring:
            raise ValidationError("representative lives outside the presentation ring")
        for mono in self.representative.terms:
            if pres.y_degree(mono) != self.degree:
                raise ValidationError(
                    f"representative is not homogeneous of weight {self.degree}"
                )

    def is_zero(self) -> bool:
        return self.presentation.reduce(self.representative).is_zero()

    def __str__(self):
        return f"[{self.representative}]_{self.degree}"


@dataclass(frozen=True)
class KoszulWitness:
    """A cycle at homological index ``index`` that is not a boundary."""

    index: int
    cycle: tuple[Polynomial, ...]


@dataclass(frozen=True)
class RegularityResult:
    regular: bool
    witness: Polynomial | None = None

    def __bool__(self):
        return self.regular


@dataclass(frozen=True)
class GradeReport:
    """Grade value plus how it was obtained and a replayable certificate.

    ``value`` is ``math.inf`` exactly when the ideal acts as the unit ideal;
    the sentinel is reported, never clamped.
    """

    value: int | float
    method: str
    certificate: tuple = ()


# ---------------------------------------------------------------------------
# Hilbert function
# ---------------------------------------------------------------------------

def _numerator(leads: frozenset, weights, memo: dict) -> list[int]:
    """Coefficients of K(L) in HS(P/L) = K(L) / prod over w_i > 0 of
    (1 - t^w_i), for the monomial ideal L that ``leads`` generate.

    Pivot on a variable v of a lead with the widest support: K(L) =
    K(L + v) + t^w_v * K(L : v).  When every lead is a pure power x^a,
    each such lead contributes the factor 1 - t^(w*a), or a when w = 0."""
    key = leads
    if key in memo:
        return memo[key]
    leads = frozenset(minimal_monomials(leads))
    mixed = [m for m in leads if sum(1 for e in m if e) > 1]
    if (0,) * len(weights) in leads:
        value = []
    elif mixed:
        pivot = min(mixed, key=lambda m: (-sum(1 for e in m if e), m))
        v = next(i for i, e in enumerate(pivot) if e)
        unit = tuple(1 if i == v else 0 for i in range(len(weights)))
        value = _numerator(leads | {unit}, weights, memo)
        colon = _numerator(frozenset(m[:v] + (max(m[v] - 1, 0),) + m[v + 1:] for m in leads),
                           weights, memo)
        value = value + [0] * (weights[v] + len(colon) - len(value))
        for d, c in enumerate(colon):
            value[weights[v] + d] += c
    else:
        value = [1]
        for m in leads:
            v = next(i for i, e in enumerate(m) if e)
            shift = weights[v] * m[v]
            if not shift:
                value = [m[v] * c for c in value]
                continue
            value = value + [0] * shift
            for d in range(len(value) - 1 - shift, -1, -1):
                value[d + shift] -= value[d]
    memo[key] = value
    return value


def hilbert_function(pres: GradedQuotientPresentation, upto: int) -> list[int]:
    """dim_k of the weight-graded components 0..upto: the numerator K of
    the presentation's Hilbert series, expanded by one prefix sum of stride
    w for each positive weight w.

    Requires every weight-0 variable to be nilpotent modulo the defining
    ideal (the degree-0 part must be finite-dimensional), that is, bounded
    by a pure-power lead or by the constant lead of the unit ideal;
    otherwise raises InfiniteComponentError.
    """
    pres = pres.core  # the split variables are 0: the same components
    leads = frozenset(g.leading_monomial(pres.order) for g in pres.ideal.groebner().generators)
    for i, w in enumerate(pres.weights):
        if not w and not any(m[i] == sum(m) for m in leads):
            raise InfiniteComponentError(
                f"variable {pres.ring.variables[i]} has no bound in the leading ideal; "
                "graded components are infinite-dimensional"
            )
    values = _numerator(leads, pres.weights, {})[:upto + 1]
    values += [0] * (upto + 1 - len(values))
    for w in filter(None, pres.weights):
        for d in range(w, upto + 1):
            values[d] += values[d - w]
    return values


def graded_dim(pres: GradedQuotientPresentation) -> int:
    """Krull dimension of the presented graded quotient."""
    return pres.core.ideal.krull_dim()


# ---------------------------------------------------------------------------
# Regularity
# ---------------------------------------------------------------------------

def is_regular_element(b: GradedElement) -> RegularityResult:
    """Exact verdict: b is regular on its presentation k[variables]/H iff
    (H : b) = H; otherwise a nonzero annihilator class is returned as witness.

    Homogeneous elements of any degree are accepted; degree 0 arises from
    systems whose elements avoid the filtration ideal.
    """
    pres = b.presentation
    if b.degree < 0:
        raise ValidationError("regularity test expects nonnegative degree")
    witness = pres.annihilator((b.representative,))
    return RegularityResult(witness is None, witness and pres.reduce(witness))


# ---------------------------------------------------------------------------
# Koszul grade and depth
# ---------------------------------------------------------------------------

def _koszul_columns(reps: list[Polynomial], i: int, ring) -> list[FreeModuleElement]:
    """Columns of the Koszul differential d_i: Lambda^i -> Lambda^(i-1)."""
    index_of = {s: j for j, s in enumerate(combinations(range(len(reps)), i - 1))}
    cols = []
    zero = ring.zero()
    for subset in combinations(range(len(reps)), i):
        comps = [zero] * len(index_of)
        for k, member in enumerate(subset):  # each rest arises once, with sign (-1)^k
            rest = subset[:k] + subset[k + 1:]
            comps[index_of[rest]] = reps[member] if k % 2 == 0 else -reps[member]
        cols.append(FreeModuleElement(ring, comps))
    return cols


def koszul_grade(pres: GradedQuotientPresentation, generators) -> GradeReport:
    """grade of the ideal spanned by ``generators`` on the presented module,
    via the top nonvanishing Koszul homology index.

    Returns the +infinity sentinel when the generators act as the unit ideal.
    Deterministic: homology is probed from the top index downward and the
    first nonzero index decides.  Below the top index, the ``GraphBasis`` of
    d_i modulo H gives the cycles at i (kernel) and boundaries at i - 1 (image).
    It runs on the core: a graph basis in P is the core's plus each split
    variable at each position, a cycle and a boundary, so the witness is
    the core's, lifted.
    """
    gens = list(generators)
    for g in gens:
        if not isinstance(g, GradedElement):
            raise ValidationError("koszul_grade expects graded elements")
        if g.representative.ring != pres.ring:
            raise ValidationError("generator from a different presentation ring")
    return _lifted(pres, _koszul(pres.core, [pres._restrict(g.representative) for g in gens]))


def _lifted(pres: GradedQuotientPresentation, report: GradeReport) -> GradeReport:
    """A report on ``pres.core`` with its certificate lifted to ``pres``."""
    if pres.core is pres:
        return report
    return GradeReport(report.value, report.method, tuple(
        GradedElement(pres, pres._lift(e.representative), e.degree)
        if isinstance(e, GradedElement)
        else KoszulWitness(e.index, tuple(pres._lift(p) for p in e.cycle))
        for e in report.certificate))


def _koszul(pres: GradedQuotientPresentation, reps: list[Polynomial]) -> GradeReport:
    """``koszul_grade`` of ``reps`` on a presentation that is its own core."""
    r = len(reps)
    if not pres.quotient_by(reps).is_proper():
        return GradeReport(math.inf, "koszul")

    # top index: homology is the annihilator of the generator ideal
    if r > 0:
        witness = pres.annihilator(reps)
        if witness is not None:
            return GradeReport(0, "koszul", (KoszulWitness(r, (pres.reduce(witness),)),))

    h_gb = pres.ideal.groebner()

    def graph(i: int) -> GraphBasis:
        return GraphBasis(_koszul_columns(reps, i, pres.ring), pres.order,
                          pres.ideal.step_budget, [h_gb] * math.comb(r, i - 1))

    above = graph(r) if r > 1 else None
    for i in range(r - 1, 0, -1):
        here = graph(i)
        for residue in normal_forms(here.kernel, above.image):
            if not residue.is_zero():
                return GradeReport(
                    r - i, "koszul",
                    (KoszulWitness(i, tuple(residue.components)),),
                )
        above = here
    # all higher homology vanished; H_0 = G/(gens)G is nonzero by properness
    return GradeReport(r, "koszul")


def _candidates(gens: list[GradedElement], sizes):
    """Sums of ``size`` distinct generators of one weight, for each size."""
    for size in sizes:
        for combo in combinations(gens, size):
            if len({g.degree for g in combo}) == 1:
                rep = combo[0].representative
                for g in combo[1:]:
                    rep = rep + g.representative
                yield GradedElement(combo[0].presentation, rep, combo[0].degree)


def first_regular(pres: GradedQuotientPresentation, candidates,
                  killers: list[Polynomial]) -> GradedElement | None:
    """The first candidate that is nonzero and a nonzerodivisor on ``pres``.

    ``killers`` holds a nonzero class that each rejected candidate kills: a
    candidate that one of them, still nonzero in ``pres``, kills is a zero
    divisor without a colon."""
    for c in candidates:
        x = c.representative
        if pres.contains(x) or any(pres.contains(w * x) and not pres.contains(w)
                                   for w in killers):
            continue
        witness = pres.annihilator((x,))
        if witness is None:
            return c
        killers.append(witness)
    return None


def _socle_witness(cur: GradedQuotientPresentation, reps,
                   killers: list[Polynomial]) -> Polynomial | None:
    """A nonzero class of ``cur`` killed by every element of ``reps``: a
    known killer when one is, else the presentation's annihilator."""
    for w in cur.reduce_all(killers):
        if not w.is_zero() and all(cur.contains(w * g) for g in reps):
            return w
    witness = cur.annihilator(reps) if reps else None
    return witness and cur.reduce(witness)


def depth(pres: GradedQuotientPresentation) -> GradeReport:
    """Grade of the maximal homogeneous ideal I: all degree-0 and degree-1
    variable images that are nonzero in the quotient.

    Degree-0 residue generators are included deliberately (the degree-0 part
    need not be a field); reports carry this note.

    Route ``"regular-sequence"``: grow a sequence in I greedily.  Each element
    is a variable image, or a sum of two or three of one weight, that is
    nonzero and a nonzerodivisor modulo the earlier ones.  Stop at
      - a socle witness: a nonzero class of the quotient by the sequence that
        I kills.  Every element of I is then a zero divisor there, so the
        sequence is a maximal regular sequence in I, and all of those have
        the same length (Bruns-Herzog, Thm 1.2.5): depth = its length;
      - a sequence of length dim, or of length dim - 1 whose quotient has no
        socle, so that I holds a nonzerodivisor on it (BH Prop. 1.2.3).
        Depth is at most dim (BH Prop. 1.2.12), so depth = dim.
    The certificate is the sequence, then the socle witness when there is
    one, as the ``KoszulWitness`` of the top index on that quotient.  The
    socle is checked first, which gives the depth-0 verdict and witness of
    ``koszul_grade``, and then only when no variable image extends the
    sequence.  A class that a rejected candidate kills rejects later
    candidates, and answers later socle checks, without a colon.  The images
    generate the ring, so with one image dim is at most 1 and is not
    computed.  When no candidate extends the sequence and there is no socle
    (small fields, or every sum a zero divisor), the answer is
    ``koszul_grade`` on the same generators, route ``"koszul"``.  Both
    routes are exact and deterministic.  It runs on the core.
    """
    return _lifted(pres, _depth(pres.core))


def _depth(pres: GradedQuotientPresentation) -> GradeReport:
    """``depth`` on a presentation that is its own core."""
    # H plus every variable image is H + m, the unit ideal exactly when H
    # does not lie in m: when some generator of H has a constant term
    if any(g.min_degree() == 0 for g in pres.ideal.combined()):
        return GradeReport(math.inf, "regular-sequence")
    gens = []
    for i in range(pres.ring.nvars):
        v = pres.ring.var(i)
        if not pres.contains(v):
            gens.append(GradedElement(pres, v, pres.weights[i]))
    reps = [g.representative for g in gens]
    seq: list[GradedElement] = []
    killers: list[Polynomial] = []
    cur, dim = pres, None
    while True:
        x = first_regular(cur, _candidates(gens, (1,)), killers) if seq else None
        if x is None:
            witness = _socle_witness(cur, reps, killers)
            if witness is not None:
                return GradeReport(len(seq), "regular-sequence",
                                   (*seq, KoszulWitness(len(reps), (witness,))))
            if dim is None:
                dim = graded_dim(pres) if len(reps) > 1 else len(reps)
            if len(seq) >= dim - 1:
                return GradeReport(dim, "regular-sequence", tuple(seq))
            x = first_regular(cur, _candidates(gens, (2, 3) if seq else (1, 2, 3)), killers)
            if x is None:
                return koszul_grade(pres, gens)
        seq.append(x)
        if len(seq) == dim:
            return GradeReport(dim, "regular-sequence", tuple(seq))
        cur = cur.quotient_by([x.representative])


def is_system_of_parameters(pres: GradedQuotientPresentation, elems) -> bool:
    """True iff the count matches the dimension and the quotient by the
    elements is zero-dimensional."""
    elems = list(elems)
    d = graded_dim(pres)
    if len(elems) != d:
        return False
    if d == 0:
        return True
    reps = [e.representative for e in elems]
    return graded_dim(pres.quotient_by(reps)) == 0
