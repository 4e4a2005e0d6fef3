"""Graded-module invariants of associated-graded presentations.

Everything here is exact: Hilbert functions by recursive standard-monomial
counting on the leading ideal, regularity of homogeneous elements by colon
comparison, and grade/depth by Koszul-complex codepth (which needs no
genericity and works over every supported field).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import ConsistencyError, InfiniteComponentError, ValidationError
from .filtration import FiltrationContext, GradedQuotientPresentation
from .groebner import FreeModuleElement, GraphBasis, normal_form
from .rings import Monomial, Polynomial


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

def _minimal_monomials(monos) -> frozenset:
    out = []
    for m in sorted(monos, key=sum):
        if not any(all(a <= b for a, b in zip(kept, m)) for kept in out):
            out.append(m)
    return frozenset(out)


def _pure_variable(m: Monomial) -> int | None:
    support = [i for i, e in enumerate(m) if e]
    return support[0] if len(support) == 1 else None


def _count_box(leads: frozenset, n: int, weights) -> int:
    """Base case: every lead is a pure power.  Convolve per-variable series."""
    caps = {}
    for m in leads:
        v = _pure_variable(m)
        caps[v] = min(caps.get(v, m[v]), m[v])
    series = [1] + [0] * n
    scalar = 1
    for i, w in enumerate(weights):
        cap = caps.get(i)
        if w == 0:
            if cap is None:
                raise InfiniteComponentError(
                    "weight-0 variable without a pure-power bound: component is infinite"
                )
            scalar *= cap
            continue
        limit = n if cap is None else min(cap - 1, n)
        nxt = [0] * (n + 1)
        for d in range(n + 1):
            if not series[d]:
                continue
            for e in range(0, min(limit, n - d) + 1):
                nxt[d + e] += series[d]
        series = nxt
    return scalar * series[n]


def _count_standard(leads: frozenset, n: int, weights, memo: dict) -> int:
    if n < 0:
        return 0
    key = (leads, n)
    if key in memo:
        return memo[key]
    leads = _minimal_monomials(leads)
    zero_mono = (0,) * len(weights)
    if zero_mono in leads:
        memo[key] = 0
        return 0
    mixed = [m for m in leads if _pure_variable(m) is None]
    if not mixed:
        value = _count_box(leads, n, weights)
    else:
        pivot_gen = min(mixed, key=lambda m: (-sum(1 for e in m if e), m))
        v = next(i for i, e in enumerate(pivot_gen) if e)
        unit = tuple(1 if i == v else 0 for i in range(len(weights)))
        with_v = frozenset(leads | {unit})
        colon = frozenset(
            tuple(max(e - 1, 0) if i == v else e for i, e in enumerate(m))
            for m in leads
        )
        value = (
            _count_standard(with_v, n, weights, memo)
            + _count_standard(colon, n - weights[v], weights, memo)
        )
    memo[key] = value
    return value


def hilbert_function(pres: GradedQuotientPresentation, upto: int) -> list[int]:
    """dim_k of the weight-graded components 0..upto.

    Requires every weight-0 variable to be nilpotent modulo the defining
    ideal (the degree-0 part must be finite-dimensional); otherwise raises
    InfiniteComponentError.
    """
    gb = pres.groebner()
    leads = frozenset(g.leading_monomial(pres.order) for g in gb.generators)
    for i, w in enumerate(pres.weights):
        if w:
            continue
        if not any(_pure_variable(m) == i for m in leads):
            raise InfiniteComponentError(
                f"variable {pres.ring.variables[i]} has no bound in the leading ideal; "
                "graded components are infinite-dimensional"
            )
    memo: dict = {}
    return [_count_standard(leads, n, pres.weights, memo) for n in range(upto + 1)]


def graded_dim(pres: GradedQuotientPresentation) -> int:
    """Krull dimension of the presented graded quotient."""
    return pres.ideal.krull_dim()


# ---------------------------------------------------------------------------
# Regularity
# ---------------------------------------------------------------------------

def annihilator_witness(pres: GradedQuotientPresentation, reps) -> Polynomial | None:
    """A nonzero class of the presented quotient killed by every element of
    ``reps``, or None when (H : (reps)) = H, i.e. no nonzero class is."""
    ann = pres.ideal.colon_ideal(pres.ideal.spawn(tuple(reps)))
    if ann.equals(pres.ideal):
        return None
    for g in ann.groebner().generators:
        w = pres.reduce(g)
        if not w.is_zero():
            return w
    raise ConsistencyError("annihilator grew but no witness survived reduction")


def is_regular_element(pres: GradedQuotientPresentation, b: GradedElement) -> RegularityResult:
    """Exact verdict: b is regular iff (H : b) = H; otherwise a nonzero
    annihilator class is returned as witness.

    Homogeneous elements of any degree are accepted; degree 0 arises from
    systems whose elements avoid the filtration ideal.
    """
    if b.presentation is not pres and b.presentation.ideal is not pres.ideal:
        if b.representative.ring != pres.ring:
            raise ValidationError("element belongs to a different presentation")
    if b.degree < 0:
        raise ValidationError("regularity test expects nonnegative degree")
    witness = annihilator_witness(pres, (b.representative,))
    return RegularityResult(witness is None, witness)


def colon_chain_regularity(ctx: FiltrationContext, b: Polynomial, d: int,
                           n_max: int = 10) -> bool:
    """Bounded colon test: (q^(n+d)M : b) = q^n M for all n <= n_max.

    Heuristic counterpart of the exact graded test; the two must agree on
    every instance where both run.
    """
    computed = ctx.initial_degree(b, modulo="module")
    if computed != d:
        raise ValidationError(f"stated degree {d} but initial degree is {computed}")
    for n in range(n_max + 1):
        lhs = ctx.q_power(n + d).colon(b)
        if not lhs.equals(ctx.q_power(n)):
            return False
    return True


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
    """
    gens = list(generators)
    for g in gens:
        if not isinstance(g, GradedElement):
            raise ValidationError("koszul_grade expects graded elements")
        if g.representative.ring != pres.ring:
            raise ValidationError("generator from a different presentation ring")
    reps = [g.representative for g in gens]
    r = len(reps)
    h_gb = pres.groebner()
    if not pres.ideal.sum_with(*reps).is_proper():
        return GradeReport(math.inf, "koszul")

    # top index: homology is the annihilator of the generator ideal
    if r > 0:
        witness = annihilator_witness(pres, reps)
        if witness is not None:
            return GradeReport(0, "koszul", (KoszulWitness(r, (witness,)),))

    def graph(i: int) -> GraphBasis:
        return GraphBasis(_koszul_columns(reps, i, pres.ring), pres.order,
                          pres.ideal.step_budget, [h_gb] * math.comb(r, i - 1))

    above = graph(r) if r > 1 else None
    for i in range(r - 1, 0, -1):
        here = graph(i)
        for cycle in here.kernel:
            residue = normal_form(cycle, above.image)
            if not residue.is_zero():
                return GradeReport(
                    r - i, "koszul",
                    (KoszulWitness(i, tuple(residue.components)),),
                )
        above = here
    # all higher homology vanished; H_0 = G/(gens)G is nonzero by properness
    return GradeReport(r, "koszul")


def depth(pres: GradedQuotientPresentation) -> GradeReport:
    """Grade of the maximal homogeneous ideal: all degree-0 and degree-1
    variable images that are nonzero in the quotient.

    Degree-0 residue generators are included deliberately (the degree-0 part
    need not be a field); reports carry this note.
    """
    gens = []
    for i in range(pres.ring.nvars):
        v = pres.ring.var(i)
        if not pres.contains(v):
            gens.append(GradedElement(pres, v, pres.weights[i]))
    return koszul_grade(pres, gens)


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
