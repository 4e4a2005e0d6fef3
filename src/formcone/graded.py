"""Graded-module invariants of associated-graded presentations.

Everything here is exact: Hilbert functions by recursive standard-monomial
counting on the leading ideal, regularity of homogeneous elements by the
presentation's memoised annihilator, grade by Koszul-complex codepth (which
needs no genericity and works over every supported field), and depth by a
greedy regular sequence stopped by a socle witness or the dimension, with
Koszul homology as its fallback.  ``first_regular`` picks the first nonzero
nonzerodivisor among candidates, for ``depth`` and the criterion's lift
search alike.  Every one of these reads the presentation ideal H's one
reduced basis, in the presentation's weighted order, or that of a quotient
of H, which extends it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import InfiniteComponentError, ValidationError
from .filtration import FiltrationContext, GradedQuotientPresentation
from .groebner import FreeModuleElement, GraphBasis, normal_forms
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
    witness = pres.annihilator((b.representative,))
    return RegularityResult(witness is None, witness and pres.reduce(witness))


def colon_chain_regularity(ctx: FiltrationContext, b: Polynomial, d: int,
                           n_max: int = 10) -> bool:
    """Bounded colon test: (q^(n+d)M : b) = q^n M for all n <= n_max.

    Heuristic counterpart of the exact graded test; the two must agree on
    every instance where both run.
    """
    computed = ctx.initial_degree(b)
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
    if not pres.quotient_by(reps).ideal.is_proper():
        return GradeReport(math.inf, "koszul")

    # top index: homology is the annihilator of the generator ideal
    if r > 0:
        witness = pres.annihilator(reps)
        if witness is not None:
            return GradeReport(0, "koszul", (KoszulWitness(r, (pres.reduce(witness),)),))

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
    ideal = pres.ideal
    for c in candidates:
        x = c.representative
        if ideal.contains(x) or any(ideal.contains(w * x) and not ideal.contains(w)
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
    ideal = cur.ideal
    for w in normal_forms(killers, ideal.groebner()) if killers else ():
        if not w.is_zero() and all(ideal.contains(w * g) for g in reps):
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
    routes are exact and deterministic.
    """
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
