"""Reference checks for the test suite; the package does not use them.

Degreewise brute force over finite-dimensional graded slices: graded
components are represented by their standard monomials, and the
Groebner-route answers are cross-checked with exact linear algebra
(fraction-free elimination over the integers for characteristic 0, plain
elimination mod p) and with definitional membership tests.  ``is_groebner``
checks Buchberger's S-pair criterion on a generator list, ``graph_kernel``
reads a module kernel off the fully interreduced graph basis, ``q_products``
lists the degree-k products of q's generators, ``lifted_image`` computes a
graded image by membership lifting, ``rees_form_presentation``,
``rees_cone`` and ``rees_image`` give the form presentation, the tangent
cone and graded images by the Rees route, ``direct_defect_at`` runs the
level-n colon chain with one kernel per step, ``eager_ladder_records`` runs
the level scan over a q-power ladder formed in full before the scan reads it
and takes each record's residues against that ladder, and
``quotient_recursion`` runs the grade recursion through one quotient context
per step.  The level checks take q^k M from ``product_power``, a basis of
the degree-k products of q's generators plus I_M, so they share neither the
package's power ladder nor its closed form for graded inputs.  Disagreement
with the main route is always a hard failure of the library, never a
tolerance issue.

The last section holds small operations that only tests use: monomial
comparison, term multiplication, substitution, ideal products and
containment, and session printing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from itertools import combinations_with_replacement
from itertools import product as cartesian
from math import gcd

from formcone.criterion import (
    CriterionParams,
    DefectRecord,
    defect_scan,
    find_regular_lift,
    regular_form_exists,
)
from formcone.errors import (
    ConsistencyError,
    InfiniteComponentError,
    RingMismatchError,
    ValidationError,
)
from formcone.filtration import FiltrationContext
from formcone.graded import (
    GradedElement,
    GradedQuotientPresentation,
    GradeReport,
    KoszulWitness,
    _koszul_columns,
    _numerator,
    depth,
    graded_dim,
    hilbert_function,
    koszul_grade,
)
from formcone.groebner import (
    FreeModuleElement,
    GraphBasis,
    GroebnerBasis,
    _common_shape,
    _lead,
    _lead_index,
    _reduce_full,
    _spoly,
    _term_key,
    _to_vec,
    buchberger,
    normal_form,
    normal_forms,
)
from formcone.ideals import PresentedIdeal, meet_of_colons
from formcone.rings import (
    DEGREVLEX,
    FieldSpec,
    Monomial,
    MonomialOrder,
    Polynomial,
    mono_mul,
)
from formcone.session import PARAM_KEYS, SessionSpec


def is_groebner(gens, order: MonomialOrder = DEGREVLEX) -> bool:
    """True iff every S-polynomial of the list reduces to zero against it."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return True
    ring, _ = _common_shape(gens)
    fld = ring.field
    key = _term_key(order)
    vecs = [_to_vec(g) for g in gens]
    leads = [_lead(v, key) for v in vecs]
    for j in range(len(vecs)):
        for i in range(j):
            if leads[i][0] != leads[j][0]:
                continue
            s = _spoly(vecs[i], vecs[j], leads[i], leads[j], key, fld)
            if _reduce_full(s, vecs, _lead_index(leads), key, fld):
                return False
    return True


def graph_kernel(columns, order: MonomialOrder = DEGREVLEX, modulo=()) -> list:
    """Kernel of P^k -> (+)_j P/M_j, e_i -> column i, by the full route.

    The reduced basis of ``column_i (+) e_i`` and ``g * e_j`` (g in
    ``modulo[j]``) in P^(r+k) under position-over-term, every element
    interreduced; the elements whose first r components vanish, shifted
    down by r.  ``syzygy_basis`` interreduces only those elements.
    """
    ring = columns[0].ring
    heads = [(c,) if isinstance(c, Polynomial) else c.components for c in columns]
    r, k = len(heads[0]), len(heads)
    zero, one = ring.zero(), ring.one()
    graph = [FreeModuleElement(ring, head + tuple(one if j == i else zero for j in range(k)))
             for i, head in enumerate(heads)]
    graph += [FreeModuleElement(ring, tuple(g if p == j else zero for p in range(r + k)))
              for j, gens in enumerate(modulo) for g in gens]
    return [FreeModuleElement(ring, v.components[r:])
            for v in buchberger(graph, order).generators
            if all(c.is_zero() for c in v.components[:r])]


def q_products(ctx: FiltrationContext, k: int) -> list[tuple[Monomial, Polynomial]]:
    """(exponent, product) for each degree-k multiset of q's generators, one
    per ``combinations_with_replacement``: the reference shares no
    enumeration with the package."""
    gens = ctx.q_generators
    out = []
    for chosen in combinations_with_replacement(range(len(gens)), k):
        product = ctx.ring.one()
        for i in chosen:
            product = product * gens[i]
        out.append((tuple(chosen.count(i) for i in range(len(gens))), product))
    return out


def lifted_image(ctx: FiltrationContext, a: Polynomial, degree: int,
                 pres: GradedQuotientPresentation) -> Polynomial | None:
    """Graded image of a by membership lifting, or None when a is not in
    q^degree + I_A.

    Writes a = sum h_i * g_i over the degree-``degree`` products of q's
    generators and I_A's generators, by one normal form of ``a (+) 0``
    against the basis of the graph vectors ``g_i (+) e_i``, then replaces
    each product by its y-monomial and reduces modulo the presentation.
    ``FiltrationContext.graded_image`` takes one normal form against the
    Rees basis instead, or on graded inputs whose q is generated by the
    variables reads a's degree-``degree`` part.
    """
    ring = ctx.ring
    products = q_products(ctx, degree)
    gens = [p for _, p in products] + list(ctx.base_generators)
    zero, one = ring.zero(), ring.one()
    graph = [FreeModuleElement(ring, (g,) + tuple(one if j == i else zero for j in range(len(gens))))
             for i, g in enumerate(gens)]
    rest = normal_form(FreeModuleElement(ring, (a,) + (zero,) * len(gens)), buchberger(graph))
    if not rest.components[0].is_zero():
        return None
    n = ring.nvars
    acc = pres.ring.zero()
    for (expt, _), h in zip(products, rest.components[1:]):
        acc = acc - h.map_to(pres.ring, list(range(n))) * pres.ring.monomial((0,) * n + expt)
    return pres.reduce(acc)


def rees_form_presentation(ctx: FiltrationContext) -> GradedQuotientPresentation:
    """The form presentation by the Rees route, on every input: the Rees
    presentation plus q's generators in the degree-0 variables, in the
    presentation's weighted order.  ``FiltrationContext.form_presentation``
    reads inputs whose q is generated by the variables off I_M's lowest-form
    cone instead.
    """
    rees = ctx.rees_presentation()
    emb = list(range(ctx.ring.nvars))
    gens = rees.ideal.generators + tuple(f.map_to(rees.ring, emb) for f in ctx.q_generators)
    return GradedQuotientPresentation(rees.ring, rees.weights,
                                      PresentedIdeal(rees.ring, (), gens, ctx.step_budget))


def rees_cone(ctx: FiltrationContext) -> PresentedIdeal:
    """The tangent cone by the Rees route, where q's generators are the
    variables.  The form ideal is then (x) + J(y), so the elements of its
    reduced basis free of x are J's reduced basis; each y is renamed onto
    the variable it presents."""
    form = rees_form_presentation(ctx)
    n = ctx.ring.nvars
    slots = [ctx.ring.gens().index(f) for f in ctx.q_generators]
    free = (g for g in form.groebner().generators if not any(any(m[:n]) for m in g.terms))
    return PresentedIdeal(ctx.ring, (), tuple(g.map_to(ctx.ring, list(range(n)) + slots)
                                              for g in free))


def rees_image(ctx: FiltrationContext, a: Polynomial, degree: int,
               pres: GradedQuotientPresentation) -> Polynomial | None:
    """Graded image of a by the Rees route, on every input, or None when a
    is not in q^degree M: the normal form of a*T^degree against the Rees
    basis, when it is free of T, reduced modulo the presentation.
    ``FiltrationContext.graded_image`` reads a's homogeneous parts instead
    where q's generators are the variables and the parts below ``degree``
    lie in I_M."""
    big, gb = ctx._rees_basis()
    t = big.nvars - 1
    lifted = normal_form(a.map_to(big, list(range(ctx.ring.nvars))) * big.var(t) ** degree, gb)
    if any(m[t] for m in lifted.terms):
        return None
    return pres.reduce(lifted.map_to(pres.ring, list(range(t)) + [0]))


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------

def exact_rank(rows: list[list], field: FieldSpec) -> int:
    """Rank of a matrix with exact entries.

    Characteristic 0 uses fraction-free (Bareiss) elimination after clearing
    row denominators; prime fields use ordinary elimination.
    """
    if not rows or not rows[0]:
        return 0
    if field.is_rationals:
        m = []
        for row in rows:
            den = 1
            for c in row:
                c = Fraction(c)
                den = den * c.denominator // gcd(den, c.denominator)
            m.append([int(Fraction(c) * den) for c in row])
        return _bareiss_rank(m)
    p = field.characteristic
    m = [[c % p for c in row] for row in rows]
    return _modp_rank(m, p)


def _bareiss_rank(m: list[list[int]]) -> int:
    rows, cols = len(m), len(m[0])
    rank = 0
    prev = 1
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        rank += 1
        r += 1
        if r == rows:
            break
    return rank


def _modp_rank(m: list[list[int]], p: int) -> int:
    rows, cols = len(m), len(m[0])
    rank = 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] % p), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        rank += 1
        r += 1
        if r == rows:
            break
    return rank


def kernel_sample(rows: list[list], ncols: int, field: FieldSpec) -> list | None:
    """One nonzero kernel vector of the column map, or None when injective."""
    if ncols == 0:
        return None
    if not rows:
        vec = [field.coerce(0)] * ncols
        vec[0] = field.coerce(1)
        return vec
    m = [[field.coerce(c) for c in row] for row in rows]
    nrows = len(m)
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(x, inv) for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [field.add(a, field.neg(field.mul(f, b))) for a, b in zip(m[i], m[r])]
        pivot_of_col[c] = r
        r += 1
        if r == nrows:
            break
    free = next((c for c in range(ncols) if c not in pivot_of_col), None)
    if free is None:
        return None
    vec = [field.coerce(0)] * ncols
    vec[free] = field.coerce(1)
    for c, row_i in pivot_of_col.items():
        vec[c] = field.neg(m[row_i][free])
    return vec


# ---------------------------------------------------------------------------
# Component bases and multiplication matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentBasis:
    degree: int
    monomials: tuple[Monomial, ...]

    @property
    def dimension(self) -> int:
        return len(self.monomials)


def component_basis(pres: GradedQuotientPresentation, n: int) -> ComponentBasis:
    """Standard monomials of weight n: the k-basis of the graded component."""
    gb = pres.groebner()
    leads = [g.leading_monomial(pres.order) for g in gb.generators]
    nvars = pres.ring.nvars
    bounds: list[int] = []
    for i, w in enumerate(pres.weights):
        if w:
            bounds.append(n + 1)
            continue
        # pure powers of variable i, and the constant lead of the unit ideal
        pure = [m[i] for m in leads if all(e == 0 for j, e in enumerate(m) if j != i)]
        if not pure:
            raise InfiniteComponentError(
                f"variable {pres.ring.variables[i]} is unbounded; component is infinite"
            )
        bounds.append(min(pure))
    out = []
    for expts in cartesian(*(range(b) for b in bounds)):
        if sum(w * e for w, e in zip(pres.weights, expts)) != n:
            continue
        if any(all(le <= e for le, e in zip(lead, expts)) for lead in leads):
            continue
        out.append(tuple(expts))
    key = pres.order.key()
    out.sort(key=key)
    return ComponentBasis(n, tuple(out))


def multiplication_matrix(pres: GradedQuotientPresentation, b, n: int) -> list[list]:
    """Matrix of multiplication by b from component n to component n + deg b,
    in the standard-monomial bases (rows = target, columns = source)."""
    rep = b.representative
    d = b.degree
    source = component_basis(pres, n)
    target = component_basis(pres, n + d)
    index = {m: i for i, m in enumerate(target.monomials)}
    field = pres.ring.field
    rows = [[field.coerce(0)] * source.dimension for _ in range(target.dimension)]
    for j, mono in enumerate(source.monomials):
        image = pres.reduce(mul_term(rep, mono, field.coerce(1)))
        for m, c in image.terms.items():
            rows[index[m]][j] = c
    return rows


def truncated_regularity(pres: GradedQuotientPresentation, b, n_max: int) -> bool:
    """True iff multiplication by b is injective on every component through n_max."""
    field = pres.ring.field
    for n in range(n_max + 1):
        source_dim = component_basis(pres, n).dimension
        if source_dim == 0:
            continue
        matrix = multiplication_matrix(pres, b, n)
        if exact_rank(matrix, field) < source_dim:
            return False
    return True


# ---------------------------------------------------------------------------
# Brute-force view of the level-n colon-stable module
# ---------------------------------------------------------------------------

def product_power(ctx: FiltrationContext, k: int) -> PresentedIdeal:
    """q^k + I_M generated by the degree-k products of q's generators and
    I_M's generators, its basis left to ``buchberger``; memoised in the
    context's scratch space."""
    key = ("product_power", k)
    if key not in ctx.scratch:
        products = tuple(p for _, p in q_products(ctx, k))
        ctx.scratch[key] = PresentedIdeal(ctx.ring, ctx.base_generators,
                                          products + ctx.module_generators, ctx.step_budget)
    return ctx.scratch[key]


@dataclass(frozen=True)
class OracleDefect:
    """Definitional membership data for the level-n stabilized colon module."""

    n: int
    l_cap: int
    degree_cap: int
    member_monomials: tuple[Monomial, ...]
    vanishing_on_monomials: bool


def _definitional_member(ctx: FiltrationContext, g: Polynomial, n: int, l_cap: int) -> bool:
    """g lies in the union-of-colons for every system element, probing l <= l_cap."""
    for i, s in enumerate(ctx.system):
        hit = False
        for k in range(l_cap + 1):
            power = product_power(ctx, n + k * s.degree)
            if power.contains(g * ctx.system_power(i, k)):
                hit = True
                break
        if not hit:
            return False
    return True


def _ambient_monomials(ctx: FiltrationContext, degree_cap: int):
    nvars = ctx.ring.nvars
    for expts in cartesian(*(range(degree_cap + 1) for _ in range(nvars))):
        if sum(expts) <= degree_cap:
            yield expts


def truncated_defect(ctx: FiltrationContext, n: int, degree_cap: int, l_cap: int) -> OracleDefect:
    """Monomial-by-monomial view of the level-n module, straight from the
    defining unions of colons (no intersection or elimination machinery)."""
    if not ctx.system:
        raise ValidationError("empty system")
    members = []
    target = product_power(ctx, n)
    vanishing = True
    one = ctx.ring.field.coerce(1)
    for expts in _ambient_monomials(ctx, degree_cap):
        mono = ctx.ring.monomial(expts, one)
        if _definitional_member(ctx, mono, n, l_cap):
            members.append(expts)
            if vanishing and not target.contains(mono):
                vanishing = False
    return OracleDefect(n, l_cap, degree_cap, tuple(members), vanishing)


def defect_agrees(ctx: FiltrationContext, record, degree_cap: int) -> bool:
    """Cross-check a scan record against the definitional brute force.

    Checks, in both directions at the record's own probe depth:
    monomial membership in the stabilized ideal matches the definitional
    union-of-colons; every stored generator is definitionally a member; and
    the vanishing verdict agrees with the recorded quotient generators.
    """
    l_cap = record.stabilized_l + record.window
    one = ctx.ring.field.coerce(1)
    for expts in _ambient_monomials(ctx, degree_cap):
        mono = ctx.ring.monomial(expts, one)
        if record.ideal.contains(mono) != _definitional_member(ctx, mono, record.n, l_cap):
            return False
    for g in record.ideal.generators:
        if not _definitional_member(ctx, g, record.n, l_cap):
            return False
    target = product_power(ctx, record.n)
    if record.vanishing:
        if record.quotient_generators:
            return False
    else:
        ok = any(
            _definitional_member(ctx, g, record.n, l_cap) and not target.contains(g)
            for g in record.quotient_generators
        )
        if not ok:
            return False
    return True


def direct_defect_at(ctx: FiltrationContext, n: int, params: CriterionParams) -> DefectRecord:
    """The level-n record by the direct l-loop: one colon kernel per step,
    no propagation between levels and no memo.  The package's l-chain
    (``criterion._chain_record``) must give the same record, and so must
    ``defect_at`` but for a certified record's ``stabilized_l``, ``status``
    and ``certified``."""
    prev = current = None
    run = 0
    status, stabilized_l = "budget", params.l_max
    for l in range(1, params.l_max + 1):
        current = meet_of_colons(
            [product_power(ctx, n + l * s.degree) for s in ctx.system],
            [ctx.system_power(i, l) for i in range(len(ctx.system))],
        )
        if prev is not None:
            if current.equals(prev):
                run += 1
            elif contains_ideal(current, prev):
                run = 0
            else:
                raise ConsistencyError(f"colon chain is not ascending at level n={n}, l={l}")
        if run == params.window:
            status, stabilized_l = "stabilized", l - params.window
            break
        prev = current
    target = product_power(ctx, n)
    residues = []
    for g in current.groebner().generators:
        r = normal_form(g, target.groebner())
        if not r.is_zero() and r not in residues:
            residues.append(r)
    return DefectRecord(n=n, stabilized_l=stabilized_l, window=params.window, ideal=current,
                        vanishing=not residues, quotient_generators=tuple(residues),
                        certified=False, status=status)


def cold_copy(ctx: FiltrationContext) -> FiltrationContext:
    """A context built afresh from ``ctx``'s inputs, exact system included,
    so that none of its caches, its ladders among them, is shared."""
    return FiltrationContext(ctx.ring, ctx.base_generators, ctx.module_generators,
                             ctx.q_generators, [(s.element, None) for s in ctx.system],
                             ctx.probe_cap, ctx.step_budget)


def eager_ladder_records(ctx: FiltrationContext, params: CriterionParams,
                         top: int) -> tuple[DefectRecord, ...]:
    """``defect_scan``'s records on a cold copy of ``ctx`` whose module
    ladder is formed through level ``top`` before the scan starts, each
    level's basis computed at once, as the package formed its ladder before
    a level was formed only when read: level n is generated by the products
    of level n-1's reduced basis, reduced modulo I_M, by q's generators,
    followed by I_M's generators, and its basis is one plain run of them
    all.  These levels replace those that construction formed, and graded
    inputs take them instead of the closed form.  Each record's residues
    and verdict are taken again, as the nonzero, de-duplicated normal forms
    of its ideal's reduced basis modulo that ladder's q^n M, whatever route
    the scan took; ``top`` must be at least ``n_max``.  The package's scan
    must give the same records."""
    ctx = cold_copy(ctx)
    powers, module = ctx._powers, ctx.ideal_m
    for n in range(2, top + 1):
        prev = powers[n - 1].groebner().generators
        if module.combined():
            prev = normal_forms(prev, module.groebner())
        products = tuple(dict.fromkeys(
            g * f for g in prev if not g.is_zero() for f in ctx.q_generators))
        powers[n] = ctx.ideal_a.spawn(products + ctx.module_generators)
        powers[n].groebner()
    records = []
    for record in defect_scan(ctx, params).records:
        forms = normal_forms(record.ideal.groebner().generators, powers[record.n].groebner())
        residues = tuple(dict.fromkeys(r for r in forms if not r.is_zero()))
        records.append(replace(record, vanishing=not residues, quotient_generators=residues))
    return tuple(records)


def quotient_recursion(ctx: FiltrationContext) -> GradeReport:
    """The grade recursion through one context per step, M -> M/bM by
    ``quotient_by_element``: each context builds its own form
    presentation, system images and regular forms.  The package's
    ``grade_by_recursion`` quotients one presentation instead and must give
    the same value and steps (element, degree, image representative), or
    raise the same error type."""
    dim_guard = ctx.ideal_m.krull_dim() + 1
    work, steps = ctx, []
    while True:
        if not regular_form_exists(work)[0]:
            return GradeReport(len(steps), "lzero-recursion", tuple(steps))
        cand = find_regular_lift(work)
        if cand is None:
            raise ValidationError("(a*) holds no homogeneous nonzerodivisor")
        steps.append(cand)
        work = work.quotient_by_element(cand.element)
        if len(steps) > dim_guard:
            raise ConsistencyError("recursion depth exceeded the module dimension")


# ---------------------------------------------------------------------------
# The graded side in the full presentation ring
# ---------------------------------------------------------------------------

class FullRing:
    """The graded questions of a presentation P/H asked in P itself, as the
    package asked them before it split off the variables that H contains:
    one basis run of H's generators in P's weighted order, normal forms
    against it, the first generator outside H of the colon (H : reps)
    computed in P, and Koszul homology from ``GraphBasis`` in P."""

    def __init__(self, pres: GradedQuotientPresentation, extra=()):
        self.pres, self.ring, self.order, self.extra = pres, pres.ring, pres.order, tuple(extra)
        self.ideal = PresentedIdeal(pres.ring, (), pres.ideal.combined() + self.extra,
                                    pres.ideal.step_budget, pres.order)

    def groebner(self) -> GroebnerBasis:
        return buchberger(self.ideal.combined(), self.order, self.ideal.step_budget)

    def quotient(self, reps) -> "FullRing":
        return FullRing(self.pres, self.extra + tuple(reps))

    def reduce(self, f: Polynomial) -> Polynomial:
        return normal_form(f, self.ideal.groebner())

    def contains(self, f: Polynomial) -> bool:
        return self.reduce(f).is_zero()

    def annihilator(self, reps) -> Polynomial | None:
        ann = self.ideal.colon_ideal(self.ideal.spawn(reps))
        if ann.equals(self.ideal):
            return None
        return next(g for g in ann.generators if not self.ideal.contains(g))

    def koszul_grade(self, reps) -> GradeReport:
        """Top nonvanishing Koszul homology index of ``reps``, as
        ``graded.koszul_grade`` reports it."""
        reps, r = list(reps), len(reps)
        if not self.quotient(reps).ideal.is_proper():
            return GradeReport(math.inf, "koszul")
        witness = self.annihilator(reps) if r else None
        if witness is not None:
            return GradeReport(0, "koszul", (KoszulWitness(r, (self.reduce(witness),)),))
        h_gb = self.ideal.groebner()

        def graph(i):
            return GraphBasis(_koszul_columns(reps, i, self.ring), self.order,
                              self.ideal.step_budget, [h_gb] * math.comb(r, i - 1))

        above = graph(r) if r > 1 else None
        for i in range(r - 1, 0, -1):
            here = graph(i)
            for residue in normal_forms(here.kernel, above.image):
                if not residue.is_zero():
                    return GradeReport(r - i, "koszul",
                                       (KoszulWitness(i, tuple(residue.components)),))
            above = here
        return GradeReport(r, "koszul")

    def hilbert_function(self, upto: int) -> list[int]:
        """The components' dimensions off the numerator of P/H's own leads."""
        weights = self.pres.weights
        leads = frozenset(g.leading_monomial(self.order) for g in self.ideal.groebner().generators)
        for i, w in enumerate(weights):
            if not w and not any(m[i] == sum(m) for m in leads):
                raise InfiniteComponentError(self.ring.variables[i])
        values = _numerator(leads, weights, {})[:upto + 1]
        values += [0] * (upto + 1 - len(values))
        for w in filter(None, weights):
            for d in range(w, upto + 1):
                values[d] += values[d - w]
        return values


def graded_side_differs(pres: GradedQuotientPresentation) -> list[str]:
    """The questions on which ``pres`` and its ``FullRing`` answer
    differently: the reduced basis, the normal forms of the variables and
    their pairwise products, the annihilator of each variable and of all of
    them, Koszul grade and depth on the variable images that are nonzero
    (depth's certificate replayed in P), the Hilbert function through
    weight 4 and the dimension."""
    ref, ring, out = FullRing(pres), pres.ring, []
    if pres.groebner() != ref.groebner():
        out.append("groebner")
    variables = ring.gens()
    probes = list(variables) + [u * v for k, u in enumerate(variables) for v in variables[k:]]
    if [pres.reduce(f) for f in probes] != [ref.reduce(f) for f in probes]:
        out.append("reduce")
    for reps in [(v,) for v in variables] + [variables]:
        if pres.annihilator(reps) != ref.annihilator(reps):
            out.append(f"annihilator {reps}")
    gens = [GradedElement(pres, v, w) for v, w in zip(variables, pres.weights)
            if not ref.contains(v)]
    koszul = ref.koszul_grade([g.representative for g in gens])
    if koszul_grade(pres, gens) != koszul:
        out.append("koszul_grade")
    report = depth(pres)
    if report.method == "koszul":
        if report != koszul:
            out.append("depth")
    elif report.value != koszul.value:
        out.append("depth value")
    else:
        seq = [e.representative for e in report.certificate if isinstance(e, GradedElement)]
        cur = ref.quotient(seq)
        for k, x in enumerate(seq):
            below = ref.quotient(seq[:k])
            if below.contains(x) or below.annihilator((x,)) is not None:
                out.append(f"depth sequence {k}")
        for w in report.certificate:
            if isinstance(w, KoszulWitness):
                (witness,) = w.cycle
                if cur.contains(witness) or not all(cur.contains(g.representative * witness)
                                                    for g in gens):
                    out.append("depth witness")
    try:
        values = hilbert_function(pres, 4)
    except InfiniteComponentError:
        values = None
    try:
        expected = ref.hilbert_function(4)
    except InfiniteComponentError:
        expected = None
    if values != expected:
        out.append("hilbert_function")
    if graded_dim(pres) != ref.ideal.krull_dim():
        out.append("graded_dim")
    return out


# ---------------------------------------------------------------------------
# Operations only the tests use
# ---------------------------------------------------------------------------

def mono_compare(order: MonomialOrder, m1: Monomial, m2: Monomial) -> int:
    """-1, 0, or 1 as m1 <, =, > m2 under the order."""
    if len(m1) != len(m2):
        raise RingMismatchError(f"monomial length mismatch: {len(m1)} vs {len(m2)}")
    k = order.key()
    k1, k2 = k(m1), k(m2)
    return (k1 > k2) - (k1 < k2)


def mul_term(f: Polynomial, mono: Monomial, coeff) -> Polynomial:
    """coeff * x^mono * f."""
    if not coeff:
        return f.ring.zero()
    fld = f.ring.field
    return Polynomial(f.ring, {mono_mul(m, mono): fld.mul(c, coeff) for m, c in f.terms.items()})


def substitute(f: Polynomial, images: list[Polynomial]) -> Polynomial:
    """Evaluate at variable images (all in one common target ring)."""
    if len(images) != f.ring.nvars:
        raise RingMismatchError("need one image per variable")
    target = images[0].ring if images else f.ring
    acc = target.zero()
    for m, c in f.terms.items():
        term = target.constant(c)
        for i, e in enumerate(m):
            if e:
                term = term * images[i] ** e
        acc = acc + term
    return acc


def product(ideal: PresentedIdeal, other: PresentedIdeal) -> PresentedIdeal:
    """The product ideal, generated by the pairwise products of generators."""
    ideal._check(other)
    gens = tuple(dict.fromkeys(f * g for f in ideal.generators for g in other.generators))
    return ideal.spawn(gens)


def contains_ideal(ideal: PresentedIdeal, other: PresentedIdeal) -> bool:
    """True when ``ideal`` contains ``other``: the two share ring, base and
    order, and each generator of ``other`` reduces to zero (``ideal``
    contains its own base)."""
    ideal._check(other)
    return all(r.is_zero() for r in normal_forms(other.generators, ideal.groebner()))


def print_session(spec: SessionSpec) -> str:
    """Canonical text for a session; parse_session inverts it exactly."""
    lines = [
        f"field {spec.field}",
        f"vars {', '.join(spec.variables)}",
        f"base: {', '.join(str(g) for g in spec.base) or '0'}",
        f"module: {', '.join(str(g) for g in spec.module) or '0'}",
        f"q: {', '.join(str(g) for g in spec.q)}",
    ]
    if spec.system:
        chunks = [
            f"{poly} @ {claim}" if claim is not None else str(poly)
            for poly, claim in spec.system
        ]
        lines.append(f"a: {', '.join(chunks)}")
    defaults = CriterionParams()
    for f in fields(CriterionParams):
        if f.name not in PARAM_KEYS:
            continue
        value = getattr(spec.params, f.name)
        if value != getattr(defaults, f.name):
            lines.append(f"set {f.name} = {value}")
    return "\n".join(lines) + "\n"
