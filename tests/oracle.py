"""Reference checks for the test suite; the package does not use them.

Degreewise brute force over finite-dimensional graded slices: graded
components are represented by their standard monomials, and the Groebner-route
answers are cross-checked with exact linear algebra (fraction-free
elimination over the integers for characteristic 0, plain elimination mod p)
and with definitional membership tests.  ``is_groebner`` checks Buchberger's
S-pair criterion on a generator list, ``graph_kernel`` reads a module
kernel off the fully interreduced graph basis, ``q_products`` lists the
degree-k products of q's generators, ``lifted_image`` computes a graded
image by membership lifting, ``rees_form_presentation``,
``rees_cone`` and ``rees_image`` give the form presentation, the tangent
cone and graded images by the Rees route, and ``direct_defect_at`` runs the
level-n colon chain with one kernel per step.  The level checks take q^k M
from ``product_power``, a basis of the degree-k products of q's generators
plus I_M, so they share neither the package's power ladder nor its closed
form for graded inputs.  Disagreement with the main route is always a hard
failure of the library, never a tolerance issue.

The last section holds small operations that only tests use: monomial
comparison, term multiplication, substitution, ideal products and
containment, and session printing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import combinations_with_replacement
from itertools import product as cartesian
from math import gcd

from formcone.criterion import CriterionParams, DefectRecord
from formcone.errors import (
    ConsistencyError,
    InfiniteComponentError,
    RingMismatchError,
    ValidationError,
)
from formcone.filtration import FiltrationContext
from formcone.graded import GradedQuotientPresentation
from formcone.groebner import (
    FreeModuleElement,
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
