"""Reference checks for the test suite; the package does not use them.

Degreewise brute force over finite-dimensional graded slices: graded
components are represented by their standard monomials, and the Groebner-route
answers are cross-checked with exact linear algebra (fraction-free
elimination over the integers for characteristic 0, plain elimination mod p)
and with definitional membership tests.  ``is_groebner`` checks Buchberger's
S-pair criterion on a generator list.  Disagreement with the main route is
always a hard failure of the library, never a tolerance issue.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as cartesian
from math import gcd

from formcone.errors import InfiniteComponentError, ValidationError
from formcone.filtration import FiltrationContext, GradedQuotientPresentation
from formcone.groebner import (
    _common_shape,
    _lead,
    _reduce_full,
    _spoly,
    _term_key,
    _to_vec,
)
from formcone.rings import DEGREVLEX, FieldSpec, Monomial, MonomialOrder, Polynomial


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
            if _reduce_full(s, vecs, leads, key, fld):
                return False
    return True


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
        pure = [m[i] for m in leads if m[i] and all(e == 0 for j, e in enumerate(m) if j != i)]
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
        image = pres.reduce(rep.mul_term(mono, field.coerce(1)))
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
            power = ctx.q_power(n + k * s.degree)
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
    target = ctx.q_power(n)
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
    target = ctx.q_power(record.n)
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
