import random
from itertools import product as cartesian

import pytest
from oracle import exact_rank, is_groebner, kernel_sample

import formcone.groebner as groebner_module
from formcone import (
    DEGREVLEX,
    LEX,
    QQ,
    BudgetExceededError,
    FieldSpec,
    FreeModuleElement,
    MembershipLifter,
    Polynomial,
    PolynomialRing,
    buchberger,
    block_order,
    mono_compare,
    normal_form,
    syzygy_basis,
    weighted_order,
)

R2 = PolynomialRing(QQ, ("x", "y"))
R3 = PolynomialRing(QQ, ("x", "y", "z"))
RS = PolynomialRing(QQ, ("X", "Y", "Z"))


def semigroup_value(f):
    """Independent membership oracle for the monomial-curve ideal: the kernel
    of X,Y,Z -> t^4,t^5,t^11 is exactly the polynomials vanishing under
    substitution."""
    Rt = PolynomialRing(QQ, ("t",))
    t, = Rt.gens()
    return f.substitute([t**4, t**5, t**11])


def curve_ideal():
    X, Y, Z = RS.gens()
    return [X**4 - Y * Z, Y**3 - X * Z, Z**2 - X**3 * Y**2]


def test_normal_form_membership_basics():
    x, y = R2.gens()
    gb = buchberger([x])
    assert normal_form(x**2, gb).is_zero()
    assert normal_form(x**2 + y, gb) == y


def test_normal_form_on_curve_ideal():
    X, Y, Z = RS.gens()
    gb = buchberger(curve_ideal())
    # oracle first: Y^4 - X^5 maps to t^20 - t^20 = 0, Y^4 alone does not vanish
    assert semigroup_value(Y**4 - X**5).is_zero()
    assert not semigroup_value(Y**4).is_zero()
    assert normal_form(Y**4 - X**5, gb).is_zero()
    assert not normal_form(Y**4, gb).is_zero()


def test_buchberger_principal_and_zero():
    x, _ = R2.gens()
    assert buchberger([x]).generators == (x,)
    assert buchberger([R2.zero()]).generators == ()
    assert buchberger([]).generators == ()


def test_twisted_cubic_elimination():
    x, y, z = R3.gens()
    # oracle: y^3 - z^2 vanishes on the parametrization (t, t^2, t^3)
    Rt = PolynomialRing(QQ, ("t",))
    t, = Rt.gens()
    assert (y**3 - z**2).substitute([t, t**2, t**3]).is_zero()
    gb = buchberger([x * x - y, x**3 - z], LEX)
    assert y**3 - z**2 in set(gb.generators)


def test_groebner_detection():
    x, y = R2.gens()
    assert is_groebner([x, y])
    assert not is_groebner([x * x - y, x**3], LEX)
    assert is_groebner([])
    gb = buchberger([x * x - y, x**3], LEX)
    assert is_groebner(list(gb.generators), LEX)


def test_idempotence_and_permutation_invariance():
    rng = random.Random(23)
    for _ in range(20):
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                mono = tuple(rng.randint(0, 2) for _ in range(3))
                coeff = rng.randint(-3, 3)
                if coeff:
                    terms[mono] = QQ.coerce(coeff)
            if terms:
                gens.append(Polynomial(R3, terms))
        if not gens:
            continue
        gb = buchberger(gens)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled).generators == gb.generators
        assert buchberger(list(gb.generators)).generators == gb.generators
        assert is_groebner(list(gb.generators))


def _bounded_membership(f, gens, degree_cap):
    """Independent oracle: f in (gens) with witness degrees <= degree_cap,
    by exact linear algebra over the multiples m*g."""
    ring = f.ring
    rows_index = {}
    columns = []
    for g in gens:
        room = degree_cap - g.total_degree()
        if room < 0:
            continue
        for expts in cartesian(*(range(room + 1) for _ in range(ring.nvars))):
            if sum(expts) > room:
                continue
            columns.append(g.mul_term(tuple(expts), ring.field.coerce(1)))
    for col in columns + [f]:
        for mono in col.terms:
            rows_index.setdefault(mono, len(rows_index))
    matrix = [[ring.field.coerce(0)] * len(columns) for _ in range(len(rows_index))]
    for j, col in enumerate(columns):
        for mono, c in col.terms.items():
            matrix[rows_index[mono]][j] = c
    rank_without = exact_rank([row[:] for row in matrix], ring.field)
    augmented = [row[:] + [f.terms.get(mono, ring.field.coerce(0))]
                 for row, mono in zip(matrix, rows_index)]
    rank_with = exact_rank(augmented, ring.field)
    return rank_with == rank_without


def test_membership_matches_bounded_oracle():
    rng = random.Random(31)
    x, y = R2.gens()
    pool = [x, y, x * y, x * x - y, y * y, x * x * y - y]
    for _ in range(25):
        gens = rng.sample(pool, rng.randint(1, 3))
        gb = buchberger(gens)
        # random probe of moderate degree
        h = sum((g.mul_term((rng.randint(0, 1), rng.randint(0, 1)), 1) for g in gens),
                R2.zero())
        probes = [h, h + x, x**2, y**3, h * y]
        for f in probes:
            nf_zero = normal_form(f, gb).is_zero() if gb.generators else f.is_zero()
            oracle = _bounded_membership(f, gens, degree_cap=7)
            if nf_zero:
                assert oracle, f"NF says member, oracle disagrees: {f}"
            if oracle:
                assert nf_zero, f"oracle says member, NF disagrees: {f}"


def test_syzygies_koszul_and_duplicate():
    X, Y, Z = RS.gens()
    syz = syzygy_basis([X, Y])
    assert syz and all(s.dot([X, Y]).is_zero() for s in syz)
    assert any(not s.is_zero() for s in syz)
    dup = syzygy_basis([X, X])
    assert dup and all(s.dot([X, X]).is_zero() for s in dup)
    cols = curve_ideal()
    triples = syzygy_basis(cols)
    assert triples
    for s in triples:
        assert s.dot(cols).is_zero()


def test_syzygy_bounded_completeness():
    # independent kernel elements from the Koszul relations reduce to zero
    # against the computed syzygy module
    cols = curve_ideal()
    syz = syzygy_basis(cols)
    gb = buchberger(syz)
    zero = RS.zero()
    for i in range(3):
        for j in range(i + 1, 3):
            comps = [zero, zero, zero]
            comps[i] = cols[j]
            comps[j] = -cols[i]
            koszul = FreeModuleElement(RS, comps)
            assert normal_form(koszul, gb).is_zero()


def _linear_algebra_syzygy(cols, degree_cap):
    """One relation vector of bounded degree found by exact elimination over
    the coefficient unknowns, independent of any basis machinery."""
    ring = cols[0].ring
    unknowns = []  # (column index, multiplier monomial)
    for idx, col in enumerate(cols):
        room = degree_cap - col.total_degree()
        for expts in cartesian(*(range(room + 1) for _ in range(ring.nvars))):
            if sum(expts) <= room:
                unknowns.append((idx, tuple(expts)))
    rows_index: dict = {}
    columns = []
    for idx, mono in unknowns:
        shifted = cols[idx].mul_term(mono, ring.field.coerce(1))
        columns.append(shifted)
        for m in shifted.terms:
            rows_index.setdefault(m, len(rows_index))
    matrix = [[ring.field.coerce(0)] * len(columns) for _ in range(len(rows_index))]
    for j, shifted in enumerate(columns):
        for m, c in shifted.terms.items():
            matrix[rows_index[m]][j] = c
    vec = kernel_sample(matrix, len(columns), ring.field)
    if vec is None:
        return None
    comps = [ring.zero() for _ in cols]
    for coeff, (idx, mono) in zip(vec, unknowns):
        if coeff:
            comps[idx] = comps[idx] + ring.monomial(mono, coeff)
    return FreeModuleElement(ring, tuple(comps))


def test_syzygy_completeness_against_linear_algebra_kernel():
    for cols in ([RS.var(0), RS.var(1)], curve_ideal(), [RS.var(0) ** 2, RS.var(0) * RS.var(1)]):
        relation = _linear_algebra_syzygy(cols, degree_cap=5)
        if relation is None:
            continue
        assert relation.dot(cols).is_zero()  # genuinely a relation
        assert not relation.is_zero()
        gb = buchberger(syzygy_basis(cols))
        assert normal_form(relation, gb).is_zero()


def test_module_normal_form_rank_checks():
    x, y = R2.gens()
    e1 = FreeModuleElement(R2, (x, R2.zero()))
    gb = buchberger([e1])
    probe = FreeModuleElement(R2, (x * y, R2.zero()))
    assert normal_form(probe, gb).is_zero()
    with pytest.raises(Exception):
        normal_form(x, gb)  # rank mismatch


def test_membership_lifter_roundtrip():
    X, Y, Z = RS.gens()
    gens = [X, Y, Z] + curve_ideal()
    lifter = MembershipLifter(gens)
    target = Y**4 - X**5 + X * Y
    cofactors = lifter.lift(target)
    assert cofactors is not None
    acc = RS.zero()
    for h, g in zip(cofactors, gens):
        acc = acc + h * g
    assert acc == target
    assert lifter.lift(RS.one()) is None


def test_step_budget_is_a_resource_error(monkeypatch):
    x, y, z = R3.gens()
    gens = [x**3 - y * z, y**3 - x * z, z**3 - x * y, x * y * z - x - y - z]
    with pytest.raises(BudgetExceededError):
        buchberger(gens, step_budget=3)
    # the budget counts S-polynomial reductions, not the pairs a criterion skips
    reductions = []
    spoly = groebner_module._spoly
    monkeypatch.setattr(groebner_module, "_spoly",
                        lambda *args: reductions.append(1) or spoly(*args))
    expected = buchberger(gens)
    monkeypatch.undo()
    n = len(reductions)
    assert buchberger(gens, step_budget=n) == expected
    with pytest.raises(BudgetExceededError):
        buchberger(gens, step_budget=n - 1)


def test_prime_field_groebner():
    F2 = PolynomialRing(FieldSpec(2), ("x", "y"))
    x, y = F2.gens()
    gb = buchberger([x * x + y, y * y + x])
    assert is_groebner(list(gb.generators))
    assert normal_form(x**4 + x, gb).is_zero()  # x^4 = y^2 = x


def _random_element(rng, ring, rank):
    """A random polynomial (rank None) or module element; module entries are
    squarefree, since exponents up to 2 make some LEX module bases explode."""
    field = ring.field
    top = 2 if rank is None else 1
    comps = []
    for _ in range(rank or 1):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            mono = tuple(rng.randint(0, top) for _ in range(ring.nvars))
            terms[mono] = field.coerce(rng.randint(-3, 3))
        comps.append(Polynomial(ring, terms))
    return comps[0] if rank is None else FreeModuleElement(ring, comps)


def _lead_and_tail(element, order):
    """((position, monomial), coefficient) of the lead under position-over-term
    with position 0 greatest, plus the remaining terms as (position, monomial)."""
    comps = (element,) if isinstance(element, Polynomial) else element.components
    terms = [(p, m) for p, c in enumerate(comps) for m in c.sorted_terms(order)]
    (p, (mono, coeff)), rest = terms[0], terms[1:]
    return (p, mono), coeff, [(q, m) for q, (m, _) in rest]


@pytest.mark.parametrize("characteristic", [0, 2, 3])
def test_engine_output_is_canonical(characteristic):
    """Reduced bases on random inputs: monic, sorted by lead, minimal leads,
    irreducible tails, a Groebner basis, and a fixed point of the engine."""
    ring = PolynomialRing(FieldSpec(characteristic), ("x", "y", "z"))
    rng = random.Random(101 + characteristic)
    orders = [DEGREVLEX, LEX, block_order([0]), weighted_order([2, 1, 3])]
    several = 0
    for order in orders:
        for rank in (None, 2):
            for _ in range(10):
                gens = [_random_element(rng, ring, rank) for _ in range(rng.randint(1, 3))]
                out = buchberger(gens, order).generators
                several += len(out) > 1
                analysed = [_lead_and_tail(g, order) for g in out]
                leads = [lead for lead, _, _ in analysed]
                assert all(coeff == 1 for _, coeff, _ in analysed)
                for (p, m), (q, n) in zip(leads, leads[1:]):
                    assert p > q or (p == q and mono_compare(order, m, n) < 0)
                for i, (p, m) in enumerate(leads):
                    for j, (q, n) in enumerate(leads):
                        assert i == j or p != q or not all(a <= b for a, b in zip(m, n))
                for _, _, tail in analysed:
                    for q, n in tail:
                        assert not any(p == q and all(a <= b for a, b in zip(m, n))
                                       for p, m in leads)
                assert is_groebner(list(out), order)
                assert buchberger(list(out), order).generators == out
    assert several >= 20
