import random
from fractions import Fraction
from itertools import product as cartesian

import pytest
from oracle import (
    exact_rank,
    graph_kernel,
    is_groebner,
    kernel_sample,
    mono_compare,
    mul_term,
    substitute,
)

import formcone.groebner as groebner_module
from formcone import (
    DEGREVLEX,
    LEX,
    QQ,
    BudgetExceededError,
    FieldSpec,
    FiltrationContext,
    FreeModuleElement,
    Polynomial,
    PolynomialRing,
    RingMismatchError,
    ValidationError,
    buchberger,
    block_order,
    normal_form,
    syzygy_basis,
    weighted_order,
)
from formcone.groebner import GraphBasis

R2 = PolynomialRing(QQ, ("x", "y"))
R3 = PolynomialRing(QQ, ("x", "y", "z"))
RS = PolynomialRing(QQ, ("X", "Y", "Z"))


def semigroup_value(f):
    """Independent membership oracle for the monomial-curve ideal: the kernel
    of X,Y,Z -> t^4,t^5,t^11 is exactly the polynomials vanishing under
    substitution."""
    Rt = PolynomialRing(QQ, ("t",))
    t, = Rt.gens()
    return substitute(f, [t**4, t**5, t**11])


def curve_ideal():
    X, Y, Z = RS.gens()
    return [X**4 - Y * Z, Y**3 - X * Z, Z**2 - X**3 * Y**2]


def assert_public_coefficients(elements):
    """The public type contract: over QQ every coefficient is a Fraction,
    over F_p an int in 0..p-1 (the engine's internal ints never leak)."""
    for e in elements:
        for comp in (e,) if isinstance(e, Polynomial) else e.components:
            p = comp.ring.field.characteristic
            for c in comp.terms.values():
                assert (type(c) is int and 0 <= c < p) if p else type(c) is Fraction, c


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
    probes = (Y**4, 3 * Y**4 - X**2 * Fraction(1, 2), 2 * Z**3)
    assert_public_coefficients([normal_form(f, gb) for f in probes])


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
    assert substitute(y**3 - z**2, [t, t**2, t**3]).is_zero()
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
            columns.append(mul_term(g, tuple(expts), ring.field.coerce(1)))
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
        h = sum((mul_term(g, (rng.randint(0, 1), rng.randint(0, 1)), 1) for g in gens),
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
    assert_public_coefficients(syz + dup + triples + syzygy_basis([2 * X, 3 * Y - Z]))


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
        shifted = mul_term(cols[idx], mono, ring.field.coerce(1))
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


def test_prime_field_results_have_public_coefficients():
    F3 = PolynomialRing(FieldSpec(3), ("x", "y"))
    x, y = F3.gens()
    gens = [x * x - y, x * y + 2 * y * y]
    gb = buchberger(gens)
    assert_public_coefficients(list(gb.generators) + [normal_form(x**3 + 2 * y, gb)]
                               + syzygy_basis(gens))


def test_syzygy_basis_checks_modulo():
    x, y = R2.gens()
    col = FreeModuleElement(R2, (x, y))
    # 1 maps to (x, y), which is zero in P/(x) (+) P/(y): the kernel is all of P
    assert syzygy_basis([col], modulo=[[x], [y]]) == [FreeModuleElement(R2, (R2.one(),))]
    with pytest.raises(ValidationError):
        syzygy_basis([col], modulo=[[x]])
    with pytest.raises(RingMismatchError):
        syzygy_basis([col], modulo=[[x], [RS.var(0)]])
    # no columns: the kernel of P^0 is zero, but a graph basis has no ring
    assert syzygy_basis([]) == []
    with pytest.raises(ValidationError):
        GraphBasis([])


def test_kernel_budgets_are_resource_errors():
    with pytest.raises(BudgetExceededError):
        syzygy_basis(curve_ideal(), step_budget=1)
    # the Rees basis behind the graded images runs under the context's budget
    X, Y, Z = RS.gens()
    ctx = FiltrationContext(RS, tuple(curve_ideal()), (), (X, Y, Z), [(X, 1)], step_budget=5)
    with pytest.raises(BudgetExceededError):
        ctx.rees_presentation()


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


def test_pair_decisions_are_pinned(monkeypatch):
    """The criteria skip exactly the pairs they skipped when these counts were
    recorded: every change to the pair bookkeeping must reduce the same
    S-polynomials."""
    reductions = []
    spoly = groebner_module._spoly
    monkeypatch.setattr(groebner_module, "_spoly",
                        lambda *args: reductions.append(1) or spoly(*args))

    def count(compute):
        reductions.clear()
        compute()
        return len(reductions)

    x, y, z = R3.gens()
    gens = [x**3 - y * z, y**3 - x * z, z**3 - x * y, x * y * z - x - y - z]
    assert count(lambda: buchberger(gens)) == 36
    for characteristic, expected in ((0, 64), (3, 68)):
        ring = PolynomialRing(FieldSpec(characteristic), ("x", "y", "z"))
        x, y, z = ring.gens()
        module = [FreeModuleElement(ring, (x**2 - y * z, y**2)),
                  FreeModuleElement(ring, (x * y, z**2 - x)),
                  FreeModuleElement(ring, (y * z + x, x * z)),
                  FreeModuleElement(ring, (z**2, y**2 - x * y))]
        assert count(lambda: buchberger(module)) == expected, characteristic
    x, y, z = R3.gens()
    columns = [x**2, x * y - z**2, y**3, x * z]
    assert count(lambda: syzygy_basis(columns, modulo=[[x * y * z, y**2 - z]])) == 24
    # the same submodule as its reduced basis: settled, no pair inside it
    basis = buchberger([x * y * z, y**2 - z])
    settled = count(lambda: syzygy_basis(columns, modulo=[basis]))
    assert settled == 24
    assert settled <= count(lambda: syzygy_basis(columns, modulo=[list(basis.generators)])) == 25


@pytest.mark.parametrize("characteristic", [0, 3])
def test_settled_modulo_gives_the_same_kernel(characteristic):
    """A ``GroebnerBasis`` modulo entry in the kernel's own order is a settled
    block of the engine; the kernel must be the one that the same basis as a
    list, or the raw generators, give.  A basis in another order counts as
    plain generators.  The orders are DEGREVLEX and a weighted order with a
    weight-0 variable, as in the graded presentations; random rank-2 kernels
    under the weighted order can take minutes over QQ, so there the Koszul
    examples of ``test_graded`` cover rank 2."""
    ring = PolynomialRing(FieldSpec(characteristic), ("x", "y", "z"))
    rng = random.Random(307 + characteristic)
    weighted = weighted_order((0, 1, 1))
    nonzero = 0
    for order, other, rank in ((DEGREVLEX, weighted, None), (DEGREVLEX, weighted, 2),
                               (weighted, DEGREVLEX, None)):
        for _ in range(8):
            cols = [_random_element(rng, ring, rank) for _ in range(rng.randint(1, 2))]
            mods = [[_random_element(rng, ring, None) for _ in range(rng.randint(1, 2))]
                    for _ in range(rank or 1)]
            bases = [buchberger(gens, order) for gens in mods]
            kernel = syzygy_basis(cols, order, modulo=bases)
            assert kernel == syzygy_basis(cols, order,
                                          modulo=[list(b.generators) for b in bases])
            assert kernel == syzygy_basis(cols, order, modulo=mods)
            elsewhere = [buchberger(gens, other) for gens in mods]
            assert kernel == syzygy_basis(cols, order, modulo=elsewhere)
            nonzero += bool(kernel)
    assert nonzero >= 16


def test_normalize_single_term():
    key = groebner_module._term_key(DEGREVLEX)
    term = (0, (1, 0))
    for fld, c in ((QQ, Fraction(-3, 7)), (FieldSpec(5), 3)):
        out = groebner_module._normalize({term: c}, key, fld)
        assert out == {term: 1} and type(out[term]) is int


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
                assert_public_coefficients(out)
    assert several >= 20


@pytest.mark.parametrize("characteristic", [0, 3])
def test_syzygy_basis_matches_full_graph_basis(characteristic):
    """Kernel-only interreduction gives the kernel that the fully interreduced
    graph basis gives, with and without ``modulo``, on random inputs; the
    image half of the same basis is the reduced basis of the columns plus
    each M_j e_j, and asking for it leaves the kernel unchanged.  Random
    rank-2 kernels of three columns, or under LEX or a weighted order, can
    take minutes over QQ (coefficient swell), so the inputs stay at two
    columns and the other orders are left to the Koszul examples."""
    ring = PolynomialRing(FieldSpec(characteristic), ("x", "y", "z"))
    rng = random.Random(211 + characteristic)
    nonzero = 0
    for order in (DEGREVLEX, block_order([0])):
        for rank in (None, 2):
            for _ in range(8):
                cols = [_random_element(rng, ring, rank) for _ in range(rng.randint(1, 2))]
                mods = [[_random_element(rng, ring, None) for _ in range(rng.randint(0, 2))]
                        for _ in range(rank or 1)]
                for modulo in ((), mods):
                    kernel = syzygy_basis(cols, order, modulo=modulo)
                    assert kernel == graph_kernel(cols, order, modulo)
                    nonzero += bool(kernel)
                    graph = GraphBasis(cols, order, modulo=modulo)
                    units = [g if rank is None else FreeModuleElement(
                                 ring, tuple(g if p == j else ring.zero() for p in range(rank)))
                             for j, gens in enumerate(modulo) for g in gens]
                    assert graph.image == buchberger(cols + units, order)
                    assert graph.kernel == kernel
    assert nonzero >= 30
