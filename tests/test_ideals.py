import random
from itertools import product as cartesian

import pytest
from oracle import contains_ideal, graph_kernel, product, substitute

from formcone import (
    DEGREVLEX,
    LEX,
    QQ,
    FieldSpec,
    FiltrationContext,
    PolynomialRing,
    PresentedIdeal,
    RingMismatchError,
    ValidationError,
    block_order,
    buchberger,
    weighted_order,
)
from formcone.groebner import FreeModuleElement
from formcone.ideals import meet_of_colons

R2 = PolynomialRing(QQ, ("x", "y"))
RS = PolynomialRing(QQ, ("X", "Y", "Z"))


def curve_base():
    X, Y, Z = RS.gens()
    return (X**4 - Y * Z, Y**3 - X * Z, Z**2 - X**3 * Y**2)


def ideal2(*gens, base=()):
    return PresentedIdeal(R2, base, gens)


def test_sum_and_product():
    x, y = R2.gens()
    assert (ideal2(x) + ideal2(y)).equals(ideal2(x, y))
    assert product(ideal2(x), ideal2(x)).equals(ideal2(x * x))


def test_product_in_quotient_ring():
    X, Y, Z = RS.gens()
    m = PresentedIdeal(RS, curve_base(), (X, Y, Z))
    mm = product(m, m)
    expected = PresentedIdeal(RS, curve_base(),
                              (X * X, X * Y, X * Z, Y * Y, Y * Z, Z * Z))
    assert mm.equals(expected)


def test_powers():
    x, y = R2.gens()
    ctx = FiltrationContext(R2, (), (), (x, y), [])
    assert ctx.q_power(0).equals(ideal2(R2.one()))
    assert ctx.q_power(2).equals(ideal2(x * x, x * y, y * y))


def test_principal_power_colons_collapse_on_the_curve():
    # (xA)^(n+k) : x^k = (xA)^n in the monomial-curve ring, all n,k <= 6
    X, _, _ = RS.gens()
    ctx = FiltrationContext(RS, curve_base(), (), (X,), [])
    for n in range(7):
        for k in range(7):
            lhs = ctx.q_power(n + k)
            for _ in range(k):
                lhs = lhs.colon(X)
            assert lhs.equals(ctx.q_power(n)), (n, k)


def _monomials_upto(ring, cap):
    for expts in cartesian(*(range(cap + 1) for _ in range(ring.nvars))):
        if sum(expts) <= cap:
            yield ring.monomial(expts, 1)


def test_intersections():
    x, y = R2.gens()
    assert ideal2(x).intersect(ideal2(y)).equals(ideal2(x * y))
    lhs, rhs = ideal2(x * x, y), ideal2(x)
    meet = lhs.intersect(rhs)
    # oracle first: monomial membership in both sides up to degree 4
    for m in _monomials_upto(R2, 4):
        in_both = lhs.contains(m) and rhs.contains(m)
        assert meet.contains(m) == in_both, str(m)
    assert meet.equals(ideal2(x * x, x * y))
    assert lhs.intersect(lhs).equals(lhs)


def test_colons():
    x, y = R2.gens()
    assert ideal2(x * x).colon(x).equals(ideal2(x))
    assert ideal2(x * y, y * y).colon(y).equals(ideal2(x, y))
    # in A = k[x,y]/(x^2, xy): ((y^2) + I_A) : y picks up x since x*y dies
    base = (x * x, x * y)
    quot = ideal2(y * y, base=base)
    col = quot.colon(y)
    assert PresentedIdeal(R2, (), base).contains(x * y)
    assert col.contains(x)


def test_colon_by_base_element_is_unit():
    x, y = R2.gens()
    quot = ideal2(y, base=(x * x,))
    col = quot.colon(x * x)
    assert not col.is_proper()
    assert col.contains(R2.one())


def test_colon_by_ideal():
    x, y = R2.gens()
    I = ideal2(x * x * y, x * y * y)
    J = ideal2(x, y)
    col = I.colon_ideal(J)
    assert col.equals(ideal2(x * y))
    # agrees with intersecting the elementwise colons
    assert col.equals(I.colon(x).intersect(I.colon(y)))


def test_saturations():
    x, y = R2.gens()
    sat, k = ideal2(x * x * y).saturation(x)
    assert sat.equals(ideal2(y)) and k == 2
    sat, k = ideal2(x).saturation(y)
    assert sat.equals(ideal2(x)) and k == 0
    # oracle first: 1 * x^2 lies in (x^2, xy), so 1 joins the union of colons
    target = ideal2(x * x, x * y)
    assert target.contains(R2.one() * x * x)
    sat, k = target.saturation(x)
    assert not sat.is_proper() and k == 2
    # bounded-degree oracle: membership in the union of colon stages
    for m in _monomials_upto(R2, 4):
        in_union = any(target.contains(m * x**j) for j in range(5))
        assert sat.contains(m) == in_union, str(m)


def test_saturation_chain_property():
    rng = random.Random(47)
    x, y = R2.gens()
    pool = [x * x * y, x * y * y, x**3, y * y, x * y]
    for _ in range(20):
        gens = rng.sample(pool, rng.randint(1, 3))
        ideal = ideal2(*gens)
        f = rng.choice((x, y))
        sat, k = ideal.saturation(f)
        chain = [ideal]
        for _ in range(k + 1):
            chain.append(chain[-1].colon(f))
        for i in range(k):
            assert contains_ideal(chain[i + 1], chain[i])
            assert not chain[i].equals(chain[i + 1]), "strict growth before exponent"
        assert chain[k].equals(chain[k + 1])
        assert sat.equals(chain[k])


def test_eliminate():
    R3 = PolynomialRing(QQ, ("t", "x", "y"))
    t, x, y = R3.gens()
    parabola = PresentedIdeal(R3, (), (y - t * t, x - t)).eliminate([0])
    assert parabola.contains(y - x * x)
    assert all(all(m[0] == 0 for m in g.terms) for g in parabola.generators)
    # eliminating nothing returns the same ideal
    I = PresentedIdeal(R3, (), (x * y - t,))
    assert I.eliminate([]).equals(PresentedIdeal(R3, (), I.combined()))


def test_eliminate_tag_from_rees_style_input():
    R3 = PolynomialRing(QQ, ("x", "y1", "T"))
    x, y1, T = R3.gens()
    out = PresentedIdeal(R3, (), (y1 - x * T,)).eliminate([2])
    assert all(all(m[2] == 0 for m in g.terms) for g in out.combined())
    assert out.is_zero()


def test_krull_dimensions():
    x, y = R2.gens()
    assert ideal2(x).krull_dim() == 1
    assert PresentedIdeal(RS, (), curve_base()).krull_dim() == 1
    X, Y, Z = RS.gens()
    cone = PresentedIdeal(RS, (), (X * Z, Y * Z, Y**4, Z * Z))
    assert cone.krull_dim() == 1
    assert PresentedIdeal(RS, (), (RS.one(),)).krull_dim() == -1
    assert PresentedIdeal(RS, (), ()).krull_dim() == 3


def test_krull_dim_is_computed_once_per_ideal(monkeypatch):
    calls = []
    real = PresentedIdeal._independent_set_size
    monkeypatch.setattr(PresentedIdeal, "_independent_set_size",
                        lambda self: calls.append(1) or real(self))
    X, Y, Z = RS.gens()
    cone = PresentedIdeal(RS, (), (X * Z, Y * Z, Y**4, Z * Z))
    unit = PresentedIdeal(RS, (), (RS.one(),))
    assert [cone.krull_dim(), cone.krull_dim(), unit.krull_dim(), unit.krull_dim()] == [1, 1, -1, -1]
    assert len(calls) == 2
    assert cone.spawn(cone.generators).krull_dim() == 1 and len(calls) == 3


def test_equality_and_membership():
    x, y = R2.gens()
    assert ideal2(x, y).equals(ideal2(y, x))
    assert ideal2(x).contains(x * x)
    X, Y, _ = RS.gens()
    IA = PresentedIdeal(RS, (), curve_base())
    # oracle: both monomials map to t^20 under the curve parametrization
    Rt = PolynomialRing(QQ, ("t",))
    t, = Rt.gens()
    assert substitute(Y**4 - X**5, [t**4, t**5, t**11]).is_zero()
    assert IA.contains(Y**4 - X**5)


def test_base_mismatch_rejected():
    x, y = R2.gens()
    with pytest.raises(RingMismatchError):
        ideal2(x).intersect(ideal2(y, base=(x * x,)))


def test_colon_soundness_and_bounded_completeness():
    rng = random.Random(53)
    x, y = R2.gens()
    pool = [x * x, x * y, y**3, x**3 - y * y, x * y * y]
    for _ in range(25):
        gens = rng.sample(pool, rng.randint(1, 3))
        ideal = ideal2(*gens)
        f = rng.choice((x, y, x + y))
        col = ideal.colon(f)
        for g in col.groebner().generators:
            assert ideal.contains(g * f), "colon soundness"
        for m in _monomials_upto(R2, 5):
            if ideal.contains(m * f):
                assert col.contains(m), f"bounded completeness at {m}"


def test_power_coherence():
    rng = random.Random(59)
    x, y = R2.gens()
    ctx = FiltrationContext(R2, (), (), (x * x - y, y * y), [])
    for _ in range(8):
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        prod = product(ctx.q_power(m), ctx.q_power(n)) if m and n else None
        if prod is None:
            continue
        assert contains_ideal(ctx.q_power(m + n), prod)


def test_intersection_universal_property_on_monomials():
    rng = random.Random(61)
    x, y = R2.gens()
    monos = [x * x, x * y, y * y, x**3, y**3, x * y * y]
    for _ in range(15):
        I = ideal2(*rng.sample(monos, 2))
        J = ideal2(*rng.sample(monos, 2))
        K = ideal2(*rng.sample(monos, 1))
        meet = I.intersect(J)
        assert contains_ideal(I, meet) and contains_ideal(J, meet)
        if contains_ideal(I, K) and contains_ideal(J, K):
            assert contains_ideal(meet, K)


# ---------------------------------------------------------------------------
# Reference route: tag-variable elimination (kept here, not in the package)
# ---------------------------------------------------------------------------

def tag_meet(gens_a, gens_b):
    """Generators of (gens_a) cap (gens_b) as ideals of P: eliminate a tag t
    from t*(gens_a) + (1 - t)*(gens_b)."""
    ring = (gens_a + gens_b)[0].ring
    n = ring.nvars
    big = ring.extend((ring.fresh_name("t"),))
    t, emb = big.var(n), list(range(n))
    lifted = [t * g.map_to(big, emb) for g in gens_a]
    lifted += [(big.one() - t) * g.map_to(big, emb) for g in gens_b]
    meet = PresentedIdeal(big, (), lifted).eliminate([n])
    return tuple(g.map_to(ring, emb + [0]) for g in meet.generators)


def divide(g, f):
    """g / f for a multiple g of f, by leading-term division."""
    ring = g.ring
    lead, coeff = f.leading_term()
    quotient = ring.zero()
    while not g.is_zero():
        mono, c = g.leading_term()
        assert all(a >= b for a, b in zip(mono, lead)), "not a multiple"
        term = ring.monomial(tuple(a - b for a, b in zip(mono, lead)), ring.field.div(c, coeff))
        quotient = quotient + term
        g = g - term * f
    return quotient


def tag_intersect(I, J):
    return I.spawn(tag_meet(I.combined(), J.combined()))


def tag_colon(I, f):
    """(I : f) = (I cap (f)) / f, the principal ideal taken in P."""
    return I.spawn(divide(g, f) for g in tag_meet(I.combined(), (f,)))


def test_colon_and_intersection_match_tag_elimination():
    rng = random.Random(67)
    x, y = R2.gens()
    pool = [x * x, x * y, y**3, x**3 - y * y, x * y * y, x + y * y]
    bases = [(), (x * x * y,), (x**3 - y**2,)]
    for _ in range(20):
        base = rng.choice(bases)
        I = ideal2(*rng.sample(pool, rng.randint(1, 3)), base=base)
        J = ideal2(*rng.sample(pool, rng.randint(1, 2)), base=base)
        f = rng.choice((x, y, x + y, x * y - y))
        assert I.colon(f).equals(tag_colon(I, f))
        assert I.intersect(J).equals(tag_intersect(I, J))
        assert I.colon_ideal(J).equals(tag_intersect(tag_colon(I, J.generators[0]),
                                                     tag_colon(I, J.generators[-1])))
    X, Y, Z = RS.gens()
    curve = PresentedIdeal(RS, curve_base(), (X * Y, Z))
    assert curve.colon(X).equals(tag_colon(curve, X))
    assert curve.intersect(curve.spawn((Y,))).equals(tag_intersect(curve, curve.spawn((Y,))))
    F3 = PolynomialRing(FieldSpec(3), ("x", "y"))
    u, v = F3.gens()
    I = PresentedIdeal(F3, (u**3 - v**2,), (u * v, v**3))
    assert I.colon(u + 2 * v).equals(tag_colon(I, u + 2 * v))


def kernel_meet(ideals, elements):
    """The meet of the colons (I_k : f_k) by the full graph route."""
    column = FreeModuleElement(ideals[0].ring, tuple(elements))
    kernel = graph_kernel([column], ideals[0].order, [i.combined() for i in ideals])
    return tuple(v.components[0] for v in kernel)


def tag_meet_of_colons(ideals, elements):
    """The same meet by tag elimination, as a reduced basis; a zero ideal's
    colon is zero, and so is every meet with it."""
    colons = [I if I.is_zero() else tag_colon(I, f) for I, f in zip(ideals, elements)]
    meet = colons[0]
    for other in colons[1:]:
        meet = meet if meet.is_zero() else other if other.is_zero() else tag_intersect(meet, other)
    return meet.groebner().generators


def random_monomials(ring, rng, count):
    return [ring.monomial(tuple(rng.randint(0, 3) for _ in range(ring.nvars)))
            for _ in range(count)]


@pytest.mark.parametrize("characteristic", [0, 2, 3])
def test_monomial_colons_match_both_routes(characteristic, kernel_calls):
    # inputs whose reduced bases and elements are all monomials are read
    # off exponents, with no kernel; the result must be the full graph
    # route's and the tag route's, generator for generator
    rng = random.Random(2500 + characteristic)
    field = QQ if characteristic == 0 else FieldSpec(characteristic)
    orders = (DEGREVLEX, LEX, weighted_order((0, 2, 1)), block_order((1,)))
    checked = zeros = 0
    for order in orders:
        for trial in range(8):
            ring = PolynomialRing(field, ("x", "y", "z")[:rng.randint(1, 3)])
            base = tuple(random_monomials(ring, rng, rng.randint(0, 1)))

            def ideal(*gens):
                return PresentedIdeal(ring, base, gens, order=order)

            ideals = [ideal(*random_monomials(ring, rng, rng.randint(1, 4))) for _ in range(3)]
            ideals += [ideal(ring.one()), ideal()]  # the unit ideal, and the base alone
            zeros += ideals[-1].is_zero()
            elements = random_monomials(ring, rng, 3)
            scale = 2 if characteristic != 2 else 1  # a coefficient other than 1
            elements.append(elements[0].scale(scale))
            cases = [((I,), (f,)) for I in ideals for f in (elements[0], elements[3])]
            cases.append((ideals[:2], elements[:2]))
            cases.append((ideals[:3], elements[:3]))
            cases.append((ideals[2:], elements[1:]))
            cases.append((ideals[1:], (ring.one(),) * 4))
            for targets, powers in cases:
                result = meet_of_colons(targets, powers)
                assert result.generators == kernel_meet(targets, powers), (order, trial)
                assert result.generators == tag_meet_of_colons(targets, powers), (order, trial)
                assert_seeded_basis(result)
                checked += 1
            I, J = ideals[0], ideals[1]
            expected = kernel_meet((I,) * len(J.generators), J.generators)
            assert I.colon_ideal(J).generators == expected
            f = elements[1]
            saturated, k = I.saturation(f)
            current, steps = I, 0
            while True:
                nxt = I.spawn(kernel_meet((current,), (f,)))
                if nxt.equals(current):
                    break
                current, steps = nxt, steps + 1
            assert saturated.groebner().generators == current.groebner().generators
            assert k == steps
    assert checked == len(orders) * 8 * 14 and zeros > 0
    assert kernel_calls == []


def test_mixed_inputs_keep_the_kernel(kernel_calls):
    # one binomial, in an element, in a generator or in a base that does
    # not reduce to monomials, sends the meet to the kernel; generators
    # whose reduced basis is monomial do not
    x, y = R2.gens()
    monomial = ideal2(x * x, x * y)
    mixed = [
        ((monomial,), (x + y,)),
        ((monomial, ideal2(y * y, x - y)), (x, y)),
        ((ideal2(y * y, base=(x**3 - x * y,)),), (x,)),
    ]
    for targets, powers in mixed:
        kernel_calls.clear()
        result = meet_of_colons(targets, powers)
        assert kernel_calls == [1]
        assert result.generators == kernel_meet(targets, powers)
        assert result.generators == tag_meet_of_colons(targets, powers)
    kernel_calls.clear()
    assert ideal2(x + y, y).colon(x).generators == (R2.one(),)
    assert ideal2(x * x, base=(x**3 - y * y, y * y)).colon(x).generators == (x, y * y)
    assert kernel_calls == []


def test_colon_by_zero_is_the_unit_ideal_with_no_kernel(kernel_calls):
    # (I : 0) is the unit ideal, the identity of the meet: alone, or by the
    # zero ideal, it is (1), seeded with its basis, with no kernel; beside
    # another colon it drops out, and the meet is that colon, by one kernel
    x, y = R2.gens()
    zero, one = R2.zero(), R2.one()
    target = ideal2(x * y - y * y)
    for unit in (target.colon(zero), target.colon_ideal(target.spawn(())),
                 meet_of_colons((target, ideal2(x)), (zero, zero)),
                 ideal2(x * x, base=(x * y - y * y,)).colon(zero)):
        assert unit.generators == (one,) and unit.groebner().generators == (one,)
    assert kernel_calls == []
    other = ideal2(x * x - y**3)
    for targets, elements in (((target, other), (zero, x + y)), ((other, target), (x + y, zero))):
        kernel_calls.clear()
        meet = meet_of_colons(targets, elements)
        assert kernel_calls == [1]
        assert meet.generators == kernel_meet((other,), (x + y,))
        assert meet.equals(other.colon(x + y))


def test_meet_of_colons_checks_its_arguments():
    x, y = R2.gens()
    with pytest.raises(RingMismatchError):
        meet_of_colons((ideal2(x), ideal2(y, base=(x * x,))), (x, y))
    with pytest.raises(RingMismatchError):
        meet_of_colons((ideal2(x),), (RS.var(0),))
    with pytest.raises(ValidationError):
        meet_of_colons((ideal2(x),), (x, y))


def test_two_element_level_ideals_match_tag_elimination(corpus):
    """The level ideals of every two-element corpus system, as one kernel,
    against two tag-route colons and a tag-route intersection."""
    checked = 0
    for inst in corpus:
        ctx = inst.ctx
        if len(ctx.system) != 2:
            continue
        for n, l in ((0, 1), (1, 2), (2, 3)):
            targets = [ctx.q_power(n + l * s.degree) for s in ctx.system]
            powers = [ctx.system_power(i, l) for i in range(2)]
            expected = tag_intersect(tag_colon(targets[0], powers[0]),
                                     tag_colon(targets[1], powers[1]))
            assert meet_of_colons(targets, powers).equals(expected), (inst.name, n, l)
        checked += 1
    assert checked >= 5


def assert_seeded_basis(result):
    """The kernel seeds the basis cache with the result's reduced basis in
    the result's one order."""
    assert result._gb is not None and result._gb.order == result.order
    fresh = buchberger(result.combined(), result.order).generators
    assert result._gb.generators == fresh
    assert result.groebner().generators == fresh


def test_kernel_results_seed_their_basis_cache(corpus):
    x, y = R2.gens()
    base = (x**3 - y * y,)
    I, J = ideal2(x * x, x * y, base=base), ideal2(y**3, x + y * y, base=base)
    for result in (I.colon(y), I.colon(x + y), I.intersect(J), I.colon_ideal(J),
                   ideal2(x * y).colon(x), ideal2(x * y).intersect(ideal2(y * y))):
        assert_seeded_basis(result)
    zero = ideal2().colon(x)  # zero kernel, empty base
    assert zero.generators == () and zero.is_zero()
    assert_seeded_basis(zero)
    unit = I.colon(x * x)  # colon by a member
    assert not unit.is_proper()
    assert_seeded_basis(unit)
    # an ideal in a weighted order: its kernels take that order
    weighted = PresentedIdeal(R2, base, (x * x, x * y), order=weighted_order((0, 1)))
    for result in (weighted.colon(y), weighted.colon_ideal(weighted.spawn((x, y)))):
        assert result.order == weighted.order
        assert_seeded_basis(result)
    checked = 0
    for inst in corpus:
        ctx = inst.ctx
        if len(ctx.system) != 2:
            continue
        for n, l in ((0, 1), (1, 2)):
            targets = [ctx.q_power(n + l * s.degree) for s in ctx.system]
            powers = [ctx.system_power(i, l) for i in range(2)]
            assert_seeded_basis(meet_of_colons(targets, powers))
        checked += 1
    assert checked >= 5


def test_contains_ideal_matches_elementwise_membership():
    rng = random.Random(71)
    x, y = R2.gens()
    pool = [x * x, x * y, y**3, x**3 - y * y, x * y * y, x + y * y, x, y]
    bases = [(), (x * x * y,), (x**3 - y**2,)]
    for _ in range(30):
        base = rng.choice(bases)
        I = ideal2(*rng.sample(pool, rng.randint(1, 3)), base=base)
        J = ideal2(*rng.sample(pool, rng.randint(1, 3)), base=base)
        assert contains_ideal(I, J) == all(I.contains(g) for g in J.combined())


def test_is_m_primary_matches_radical_membership():
    # a proper J is m-primary exactly when 1 lies in J + (1 - t*v) for each
    # variable v, so that v is nilpotent modulo J (Rabinowitsch); on ideals
    # with and without zeros away from the origin, with and without a base
    x, y = R2.gens()
    big = R2.extend(("t",))
    t = big.var(2)

    def nilpotent(ideal, v):
        gens = [g.map_to(big, [0, 1]) for g in ideal.combined()]
        return buchberger(gens + [big.one() - t * v.map_to(big, [0, 1])]).generators == (big.one(),)

    cases = [
        (ideal2(x * x, y**3), True),
        (ideal2(x * y, x * x + y * y), True),
        (ideal2(y * y, base=(x**3 - x**3 * y,)), True),  # a base component at y = 1
        (ideal2(y, x * x - x**3), False),  # a zero at (1, 0)
        (ideal2(x * x), False),  # the y-axis
        (ideal2(x - 1, y), False),
        (ideal2(R2.one()), False),
    ]
    for ideal, expected in cases:
        assert ideal.is_m_primary() == expected, str(ideal)
        assert (ideal.is_proper() and all(nilpotent(ideal, v) for v in (x, y))) == expected


def test_one_order_per_ideal():
    """Derived ideals keep their ideal's order, a sum extends its summand's
    basis to the same reduced basis, and ideals in two orders do not mix."""
    x, y = R2.gens()
    order = weighted_order((0, 1))
    I = PresentedIdeal(R2, (x**3 - y * y,), (x * y,), order=order)
    J = I.sum_with(x * x - y, y**3)
    assert J.order == I.spawn(()).order == I.colon(x).order == order
    assert J.groebner() == buchberger(J.combined(), order)
    assert J.groebner().generators != buchberger(J.combined()).generators
    with pytest.raises(RingMismatchError):
        I.equals(ideal2(x * y, base=I.base))
    assert weighted_order((1, 1)) is DEGREVLEX and weighted_order((2, 2)) == DEGREVLEX
