import random
from fractions import Fraction
from itertools import product as cartesian

import pytest
from oracle import is_field_value, mono_compare, substitute

from formcone import (
    DEGREVLEX,
    LEX,
    QQ,
    FieldSpec,
    ParseError,
    Polynomial,
    PolynomialRing,
    RingMismatchError,
    ValidationError,
    block_order,
    parse_polynomial,
    weighted_order,
)
from formcone.rings import (
    MAX_NESTING,
    _drl_key,
    exponents,
    minimal_monomials,
    mono_divides,
    mono_lcm,
    mono_mul,
)

R2 = PolynomialRing(QQ, ("x", "y"))
R3 = PolynomialRing(QQ, ("X", "Y", "Z"))


def test_field_spec_validation():
    assert FieldSpec(0).is_rationals
    assert FieldSpec(2).characteristic == 2
    assert FieldSpec(5).inv(3) == 2
    with pytest.raises(ValidationError):
        FieldSpec(6)
    with pytest.raises(ValidationError):
        FieldSpec(2**31 + 11)


def test_rational_coercion_is_reduced():
    f = FieldSpec(0)
    c = f.coerce(Fraction(4, -6))
    assert c == Fraction(-2, 3) and c.denominator == 3
    assert type(f.coerce(Fraction(6, 3))) is int and f.coerce(True) == 1


def test_field_operations_keep_the_coefficient_format():
    # every result of the six operations is in the field's format and equals
    # plain Fraction arithmetic (reduced mod p over F_p)
    rng = random.Random(5)

    def draw():
        # an integral value comes as an int or as a Fraction with denominator 1
        value = Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 4, 6)))
        return int(value) if value.denominator == 1 and rng.random() < 0.5 else value

    for fld in (QQ, FieldSpec(7)):
        p = fld.characteristic

        def expect(value):
            return value if not p else value.numerator * pow(value.denominator, -1, p) % p

        for _ in range(300):
            a, b = draw(), draw()
            if p and (Fraction(a).denominator % p or Fraction(b).denominator % p):
                continue
            x, y = fld.coerce(a), fld.coerce(b)
            results = [(x, expect(Fraction(a))), (fld.add(x, y), expect(Fraction(a) + b)),
                       (fld.mul(x, y), expect(Fraction(a) * b)), (fld.neg(x), expect(-Fraction(a)))]
            if b:
                results += [(fld.inv(y), expect(1 / Fraction(b))),
                            (fld.div(x, y), expect(Fraction(a) / b))]
            for got, want in results:
                assert is_field_value(got, p) and got == want, (fld, a, b, got, want)


def test_parser_and_arithmetic_keep_integral_values_as_ints():
    x, y = R2.gens()
    f = R2.parse("4/2*x + 1/2*y")
    assert f.terms == {(1, 0): 2, (0, 1): Fraction(1, 2)} and type(f.terms[(1, 0)]) is int
    g = f * R2.parse("2*y") + f.scale(Fraction(2, 3)) - y.scale(Fraction(1, 3))
    assert all(is_field_value(c, 0) for c in g.terms.values())
    assert g == x * y.scale(4) + y * y + x.scale(Fraction(4, 3))


def test_floats_and_negative_exponents_rejected():
    with pytest.raises(ValidationError):
        FieldSpec(0).coerce(0.5)
    with pytest.raises(ValidationError):
        R2.constant(1.25)
    with pytest.raises(ValidationError):
        R2.monomial((-1, 0))


def test_scalar_equality_is_symmetric():
    x, _ = R2.gens()
    assert R2.constant(3) == 3 and 3 == R2.constant(3)
    assert x - x == 0
    assert (x + 1) - x == Fraction(1)


def test_add_cancels():
    x, y = R2.gens()
    assert (x + y) + (-y) == x


def test_difference_of_squares():
    x, y = R2.gens()
    assert (x + y) * (x - y) == x**2 - y**2


def test_field_division():
    F7 = FieldSpec(7)
    assert QQ.div(Fraction(3, 4), Fraction(-3, 2)) == Fraction(-1, 2)
    # exact, never a float, and an int exactly when the quotient is integral
    assert type(QQ.div(3, 2)) is Fraction and QQ.div(3, 2) == Fraction(3, 2)
    assert type(QQ.div(6, 3)) is int and QQ.div(6, 3) == 2
    assert type(QQ.div(Fraction(3, 2), Fraction(1, 2))) is int
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)
    assert F7.div(3, 5) == F7.mul(3, F7.inv(5)) == 2
    for fld in (QQ, F7):
        with pytest.raises(ZeroDivisionError):
            fld.div(fld.coerce(1), fld.coerce(0))


def test_prime_field_scalars():
    F5 = PolynomialRing(FieldSpec(5), ("x",))
    x, = F5.gens()
    assert x.scale(4).scale(3) == x.scale(2)  # 12 mod 5


def test_cross_ring_mixing_rejected():
    x, _ = R2.gens()
    X, _, _ = R3.gens()
    with pytest.raises(RingMismatchError):
        _ = x + X


def test_degrevlex_tiebreak():
    assert mono_compare(DEGREVLEX, (2, 0), (1, 1)) > 0  # x^2 > x*y


def test_lex_ignores_degree():
    assert mono_compare(LEX, (1, 0), (0, 3)) > 0  # x > y^3


def test_block_dominance():
    order = block_order([0])
    assert mono_compare(order, (1, 0), (0, 100)) > 0  # T beats x^100


def test_compare_length_mismatch():
    with pytest.raises(RingMismatchError):
        mono_compare(DEGREVLEX, (1, 0), (1, 0, 0))


def test_leading_terms():
    x, y = R2.gens()
    assert (x**2 + x * y).leading_term(DEGREVLEX) == ((2, 0), 1)
    assert (y.scale(3)).leading_term(DEGREVLEX) == ((0, 1), 3)
    X, Y, Z = R3.gens()
    # total degree 4 beats total degree 2, no tiebreak needed
    assert (X**4 - Y * Z).leading_term(DEGREVLEX) == ((4, 0, 0), 1)
    with pytest.raises(ValidationError):
        R2.zero().leading_term(DEGREVLEX)


def _random_poly(rng, ring, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
        coeff = ring.field.coerce(rng.randint(-4, 4))
        if coeff:
            terms[mono] = coeff
    return Polynomial(ring, terms)


@pytest.mark.parametrize("char", [0, 5])
def test_ring_axioms_randomized(char):
    ring = PolynomialRing(FieldSpec(char), ("x", "y", "z"))
    rng = random.Random(101 + char)
    for _ in range(60):
        f, g, h = (_random_poly(rng, ring) for _ in range(3))
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


@pytest.mark.parametrize("order", [
    DEGREVLEX, LEX, block_order([1]), weighted_order((0, 1, 1)),
])
def test_orders_total_multiplicative(order):
    rng = random.Random(7)
    for _ in range(120):
        a, b, c, u = (tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(4))
        cab = mono_compare(order, a, b)
        assert cab == -mono_compare(order, b, a)
        if cab == 0:
            assert a == b
        # transitivity
        if cab > 0 and mono_compare(order, b, c) > 0:
            assert mono_compare(order, a, c) > 0
        # multiplicativity
        au = tuple(i + j for i, j in zip(a, u))
        bu = tuple(i + j for i, j in zip(b, u))
        assert mono_compare(order, au, bu) == cab


def test_monomial_helpers_match_their_definitions():
    rng = random.Random(29)
    for nvars in range(1, 7):
        for _ in range(40):
            a, b = (tuple(rng.randint(0, 5) for _ in range(nvars)) for _ in range(2))
            assert mono_lcm(a, b) == tuple(max(x, y) for x, y in zip(a, b))
            assert mono_mul(a, b) == tuple(x + y for x, y in zip(a, b))
            assert mono_divides(a, b) == all(x <= y for x, y in zip(a, b))
            assert _drl_key(a) == (sum(a), tuple(-e for e in reversed(a)))


def test_well_order_has_unit_bottom():
    for order in (DEGREVLEX, LEX, block_order([0]), weighted_order((0, 1))):
        assert mono_compare(order, (0, 0), (1, 2)) < 0


def test_print_parse_round_trip_randomized():
    rng = random.Random(11)
    for char in (0, 5):
        ring = PolynomialRing(FieldSpec(char), ("x", "y", "z"))
        for _ in range(80):
            f = _random_poly(rng, ring)
            assert ring.parse(f.to_string(DEGREVLEX)) == f


def test_canonical_text_form():
    X, Y, Z = R3.gens()
    assert str(X**4 - Y * Z) == "X^4 - Y*Z"
    assert str(R3.zero()) == "0"
    assert str(X.scale(Fraction(1, 2)) + 3) == "1/2*X + 3"


def test_parser_variants_and_errors():
    assert R2.parse("3x + 1/2 y^2") == R2.parse("3*x + 1/2*y^2")
    assert R2.parse("2(x+y)") == R2.parse("2*x + 2*y")
    assert R2.parse("-x - -y") == R2.parse("y - x")
    with pytest.raises(ParseError) as err:
        R2.parse("x + w")
    assert err.value.line == 1 and err.value.column == 5
    with pytest.raises(ParseError):
        R2.parse("x ^ y")
    with pytest.raises(ParseError):
        R2.parse("x + ")
    with pytest.raises(ParseError):
        parse_polynomial(R2, "(x + y")


def test_parenthesis_nesting_is_bounded():
    """Nesting up to MAX_NESTING parses; one level more is a parse error at
    the opening parenthesis, long before Python's recursion limit."""
    nested = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert R2.parse(nested) == R2.parse("x")
    with pytest.raises(ParseError) as err:
        parse_polynomial(R2, "y + (" + nested + ")", line=3, col_offset=4)
    assert (err.value.line, err.value.column) == (3, 4 + 5 + MAX_NESTING)
    assert f"nested deeper than {MAX_NESTING}" in str(err.value)
    with pytest.raises(ParseError):
        R2.parse("(" * 1000 + "x" + ")" * 1000)


def test_substitution():
    Rt = PolynomialRing(QQ, ("t",))
    t, = Rt.gens()
    X, Y, Z = R3.gens()
    f = X**4 - Y * Z
    assert substitute(f, [t**4, t**5, t**11]).is_zero()
    g = Y**3 - X * Z
    assert substitute(g, [t**4, t**5, t**11]).is_zero()


def test_homogeneous_parts_with_weights():
    x, y = R2.gens()
    f = x**2 + y**3
    assert f.homogeneous_part(2) == x**2
    assert f.homogeneous_part(3) == y**3
    assert (x**2 * y + y).is_homogeneous((0, 1))
    assert not f.is_homogeneous()
    assert (x * y).is_homogeneous()


@pytest.mark.parametrize("nvars", range(1, 5))
def test_exponents_match_a_filtered_product(nvars):
    # itertools.product over range(degree + 1) runs in ascending lex order
    for degree in range(6):
        expected = [e for e in cartesian(range(degree + 1), repeat=nvars) if sum(e) == degree]
        assert exponents(nvars, degree) == expected, (nvars, degree)


def test_minimal_monomials_match_brute_force():
    rng = random.Random(7)
    for _ in range(200):
        nvars = rng.randint(1, 3)
        monos = [tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(rng.randint(1, 8))]
        expected = {m for m in monos
                    if not any(o != m and all(a <= b for a, b in zip(o, m)) for o in monos)}
        for key in (sum, DEGREVLEX.key()):
            kept = minimal_monomials(monos, key)
            assert set(kept) == expected and len(kept) == len(expected), monos
            assert kept == sorted(kept, key=key)
