"""Tour 1: exact polynomial arithmetic and Groebner bases.

Run with:  python3 demos/01_exact_polynomials_and_groebner.py
"""

from formcone import (
    DEGREVLEX,
    LEX,
    QQ,
    FieldSpec,
    PolynomialRing,
    buchberger,
    normal_form,
    syzygy_basis,
)

# (1) Rings fix a field and an ordered variable list.  All arithmetic is
# exact: ints and Fractions over QQ, reduced residues over a prime field.
R = PolynomialRing(QQ, ("x", "y", "z"))
x, y, z = R.gens()
f = R.parse("x^4 - y*z")
print("parsed:", f)
print("product:", (x + y) * (x - y))

F5 = PolynomialRing(FieldSpec(5), ("t",))
t, = F5.gens()
print("over F5:", (t.scale(4)).scale(3), "   (12 mod 5 = 2)")

# (2) Leading terms depend on the monomial order.
g = x**2 + x * y + y**3
print("degrevlex lead:", g.leading_term(DEGREVLEX))
print("lex lead:      ", g.leading_term(LEX))

# (3) A reduced Groebner basis answers membership questions exactly.
# Classic elimination: the twisted cubic (t, t^2, t^3).
gb = buchberger([x * x - y, x**3 - z], LEX)
print("\ntwisted cubic, lex basis:")
for element in gb.generators:
    print("  ", element.to_string(LEX))
print("y^3 - z^2 reduces to:", normal_form(y**3 - z**2, gb))

# (4) Syzygies: all relations among a list of polynomials.
cols = [x, y]
for s in syzygy_basis(cols):
    print("syzygy of (x, y):", s, "  check:", s.dot(cols))
