"""Tour 3: blowup presentations, tangent cones, and Hilbert functions.

The associated graded ring of the q-adic filtration is presented by
eliminating the tag variable from the blowup relations; when q is the full
variable ideal there is an independent lowest-form route, and the two must
agree exactly.
"""

from formcone import FiltrationContext, PolynomialRing, QQ, hilbert_function

RS = PolynomialRing(QQ, ("X", "Y", "Z"))
X, Y, Z = RS.gens()
BASE = (X**4 - Y * Z, Y**3 - X * Z, Z**2 - X**3 * Y**2)

# (1) The coordinate ring of the monomial curve (t^4, t^5, t^11), filtered by
# its maximal ideal at the origin.
ctx = FiltrationContext(RS, BASE, (), (X, Y, Z), [(X, 1)])

rees = ctx.rees_presentation()
print("blowup presentation lives in:", rees.ring)

form = ctx.form_presentation()
print("graded quotient ideal (weighted basis):")
for g in form.groebner().generators:
    print("  ", g.to_string(form.order))

# (2) Rename the weight-1 slots back onto X, Y, Z: the tangent cone.
cone = ctx.variable_cone()
print("tangent cone:", [str(g) for g in cone.ideal.groebner().generators])

# (3) The lowest-form route recomputes it independently.
direct = ctx.tangent_cone_direct()
print("lowest-form route agrees:", direct.ideal.equals(cone.ideal))

# (4) Hilbert function: dimensions of the graded slices; the multiplicity of
# the curve shows up as the stable value 4.
print("hilbert function:", hilbert_function(form, 8))

# (5) Initial data of ring elements along the filtration.
print("initial degree of X:", ctx.initial_degree(X))
print("initial degree of X^2 + Y^3:", ctx.initial_degree(X * X + Y**3))
