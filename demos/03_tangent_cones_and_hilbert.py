"""Tour 3: blowup presentations, tangent cones, and Hilbert functions.

The associated graded ring of the q-adic filtration is presented by
eliminating the tag variable from the blowup relations.  When q's generators
are the variables, the package reads that presentation off the lowest-form
cone instead (Lazard's homogenization), and the elimination route recomputes
it independently: the two must agree exactly.
"""

from formcone import (
    QQ,
    FiltrationContext,
    GradedQuotientPresentation,
    PolynomialRing,
    PresentedIdeal,
    hilbert_function,
)

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

# (3) The form presentation came from the lowest-form cone.  The blowup
# presentation plus q's generators in the degree-0 variables recomputes it
# by elimination, independently.
direct = ctx.tangent_cone_direct()
print("renamed slots give the lowest-form cone back:", direct.ideal.equals(cone.ideal))
q_in_x = tuple(f.map_to(rees.ring, [0, 1, 2]) for f in ctx.q_generators)
eliminated = GradedQuotientPresentation(
    rees.ring, rees.weights, PresentedIdeal(rees.ring, (), rees.ideal.generators + q_in_x))
print("elimination route agrees:", eliminated.ideal.equals(form.ideal))

# (4) Hilbert function: dimensions of the graded slices; the multiplicity of
# the curve shows up as the stable value 4.
print("hilbert function:", hilbert_function(form, 8))

# (5) Initial data of ring elements along the filtration.
print("initial degree of X:", ctx.initial_degree(X))
print("initial degree of X^2 + Y^3:", ctx.initial_degree(X * X + Y**3))
