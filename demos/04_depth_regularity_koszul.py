"""Tour 4: regular elements, Koszul grade, and depth of graded quotients.

Every verdict is exact and certified: regularity failures come with an
annihilator witness, grade values with a nonvanishing homology cycle, and
depth with a regular sequence and, below the dimension, a socle witness.
"""

from formcone import (
    FiltrationContext,
    GradedElement,
    KoszulWitness,
    PolynomialRing,
    QQ,
    colon_chain_regularity,
    depth,
    graded_dim,
    is_regular_element,
    is_system_of_parameters,
    koszul_grade,
    system_images,
)

RS = PolynomialRing(QQ, ("X", "Y", "Z"))
X, Y, Z = RS.gens()
BASE = (X**4 - Y * Z, Y**3 - X * Z, Z**2 - X**3 * Y**2)
ctx = FiltrationContext(RS, BASE, (), (X, Y, Z), [(X, 1)])
cone = ctx.form_presentation()

# (1) Is the class of X regular on the tangent cone?  No: Z kills it.
verdict = is_regular_element(GradedElement(cone, ctx.graded_image(X, 1), 1))
print("X regular on the cone:", verdict.regular, "  witness:", verdict.witness)

# (2) The bounded colon chain sees the same failure from the filtration side.
print("colon-chain test:", colon_chain_regularity(ctx, X, n_max=6))

# (3) Koszul grade of the initial-form ideal, and the depth/dimension pair.
images = system_images(ctx)
print("grade of the initial-form ideal:", koszul_grade(cone, images).value)
report = depth(cone)
print("depth:", report.value, "  dim:", graded_dim(cone), "  route:", report.method)
print("depth witness (a class every variable kills):",
      [str(p) for w in report.certificate if isinstance(w, KoszulWitness) for p in w.cycle])

# (4) The initial form of X is a one-element system of parameters of the cone.
print("system of parameters:", is_system_of_parameters(cone, images))

# (5) For contrast, a Cohen-Macaulay cone: the cusp x^2 = y^3.
R2 = PolynomialRing(QQ, ("x", "y"))
x, y = R2.gens()
cusp = FiltrationContext(R2, (x * x - y**3,), (), (x, y), [(y, 1)])
cusp_cone = cusp.form_presentation()
print("cusp cone depth/dim:", depth(cusp_cone).value, "/", graded_dim(cusp_cone))
