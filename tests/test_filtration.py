import pytest

from formcone import (
    QQ,
    DegenerateSystemError,
    FiltrationContext,
    PolynomialRing,
    PresentedIdeal,
    ValidationError,
    graded_dim,
    hilbert_function,
    is_regular_element,
)
from formcone.graded import GradedElement

R2 = PolynomialRing(QQ, ("x", "y"))
RS = PolynomialRing(QQ, ("X", "Y", "Z"))


def curve_context(q="m"):
    X, Y, Z = RS.gens()
    base = (X**4 - Y * Z, Y**3 - X * Z, Z**2 - X**3 * Y**2)
    q_gens = (X, Y, Z) if q == "m" else (X,)
    return FiltrationContext(RS, base, (), q_gens, [(X, 1)])


def test_construction_validations():
    x, y = R2.gens()
    with pytest.raises(ValidationError):  # unit base ideal
        FiltrationContext(R2, (R2.one(),), (), (x,), [])
    with pytest.raises(ValidationError):  # improper filtration ideal
        FiltrationContext(R2, (), (), (x, x + 1), [])
    with pytest.raises(ValidationError):  # zero module
        FiltrationContext(R2, (), (R2.one(),), (x,), [])
    with pytest.raises(ValidationError):  # system element zero in A
        FiltrationContext(R2, (x * x,), (), (x, y), [(x * x, None)])
    with pytest.raises(ValidationError):  # claimed degree off by one
        FiltrationContext(R2, (), (), (x, y), [(x, 3)])


def test_local_model_flag():
    x, y = R2.gens()
    good = FiltrationContext(R2, (), (), (x, y), [])
    assert not good.local_model_mismatch
    shifted = FiltrationContext(R2, (), (), (x + 1, y), [])
    assert shifted.local_model_mismatch


def test_initial_degrees():
    x, y = R2.gens()
    ctx = FiltrationContext(R2, (), (), (x, y), [])
    assert ctx.initial_degree(x * x + y**3) == 2
    assert ctx.initial_degree(R2.one()) == 0
    assert curve_context().initial_degree(RS.var(0)) == 1
    with pytest.raises(ValidationError):
        FiltrationContext(R2, (x,), (), (x, y), []).initial_degree(x)


def test_initial_form_zero_flag_convention():
    # x^2 = x^3 = ... in k[x]/(x^2 - x^3), so x^2 sits in every power of (x)
    R1 = PolynomialRing(QQ, ("x",))
    x, = R1.gens()
    ctx = FiltrationContext(R1, (x * x - x**3,), (), (x,), [], probe_cap=8)
    assert ctx.initial_degree(x * x) is None  # the zero-form convention
    assert ctx.initial_degree(x) == 1
    ctx2 = FiltrationContext(R1, (x * x - x**3,), (), (x,), [(x * x, None)], probe_cap=8)
    assert ctx2.system[0].zero_flag
    from formcone import defect_at
    with pytest.raises(DegenerateSystemError):
        defect_at(ctx2, 0)


def test_rees_presentations():
    # principal filtration on a polynomial line: no relations at all
    R1 = PolynomialRing(QQ, ("x",))
    x, = R1.gens()
    ctx1 = FiltrationContext(R1, (), (), (x,), [])
    assert ctx1.rees_presentation().ideal.is_zero()

    # full variable ideal on the plane: a single Koszul relation
    x, y = R2.gens()
    ctx2 = FiltrationContext(R2, (), (), (x, y), [])
    rees = ctx2.rees_presentation()
    ring = rees.ring
    X, Y, Y1, Y2 = (ring.var(i) for i in range(4))
    assert rees.ideal.equals(PresentedIdeal(ring, (), (X * Y2 - Y * Y1,)))

    # curve ring: the degree-0 slice of the blowup presentation is the base ideal
    ctx3 = curve_context()
    rees3 = ctx3.rees_presentation()
    x_only = [
        g for g in rees3.ideal.groebner(rees3.order).generators
        if all(all(m[i] == 0 for i in range(3, 6)) for m in g.terms)
    ]
    back = [0, 1, 2, 0, 0, 0]
    recovered = PresentedIdeal(RS, (), tuple(g.map_to(RS, back) for g in x_only))
    assert recovered.equals(PresentedIdeal(RS, (), ctx3.base_generators))


def test_form_presentation_of_regular_plane():
    x, y = R2.gens()
    ctx = FiltrationContext(R2, (), (), (x, y), [])
    form = ctx.form_presentation()
    assert form.contains(form.ring.var(0)) and form.contains(form.ring.var(1))
    assert graded_dim(form) == 2
    assert hilbert_function(form, 4) == [1, 2, 3, 4, 5]


def test_form_presentation_of_curve_matches_named_cone():
    ctx = curve_context()
    form = ctx.form_presentation()
    cone = form.variable_cone()
    X, Y, Z = RS.gens()
    expected = PresentedIdeal(RS, (), (X * Z, Y * Z, Y**4, Z * Z))
    assert cone.ideal.equals(expected)


def test_form_presentation_of_monomial_nilpotents():
    # I = (x^2, xy) is already a cone: its lowest forms are itself
    x, y = R2.gens()
    ctx = FiltrationContext(R2, (x * x, x * y), (), (x, y), [])
    direct = ctx.tangent_cone_direct()
    assert direct.ideal.equals(PresentedIdeal(R2, (), (x * x, x * y)))
    form = ctx.form_presentation()
    assert form.variable_cone().ideal.equals(direct.ideal)


def test_tangent_cone_direct_examples():
    x, y = R2.gens()
    ctx = FiltrationContext(R2, (x * x - y**3,), (), (x, y), [])
    cone = ctx.tangent_cone_direct()
    assert cone.ideal.equals(PresentedIdeal(R2, (), (x * x,)))

    flat = FiltrationContext(R2, (), (), (x, y), [])
    assert flat.tangent_cone_direct().ideal.is_zero()

    ctx_curve = curve_context()
    X, Y, Z = RS.gens()
    expected = PresentedIdeal(RS, (), (X * Z, Y * Z, Y**4, Z * Z))
    assert ctx_curve.tangent_cone_direct().ideal.equals(expected)

    with pytest.raises(ValidationError):
        curve_context(q="x").tangent_cone_direct()


@pytest.mark.parametrize("base,module", [
    ((), ()),
    (("x^2 - y^3",), ()),
    (("x^2", "x*y"), ()),
    ((), ("x^2",)),
])
def test_direct_and_elimination_cones_agree(base, module):
    ring = R2
    parse = ring.parse
    ctx = FiltrationContext(
        ring, tuple(parse(e) for e in base), tuple(parse(e) for e in module),
        ring.gens(), [],
    )
    direct = ctx.tangent_cone_direct()
    renamed = ctx.form_presentation().variable_cone()
    assert direct.ideal.equals(renamed.ideal)
    assert hilbert_function(direct, 10) == hilbert_function(renamed, 10)


def test_degree_zero_slice_matches_quotient():
    # degree-0 part of the graded presentation is A/(q + I_M)
    x, y = R2.gens()
    ctx = FiltrationContext(R2, (x**3 - y**4,), (), (x, y), [])
    form = ctx.form_presentation()
    x_only = [
        g for g in form.groebner().generators
        if all(all(m[i] == 0 for i in range(2, 4)) for m in g.terms)
    ]
    back = [0, 1, 0, 0]
    slice_ideal = PresentedIdeal(R2, (), tuple(g.map_to(R2, back) for g in x_only))
    expected = PresentedIdeal(R2, (), (x, y, x**3 - y**4))
    assert slice_ideal.equals(expected)


@pytest.mark.parametrize("base,q", [
    ((), "m"),
    (("x^2 - y^3",), "m"),
    (("x^2", "x*y"), "m"),
    (("x*y",), "x"),
])
def test_graded_dimension_equals_module_dimension(base, q):
    parse = R2.parse
    x, y = R2.gens()
    q_gens = (x, y) if q == "m" else (x,)
    ctx = FiltrationContext(R2, tuple(parse(e) for e in base), (), q_gens, [])
    form = ctx.form_presentation()
    assert graded_dim(form) == ctx.ideal_m.krull_dim()


def test_quotient_by_element():
    x, y = R2.gens()
    ctx = FiltrationContext(R2, (), (), (x, y), [(x, 1)])
    quot = ctx.quotient_by_element(x)
    assert quot.ideal_m.contains(x)
    assert quot.system == ctx.system
    # quotient by something already in the module ideal changes nothing
    again = quot.quotient_by_element(x)
    assert again.ideal_m.equals(quot.ideal_m)
    curve = curve_context()
    X = RS.var(0)
    assert curve.quotient_by_element(X).ideal_m.contains(X)


def test_graded_image_consistency():
    ctx = curve_context()
    X = RS.var(0)
    form = ctx.form_presentation()
    image = ctx.graded_image(X, 1, form)
    assert image == form.ring.var(3)  # the slot presenting the first q-generator
    assert ctx.system[0].degree == ctx.initial_degree(ctx.system[0].element)


def test_quotient_hilbert_matches_graded_quotient_for_regular_step():
    # whenever b's initial form is regular, the graded module of M/bM matches
    # the quotient of the graded module by that initial form, degreewise
    x, y = R2.gens()
    ctx = FiltrationContext(R2, (x**3 - y**3,), (), (x, y), [(x, 1)])
    form = ctx.form_presentation()
    image = ctx.graded_image(x, 1, form)
    element = GradedElement(form, image, 1)
    assert is_regular_element(form, element).regular
    quotient_pres = form.quotient_by((image,))
    ctx_quot = ctx.quotient_by_element(x)
    form_quot = ctx_quot.form_presentation()
    assert hilbert_function(quotient_pres, 10) == hilbert_function(form_quot, 10)
