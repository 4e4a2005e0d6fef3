from pathlib import Path

import pytest
from corpus import TIER4_BASES, tier4_contexts
from oracle import lifted_image, q_products, rees_cone, rees_form_presentation, rees_image

from formcone import (
    QQ,
    CriterionParams,
    DegenerateSystemError,
    FieldSpec,
    FiltrationContext,
    PolynomialRing,
    PresentedIdeal,
    ValidationError,
    cohen_macaulay_report,
    defect_scan,
    grade_by_recursion,
    graded_dim,
    hilbert_function,
    is_regular_element,
    parse_session,
)
from formcone.graded import GradedElement
from formcone.groebner import buchberger
from formcone.rings import exponents

ROOT = Path(__file__).resolve().parent.parent
R2 = PolynomialRing(QQ, ("x", "y"))
RS = PolynomialRing(QQ, ("X", "Y", "Z"))
R4 = PolynomialRing(QQ, ("x", "y", "z", "w"))
TIER4_PARAMS = CriterionParams(n_max=2, l_max=12, window=2, degree_cap=6)
OUTSIDE = r"^element is not in power 2 of the filtration ideal on the module$"


def curve_context(q="m"):
    X, Y, Z = RS.gens()
    base = (X**4 - Y * Z, Y**3 - X * Z, Z**2 - X**3 * Y**2)
    q_gens = (X, Y, Z) if q == "m" else (X,)
    return FiltrationContext(RS, base, (), q_gens, [(X, 1)])


def cone_context(q="xyzw"):
    """The twisted cubic cone, a graded input, with q's generators the
    named variables in the given order."""
    base = tuple(R4.parse(e) for e in TIER4_BASES[1])
    return FiltrationContext(R4, base, (), tuple(R4.parse(v) for v in q), [(R4.var(0), 1)])


def test_construction_validations():
    x, y = R2.gens()
    with pytest.raises(ValidationError):  # unit base ideal
        FiltrationContext(R2, (R2.one(),), (), (x,), [])
    with pytest.raises(ValidationError):  # improper filtration ideal
        FiltrationContext(R2, (), (), (x, x + 1), [])
    with pytest.raises(ValidationError):  # zero module
        FiltrationContext(R2, (), (R2.one(),), (x,), [])
    # the base checks A and q before the module: a zero module with an
    # improper q reports q
    with pytest.raises(ValidationError, match="filtration ideal is not proper"):
        FiltrationContext(R2, (), (R2.one(),), (x, x + 1), [])
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
    # a base component away from the origin: q + I_A = (x - 1, y) is proper,
    # but I_A + (all variables) is the unit ideal, so nothing is flagged
    away = FiltrationContext(R2, (x - 1,), (), (y,), [])
    assert not away.local_model_mismatch


def test_initial_degrees():
    x, y = R2.gens()
    ctx = FiltrationContext(R2, (), (), (x, y), [])
    assert ctx.initial_degree(x * x + y**3) == 2
    assert ctx.initial_degree(R2.one()) == 0
    assert curve_context().initial_degree(RS.var(0)) == 1
    with pytest.raises(ValidationError):
        FiltrationContext(R2, (x,), (), (x, y), []).initial_degree(x)


def test_contexts_share_their_base():
    """A context of M = A is its own base; derived contexts share it, and
    read initial degrees and powers modulo I_M, with ``base`` modulo I_A."""
    x, y = R2.gens()
    ctx = FiltrationContext(R2, (), (), (x, y), [(x, 1)])
    assert ctx.base is ctx and ctx.ideal_m is ctx.ideal_a
    quotient = ctx.quotient_by_element(y)
    assert quotient.base is ctx.base and quotient.system is ctx.system
    assert quotient.quotient_by_element(x).base is ctx.base
    exponents = ctx.with_exponent_system([(x * y, 1)])
    assert exponents.base is ctx.base and exponents.ideal_m is ctx.ideal_m
    parabola = FiltrationContext(R2, (), (y - x * x,), (x, y), [])
    assert parabola.base is not parabola and parabola.base.base is parabola.base
    assert parabola.initial_degree(y) == 2 and parabola.base.initial_degree(y) == 1
    assert parabola.q_power(2).contains(y) and not parabola.base.q_power(2).contains(y)
    assert parabola.quotient_by_element(x).base is parabola.base


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
    assert rees.ideal.order == rees.order
    assert rees.ideal.equals(rees.ideal.spawn((X * Y2 - Y * Y1,)))

    # curve ring: the degree-0 slice of the blowup presentation is the base ideal
    ctx3 = curve_context()
    rees3 = ctx3.rees_presentation()
    x_only = [
        g for g in rees3.groebner().generators
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
    cone = ctx.variable_cone()
    X, Y, Z = RS.gens()
    expected = PresentedIdeal(RS, (), (X * Z, Y * Z, Y**4, Z * Z))
    assert cone.ideal.equals(expected)


def test_form_presentation_of_monomial_nilpotents():
    # I = (x^2, xy) is already a cone: its lowest forms are itself, by the
    # lowest-form route, by the Rees route, and in the form presentation
    x, y = R2.gens()
    ctx = FiltrationContext(R2, (x * x, x * y), (), (x, y), [])
    direct = ctx.tangent_cone_direct()
    assert direct.ideal.equals(PresentedIdeal(R2, (), (x * x, x * y)))
    assert rees_cone(ctx).equals(direct.ideal)
    assert ctx.variable_cone().ideal.equals(direct.ideal)


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
    # the form presentation is read off the lowest-form cone here, so the
    # independent route is the Rees one, by tag-variable elimination
    ring = R2
    parse = ring.parse
    ctx = FiltrationContext(
        ring, tuple(parse(e) for e in base), tuple(parse(e) for e in module),
        ring.gens(), [],
    )
    direct = ctx.tangent_cone_direct()
    eliminated = rees_cone(ctx)
    assert direct.ideal.equals(eliminated)
    assert ctx.variable_cone().ideal.equals(eliminated)
    assert hilbert_function(direct, 10) == hilbert_function(rees_form_presentation(ctx), 10)


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
    image = ctx.graded_image(X, 1)
    assert image == form.ring.var(3)  # the slot presenting the first q-generator
    assert ctx.system[0].degree == ctx.initial_degree(ctx.system[0].element)
    # the Rees route (the curve) and the closed form (the cone, with q in
    # either order) agree on the edge cases: the first variable is outside
    # q^2 M, and elements of I_M, homogeneous or not, map to 0
    for ctx in (curve_context(), cone_context(), cone_context("wzyx")):
        n, x = ctx.ring.nvars, ctx.ring.var(0)
        form = ctx.form_presentation()
        slot = ctx.q_generators.index(x)
        assert ctx.graded_image(x, 1) == form.ring.var(n + slot), str(ctx)
        with pytest.raises(ValidationError, match=OUTSIDE):
            ctx.graded_image(x, 2)
        for g in ctx.base_generators[:2]:
            for d in range(4):
                assert ctx.graded_image(g, d).is_zero(), (str(ctx), str(g), d)
                assert ctx.graded_image((x + 1) * g, d).is_zero(), (str(ctx), str(g), d)


def test_quotient_hilbert_matches_graded_quotient_for_regular_step():
    # whenever b's initial form is regular, the graded module of M/bM matches
    # the quotient of the graded module by that initial form, degreewise
    x, y = R2.gens()
    ctx = FiltrationContext(R2, (x**3 - y**3,), (), (x, y), [(x, 1)])
    form = ctx.form_presentation()
    image = ctx.graded_image(x, 1)
    element = GradedElement(form, image, 1)
    assert is_regular_element(element).regular
    quotient_pres = form.quotient_by((image,))
    ctx_quot = ctx.quotient_by_element(x)
    form_quot = ctx_quot.form_presentation()
    assert hilbert_function(quotient_pres, 10) == hilbert_function(form_quot, 10)


def _ladder_contexts(corpus):
    """Cold contexts (fresh caches) over every input the ladder test covers."""
    out = [FiltrationContext(i.ctx.ring, i.ctx.base_generators, i.ctx.module_generators,
                             i.ctx.q_generators, []) for i in corpus]
    r4 = PolynomialRing(QQ, ("x", "y", "z", "w"))
    out += [FiltrationContext(r4, tuple(r4.parse(e) for e in base), (), r4.gens(), [])
            for base in TIER4_BASES]
    out.append(curve_context())  # the demo curve (t^4, t^5, t^11)
    for field in (QQ, FieldSpec(5)):
        ring = PolynomialRing(field, ("x", "y"))
        x, y = ring.gens()
        out.append(FiltrationContext(ring, (x**2 - y**3,), (), (x + y**2, y), []))
    X, Y, Z = RS.gens()
    out.append(FiltrationContext(RS, curve_context().base_generators,
                                 (Y**2 - X * Z, Z**2), (X, Y, Z), []))
    return out


def test_graded_image_matches_lifting(corpus):
    # one normal form against the Rees basis must give the image that lifting
    # over the products of q's generators gives, for each system element a_i
    # and each m * a_i with m a product of degree 1 or 2
    nonzero = 0
    for ctx in [i.ctx for i in corpus] + tier4_contexts() + [curve_context()]:
        form = ctx.form_presentation()
        for s in ctx.system:
            for d in range(3):
                for _, m in q_products(ctx, d):
                    b = m * s.element
                    expected = lifted_image(ctx, b, s.degree + d, form)
                    assert expected is not None
                    assert ctx.graded_image(b, s.degree + d) == expected, (str(ctx), str(b))
                    nonzero += not expected.is_zero()
    assert nonzero >= 300  # 304 of the 377 images

    # X is not in q^2 on the curve: both routes refuse it
    curve = curve_context()
    X = RS.var(0)
    form = curve.form_presentation()
    assert lifted_image(curve, X, 2, form) is None
    with pytest.raises(ValidationError):
        curve.graded_image(X, 2)

    # x is zero in M = A/(x), so it lies in q^2 M with class 0; lifting
    # modulo I_A alone refuses it
    x, _ = R2.gens()
    ctx = FiltrationContext(R2, (), (x,), R2.gens(), [])
    form = ctx.form_presentation()
    assert lifted_image(ctx, x, 2, form) is None
    assert ctx.graded_image(x, 2).is_zero()


def test_power_ladder_matches_products(corpus, monkeypatch):
    # q^n + J, from the previous power's basis or, on graded ladders, from
    # the closed form, must equal the old route, a basis of all degree-n
    # products of q's generators plus J; the ladder's shape is checked where
    # it is used.  Levels 0 and 1 are the unit ideal and the q + J whose
    # properness construction checked, so they run no basis computation.
    contexts = _ladder_contexts(corpus)
    assert any(ctx.module_generators for ctx in contexts)

    def refuse(*args):
        raise AssertionError("level 0 or 1 ran a basis computation")

    monkeypatch.setattr("formcone.ideals.buchberger", refuse)
    for ctx in contexts:
        assert ctx.base.q_power(1) is ctx.base.q_ideal
        for layer in (ctx, ctx.base):
            assert layer.q_power(0).groebner().generators == (ctx.ring.one(),)
            assert layer.q_power(1).is_proper()
    monkeypatch.undo()
    for ctx in contexts:
        for layer in (ctx, ctx.base):
            j_gens = layer.module_generators
            for n in range(9):
                products = tuple(p for _, p in q_products(ctx, n))
                ideal = layer.q_power(n)
                old = buchberger(products + layer.ideal_m.combined())
                assert ideal.groebner().generators == old.generators, (str(layer), n)
                assert ideal.base == ctx.base_generators
                if layer.is_graded() or n <= 1:
                    continue
                ladder = ideal.generators[len(j_gens):]
                assert ideal.generators[:len(j_gens)] == j_gens
                assert not any(g.is_zero() for g in ladder)
                assert len(set(ladder)) == len(ladder)


def test_graded_powers_need_no_basis_run(corpus, monkeypatch):
    # m^k + J read off J's reduced basis must be the basis of the degree-k
    # products plus J (the ladder test covers the corpus and tier-4 inputs
    # for k <= 8), here on the char-2 quadric and the 2x3 minors, and no
    # basis computation may run for it
    f2 = PolynomialRing(FieldSpec(2), ("x", "y", "z"))
    x, y, z = f2.gens()
    r6 = PolynomialRing(QQ, ("a", "b", "c", "d", "e", "f"))
    a, b, c, d, e, f = r6.gens()
    cases = [
        (f2, (x**2 + y**2 + z**2,), 8),
        (r6, (a * e - b * d, a * f - c * d, b * f - c * e), 6),
    ]
    contexts = [i.ctx for i in corpus] + tier4_contexts()
    assert sum(ctx.is_graded() for ctx in contexts) == 28
    assert [ctx.base.is_graded() for ctx in tier4_contexts()] == [False, True, True]
    expected = []
    for ring, base, top in cases:
        ctx = FiltrationContext(ring, base, (), ring.gens(), [])
        assert ctx.is_graded() and ctx.base.is_graded()
        for k in range(top + 1):
            products = tuple(p for _, p in q_products(ctx, k))
            expected.append((ctx, k, buchberger(products + base).generators))

    def refuse(*args):
        raise AssertionError("graded power ran a basis computation")

    monkeypatch.setattr("formcone.ideals.buchberger", refuse)
    for ctx, k, basis in expected:
        for layer in (ctx, ctx.base):
            assert layer.q_power(k).groebner().generators == basis, (str(ctx), k)


def _refuse_rees(*args):
    raise AssertionError("a graded input ran the Rees basis")


def test_graded_forms_match_the_rees_route(corpus_results, monkeypatch):
    # on inputs whose q is generated by the variables, graded or not, the
    # form presentation read off I_M or its lowest-form cone must have the
    # reduced basis of the Rees route: the corpus and tier-4 inputs and the
    # quotients their grade recursions pass through, the demo curve, the
    # affine input x - x*z, y - y*z (global and local dimensions differ),
    # the char-2 quadric, the 2x3 minors, and the cone with q's generators
    # in two other orders, so that y_j is not the j-th variable: reversed, a
    # symmetry of the cone, and one that is not
    inputs = []
    for ctx, recursion in ([(r["instance"].ctx, r["report"].recursion_report)
                            for r in corpus_results]
                           + [(c, grade_by_recursion(c)) for c in tier4_contexts()]):
        module = ctx.module_generators
        inputs.append((ctx.ring, ctx.base_generators, module, ctx.q_generators))
        for step in recursion.certificate:
            module += (step.element,)
            inputs.append((ctx.ring, ctx.base_generators, module, ctx.q_generators))
    f2 = PolynomialRing(FieldSpec(2), ("x", "y", "z"))
    r6 = PolynomialRing(QQ, ("a", "b", "c", "d", "e", "f"))
    a, b, c, d, e, f = r6.gens()
    r3 = PolynomialRing(QQ, ("x", "y", "z"))
    x, y, z = r3.gens()
    inputs += [
        (RS, curve_context().base_generators, (), RS.gens()),
        (r3, (x - x * z, y - y * z), (), r3.gens()),
        (f2, (f2.parse("x^2 + y^2 + z^2"),), (), f2.gens()),
        (r6, (a * e - b * d, a * f - c * d, b * f - c * e), (), r6.gens()),
    ]
    for order in ("wzyx", "zxwy"):
        cone = cone_context(order)
        inputs.append((R4, cone.base_generators, (), cone.q_generators))

    def closed(ring, base, module, q):
        return sorted(q, key=str) == sorted(ring.gens(), key=str)

    inputs = [i for i in inputs if closed(*i)]
    graded = sum(FiltrationContext(*i, []).is_graded() for i in inputs)
    # the corpus and tier-4 inputs, their quotients and the six above; of
    # those, 28, 28 and 4 are graded
    assert (len(inputs), graded) == (34 + 28 + 6, 28 + 28 + 4)
    expected = [rees_form_presentation(FiltrationContext(*i, [])).groebner().generators
                for i in inputs]
    monkeypatch.setattr(FiltrationContext, "_rees_basis", _refuse_rees)
    for i, basis in zip(inputs, expected):
        ctx = FiltrationContext(*i, [])
        assert ctx.form_presentation().groebner().generators == basis, str(ctx)


def test_graded_reports_need_no_rees_basis(corpus, monkeypatch):
    # where q's generators are the variables, the whole CM report runs
    # without the Rees basis, on graded inputs and on the demo curve, whose
    # base is inhomogeneous; a corpus context with q = (x) still runs it,
    # and so does the image of x in degree 2 modulo x - y^2, whose lower
    # part x is not in I_M though x = y^2 lies in q^2 M
    monkeypatch.setattr(FiltrationContext, "_rees_basis", _refuse_rees)
    for ctx in (cone_context(), cone_context("wzyx"), tier4_contexts()[1]):
        assert ctx.is_graded()
        cohen_macaulay_report(ctx, TIER4_PARAMS)
    curve = curve_context()
    assert not curve.is_graded()
    cohen_macaulay_report(curve, CriterionParams(n_max=10))
    monkeypatch.undo()
    runs = []
    rees_basis = FiltrationContext._rees_basis
    monkeypatch.setattr(FiltrationContext, "_rees_basis",
                        lambda self: runs.append(self) or rees_basis(self))
    principal = next(i.ctx for i in corpus
                     if i.ctx.ring.nvars > 1 and i.ctx.q_generators == (i.ctx.ring.var(0),))
    fresh = FiltrationContext(principal.ring, principal.base_generators,
                              principal.module_generators, principal.q_generators, [])
    fresh.form_presentation()
    x, y = R2.gens()
    parabola = FiltrationContext(R2, (x - y * y,), (), (x, y), [])
    parabola.form_presentation()
    assert runs == [fresh]
    parabola.graded_image(x, 2)
    assert runs == [fresh, parabola]


def test_inhomogeneous_images_by_the_closed_form(monkeypatch):
    # modulo the cusp x^2 - y^3 with q = (x, y), a = x^2 - y^3 + y^4 has a
    # nonzero part below degree 4 that lies in I_M, so its degree-4 image is
    # y^4's class with no Rees basis; x + y^2 is outside q^2 M.  Modulo
    # x - y^2, x takes the Rees normal form and gets y^2's class.  Lifting
    # and the Rees route give the same images.
    x, y = R2.gens()
    cusp = FiltrationContext(R2, (x * x - y**3,), (), (x, y), [])
    form = cusp.form_presentation()
    a = x * x - y**3 + y**4
    expected = form.reduce(form.ring.var(3) ** 4)
    assert not expected.is_zero()
    monkeypatch.setattr(FiltrationContext, "_rees_basis", _refuse_rees)
    assert cusp.graded_image(a, 4) == expected
    monkeypatch.undo()
    assert lifted_image(cusp, a, 4, form) == rees_image(cusp, a, 4, form) == expected
    with pytest.raises(ValidationError, match=OUTSIDE):
        cusp.graded_image(x + y * y, 2)
    assert lifted_image(cusp, x + y * y, 2, form) is None
    assert rees_image(cusp, x + y * y, 2, form) is None

    parabola = FiltrationContext(R2, (x - y * y,), (), (x, y), [])
    form = parabola.form_presentation()
    image = parabola.graded_image(x, 2)
    assert image == form.reduce(form.ring.var(3) ** 2) and not image.is_zero()
    assert lifted_image(parabola, x, 2, form) == rees_image(parabola, x, 2, form) == image


def test_power_ladder_is_built_without_recursion():
    x, _ = R2.gens()
    ctx = FiltrationContext(R2, (), (), (x,), [(x, None)])
    assert ctx.q_power(1100).groebner().generators == (x**1100,)
    assert exponents(1, 1100) == [(1100,)]


def _refuse_basis(*args, **kwargs):
    raise AssertionError("a ladder level ran a basis computation before it was read")


def test_power_ladder_forms_a_level_when_it_is_read(monkeypatch):
    # naming a level of the demo curve's ladder, which is not graded, runs
    # no basis; reading it forms the levels below it, upward, and gives
    # the basis that climbing one level at a time gives
    ctx = curve_context()
    assert not ctx.is_graded()
    monkeypatch.setattr("formcone.ideals.buchberger", _refuse_basis)
    level = ctx.q_power(9)
    assert level.ring == ctx.ring and level.base == ctx.base_generators
    monkeypatch.undo()
    basis = level.groebner().generators
    assert all(ctx._powers[n]._gb is not None for n in range(10))
    climbed = curve_context()
    for n in range(2, 10):
        climbed.q_power(n).groebner()
    assert climbed.q_power(9).generators == level.generators
    assert climbed.q_power(9).groebner().generators == basis


def test_demo_scan_reads_the_ladder_through_level_4():
    # from level 3 on the demo's records are q^n M: the reduction premise
    # holds there, (I_M : X) = I_M, and every chain repeats its term 0, so
    # only the premise check's q^4 M and the levels below hold a basis
    spec = parse_session((ROOT / "demos" / "semigroup_curve.fc").read_text(encoding="utf-8"))
    assert spec.params.n_max == 10
    ctx = spec.context()
    defect_scan(ctx, spec.params)
    assert max(ctx._powers) >= spec.params.n_max
    assert [n for n, level in sorted(ctx._powers.items()) if level._gb is not None] \
        == [0, 1, 2, 3, 4]
