import pytest

from formcone import (
    QQ,
    BudgetExceededError,
    CriterionParams,
    DegenerateSystemError,
    FiltrationContext,
    PolynomialRing,
    ValidationError,
    cohen_macaulay_report,
    defect_at,
    defect_regularity_equivalence,
    defect_scan,
    find_regular_lift,
    grade_by_recursion,
    is_regular_element,
    koszul_grade,
    radical_invariance_check,
    regular_form_exists,
    squared_system,
    system_images,
)

R1 = PolynomialRing(QQ, ("x",))
R2 = PolynomialRing(QQ, ("x", "y"))
RS = PolynomialRing(QQ, ("X", "Y", "Z"))


def curve_context(q="m"):
    X, Y, Z = RS.gens()
    base = (X**4 - Y * Z, Y**3 - X * Z, Z**2 - X**3 * Y**2)
    return FiltrationContext(RS, base, (), (X, Y, Z) if q == "m" else (X,), [(X, 1)])


def nilpotent_context():
    x, y = R2.gens()
    return FiltrationContext(R2, (x * x, x * y), (), (x, y), [(y, 1)])


def test_curve_principal_filtration_vanishes_everywhere():
    scan = defect_scan(curve_context(q="x"))
    assert scan.all_vanish and not scan.budget_limited
    for record in scan.records:
        assert record.status == "stabilized"
        assert not record.quotient_generators


def test_curve_full_filtration_nonvanishing_with_witness():
    scan = defect_scan(curve_context(q="m"))
    assert scan.first_nonvanishing == 2
    record = scan.records[2]
    assert not record.vanishing
    assert RS.var(2) in record.quotient_generators  # the deep coordinate class
    assert not record.certified  # vanishing-side metadata is never certified
    # every other probed level vanishes
    assert [r.vanishing for r in scan.records] == [True, True, False] + [True] * 8


def test_nilpotent_level_two_defect():
    record = defect_at(nilpotent_context(), 2)
    assert not record.vanishing
    x = R2.var(0)
    assert x in record.quotient_generators  # x*y^k = 0 but x avoids m^2 + I


def test_scan_on_regular_line():
    x, = R1.gens()
    ctx = FiltrationContext(R1, (), (), (x,), [(x, 1)])
    scan = defect_scan(ctx)
    assert scan.all_vanish
    assert all(r.stabilized_l == 1 for r in scan.records)


def test_empty_system_rejected():
    x, = R1.gens()
    ctx = FiltrationContext(R1, (), (), (x,), [])
    with pytest.raises(ValidationError):
        defect_at(ctx, 0)


def test_zero_flag_system_rejected_at_entry():
    x, = R1.gens()
    ctx = FiltrationContext(R1, (x * x - x**3,), (), (x,), [(x * x, None)], probe_cap=6)
    assert ctx.system[0].zero_flag
    with pytest.raises(DegenerateSystemError):
        defect_at(ctx, 0)


def test_equivalence_both_directions():
    eq = defect_regularity_equivalence(curve_context(q="x"))
    assert eq.agree and eq.all_vanish and eq.regular_exists
    assert eq.regular_certificate is not None

    eq_m = defect_regularity_equivalence(curve_context(q="m"))
    assert eq_m.agree and not eq_m.all_vanish and not eq_m.regular_exists
    assert eq_m.annihilator_witness is not None

    x, y = R2.gens()
    flat = FiltrationContext(R2, (), (), (x, y), [(x, 1)])
    eq_flat = defect_regularity_equivalence(flat)
    assert eq_flat.agree and eq_flat.all_vanish and eq_flat.regular_exists


def test_annihilator_witness_kills_all_candidates():
    ctx = curve_context(q="m")
    exists, witness = regular_form_exists(ctx)
    assert not exists
    pres = ctx.form_presentation()
    images = system_images(ctx, pres)
    for image in images:
        assert pres.contains(witness * image.representative)


def test_grade_recursion_on_regular_plane():
    x, y = R2.gens()
    ctx = FiltrationContext(R2, (), (), (x, y), [(x, 1), (y, 1)])
    report = grade_by_recursion(ctx)
    assert report.value == 2
    assert len(report.certificate) == 2
    pres = ctx.form_presentation()
    direct = koszul_grade(pres, system_images(ctx, pres))
    assert direct.value == 2


def test_grade_recursion_on_curve():
    assert grade_by_recursion(curve_context(q="m")).value == 0
    report = grade_by_recursion(curve_context(q="x"))
    assert report.value == 1
    assert len(report.certificate) == 1
    assert report.certificate[0].degree == 1


def test_certificate_replays_through_successive_quotients():
    x, y = R2.gens()
    ctx = FiltrationContext(R2, (x**3 - y**4,), (), (x, y), [(y, 1), (x, 1)])
    report = grade_by_recursion(ctx)
    assert report.value >= 1
    work = ctx
    for step in report.certificate:
        pres = work.form_presentation()
        image = work.graded_image(step.element, step.degree, pres)
        from formcone import GradedElement

        assert is_regular_element(pres, GradedElement(pres, image, step.degree)).regular
        work = work.quotient_by_element(step.element)


def test_search_failure_is_budget_error():
    x, y = R2.gens()
    ctx = FiltrationContext(R2, (), (), (x, y), [(x, 1), (y, 1)])
    starved = CriterionParams(search_budget=0, search_random_rounds=0)
    with pytest.raises(BudgetExceededError):
        grade_by_recursion(ctx, starved)


def test_degree_zero_obstruction_is_reported_not_miscomputed():
    # A = k[x,y]/(xy), q = (x), system (x, y): the level modules vanish and the
    # annihilator of the initial forms is zero, yet no homogeneous element of
    # the initial-form ideal is regular (x+y works but is inhomogeneous), so
    # the homogeneous-step recursion must stop with a budget report.
    x, y = R2.gens()
    ctx = FiltrationContext(R2, (x * y,), (), (x,), [(x, 1), (y, 0)])
    eq = defect_regularity_equivalence(ctx)
    assert eq.agree and eq.all_vanish and eq.regular_exists
    assert find_regular_lift(ctx) is None
    with pytest.raises(BudgetExceededError):
        grade_by_recursion(ctx)


def test_reports_on_reference_examples():
    rep = cohen_macaulay_report(curve_context(q="m"))
    assert (rep.depth, rep.dim) == (0, 1)
    assert rep.grade_direct == rep.grade_recursion == 0
    assert rep.sop_flag and not rep.cm_verdict
    assert rep.predicted_band == (0, 1)

    x, y = R2.gens()
    flat = FiltrationContext(R2, (), (), (x, y), [(x, 1), (y, 1)])
    rep2 = cohen_macaulay_report(flat)
    assert (rep2.depth, rep2.dim) == (2, 2)
    assert rep2.cm_verdict and rep2.sop_flag
    assert rep2.predicted_band == (2, 2)  # single index when Cohen-Macaulay

    rep3 = cohen_macaulay_report(nilpotent_context())
    assert (rep3.depth, rep3.dim, rep3.cm_verdict) == (0, 1, False)


def test_local_model_mismatch_is_flagged_and_refused_for_depth():
    x, y = R2.gens()
    shifted = FiltrationContext(R2, (), (), (x + 1, y), [(x + 1, 1)])
    assert shifted.local_model_mismatch
    # scans are intrinsic and still run
    assert defect_scan(shifted).all_vanish
    # depth-based verdicts assume the origin and refuse such inputs
    with pytest.raises(ValidationError):
        cohen_macaulay_report(shifted)


def test_radical_invariance():
    ctx = curve_context(q="x")
    res = radical_invariance_check(ctx, squared_system(ctx))
    assert res.agree and not res.budget_levels

    x, y = R2.gens()
    flat = FiltrationContext(R2, (), (), (x, y), [(x, 1), (y, 1)])
    res2 = radical_invariance_check(flat, [(x * x, 2), (y * y, 2)])
    assert res2.agree

    same = radical_invariance_check(flat, [(x, 1), (y, 1)])
    assert same.agree and not same.disagreeing_levels


def test_sandwich_in_every_record():
    for ctx in (curve_context(q="m"), nilpotent_context()):
        for n in range(4):
            record = defect_at(ctx, n)
            assert record.ideal.contains_ideal(ctx.q_power(n))


def test_unit_like_system_is_rejected_by_graded_routes():
    # 1 + x has filtration degree 0 and is a unit on the graded module: the
    # verdict machinery refuses, the level scan still runs
    x, = R1.gens()
    ctx = FiltrationContext(R1, (), (), (x,), [(R1.one() + x, 0)])
    assert defect_scan(ctx).all_vanish
    with pytest.raises(ValidationError):
        cohen_macaulay_report(ctx)
    with pytest.raises(ValidationError):
        regular_form_exists(ctx)


def test_system_element_that_dies_in_the_module():
    # a = x acts as zero on M = A/(x): its graded image vanishes, the
    # initial-form ideal is carried by the other element alone, and the
    # pipeline still closes
    x, y = R2.gens()
    ctx = FiltrationContext(R2, (), (x,), (x, y), [(x, 1), (y, 1)])
    images = system_images(ctx)
    assert images[0].is_zero() and not images[1].is_zero()
    eq = defect_regularity_equivalence(ctx)
    assert eq.agree
    rep = cohen_macaulay_report(ctx)
    assert rep.grade_direct == rep.grade_recursion == 1
    assert (rep.depth, rep.dim, rep.cm_verdict) == (1, 1, True)


def test_exact_and_bounded_regularity_agree_on_corpus(corpus):
    # the exact graded verdict and the bounded colon chain must coincide on
    # every corpus system element (disagreement below n_max is a bug, not a
    # bound issue)
    from formcone import GradedElement, colon_chain_regularity

    checked = 0
    for inst in corpus:
        ctx = inst.ctx
        element = ctx.system[0]
        if element.degree < 1:
            continue
        try:
            d = ctx.initial_degree(element.element, modulo="module")
        except ValidationError:
            continue
        if d != element.degree:
            continue  # module-relative degree differs; chain test not comparable
        pres = ctx.form_presentation()
        image = ctx.graded_image(element.element, d, pres)
        exact = is_regular_element(pres, GradedElement(pres, image, d)).regular
        bounded = colon_chain_regularity(ctx, element.element, d, n_max=6)
        assert exact == bounded, inst.name
        checked += 1
    assert checked >= 20
