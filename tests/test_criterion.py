import contextlib
import io
from dataclasses import replace
from pathlib import Path

import pytest
from corpus import CORPUS_PARAMS, minors_context, tier4_contexts
from oracle import direct_defect_at

import formcone.criterion as criterion_module
import formcone.groebner as groebner_module
import formcone.ideals as ideals_module
from formcone import (
    DEGREVLEX,
    QQ,
    BudgetExceededError,
    ConsistencyError,
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
    normal_form,
    radical_invariance_check,
    regular_form_exists,
    squared_system,
    system_images,
)
from formcone.cli import COMMANDS, main
from formcone.criterion import _shared_colons
from formcone.graded import GradedQuotientPresentation
from formcone.session import parse_session

DEMO_PARAMS = CriterionParams(n_max=10)  # the scan bound of demos/semigroup_curve.fc
R1 = PolynomialRing(QQ, ("x",))
R2 = PolynomialRing(QQ, ("x", "y"))
R3 = PolynomialRing(QQ, ("x", "y", "z"))
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


def _record_fields(record):
    return (record.ideal.groebner().generators, record.vanishing, record.stabilized_l,
            record.status, record.quotient_generators)


def _fresh(ctx):
    """A context with the same data and system and cold caches."""
    return ctx.with_exponent_system([(s.element, s.degree) for s in ctx.system])


def _two_element_graded_context():
    # its level-1 chain grows again after C(1, 2) = C(1, 1), and its colon
    # sequence changes at l = 1, 2 and 3
    x, y, z = R3.gens()
    return FiltrationContext(R3, (y**3, z**2), (), (x, y, z), [(z, 1), (y, 1)])


def test_propagated_chains_match_the_direct_loop(corpus):
    # C(n, l+1) = (C(n+c, l) : a) lets single-element chains skip kernels,
    # and graded inputs (I_M homogeneous, q + I_A = m, each a_i homogeneous
    # of its degree) read every level off one colon sequence, C(n, l) =
    # K_l + m^n; every record must still be the one the direct loop gives
    # with product-built powers, whether the levels are scanned upward
    # (each chain first extended from the level below) or downward (each
    # chain extended past its own window later).  Chains are memoised by
    # level alone, so some contexts are scanned under a second parameter
    # set too, on the chains the first scan left
    def with_narrow(params):
        return [params, replace(params, window=3, l_max=6)]

    twice = ("inst31", "inst40")  # the shared route; a two-element chain
    cases = [(i.name, i.ctx, with_narrow(CORPUS_PARAMS) if i.name.startswith(twice)
              else [CORPUS_PARAMS]) for i in corpus]
    cases += [("tier4", ctx, [CORPUS_PARAMS]) for ctx in tier4_contexts()]
    cases.append(("curve", curve_context(), with_narrow(DEMO_PARAMS)))
    # reading level 1 + c's flags here would close level 1's window two
    # steps early
    cases.append(("two-element", _two_element_graded_context(), [CORPUS_PARAMS]))
    singles = shared = rescanned = 0
    for name, ctx, param_sets in cases:
        reference = {params: [_record_fields(direct_defect_at(ctx, n, params))
                              for n in range(params.n_max + 1)] for params in param_sets}
        for upward in (True, False):
            cold = _fresh(ctx)
            for params in param_sets:
                levels = range(params.n_max + 1)
                for n in levels if upward else reversed(levels):
                    assert _record_fields(defect_at(cold, n, params)) == reference[params][n], \
                        (name, params, n)
            routes = {key[0] for key in cold.scratch} & {"chain", "colon_sequence"}
            if _shared_colons(cold):
                assert routes == {"colon_sequence"}
            else:
                assert "colon_sequence" not in routes
        singles += len(ctx.system) == 1
        shared += _shared_colons(ctx)
        rescanned += len(param_sets) > 1
        if name.startswith("inst31"):
            # window 3 reaches inst31's K_4 = (1), so its level 1 does not vanish
            assert [fields[1] for fields in reference[param_sets[1]][:2]] == [True, False]
    assert singles >= 20 and singles < len(cases)  # both kinds of system are covered
    # 26 corpus inputs (inst20 and inst31 among them), 2 of tier 4, and the
    # two-element case, whose colon sequence changes at l = 1, 2 and 3
    assert shared == 29
    assert rescanned == 3


def test_the_ascending_check_fires_on_both_routes(monkeypatch):
    # a kernel that returns its own colon target at l = 2, an ideal strictly
    # inside the step-1 term, must stop a level chain and the shared colon
    # sequence alike
    meet = criterion_module.meet_of_colons
    for ctx in (curve_context(), _two_element_graded_context()):
        squares = tuple(ctx.system_power(i, 2) for i in range(len(ctx.system)))
        shrunk = []

        def shrinking(ideals, elements, squares=squares, shrunk=shrunk):
            ideals, elements = tuple(ideals), tuple(elements)
            if elements != squares:
                return meet(ideals, elements)
            shrunk.append(1)
            return ideals[0]

        monkeypatch.setattr(criterion_module, "meet_of_colons", shrinking)
        with pytest.raises(ConsistencyError, match="not ascending"):
            defect_scan(ctx, DEMO_PARAMS)
        assert shrunk == [1], str(ctx)
    assert not _shared_colons(curve_context())
    assert _shared_colons(_two_element_graded_context())


def test_propagation_saves_kernels(monkeypatch):
    calls = []
    kernel = ideals_module.syzygy_basis
    monkeypatch.setattr(ideals_module, "syzygy_basis",
                        lambda *args: calls.append(1) or kernel(*args))

    def count(scan):
        calls.clear()
        scan(curve_context())
        return len(calls)

    direct = count(lambda ctx: [direct_defect_at(ctx, n, DEMO_PARAMS)
                                for n in range(DEMO_PARAMS.n_max + 1)])
    propagated = count(lambda ctx: defect_scan(ctx, DEMO_PARAMS))
    assert propagated < direct
    assert (direct, propagated) == (33, 14)


def test_shared_colons_save_kernels(corpus, monkeypatch):
    # inst20, k[x,y,z] with a = (x, y): K_1 = K_0 = 0, so one kernel serves
    # all nine levels, where the direct loop takes three per level
    calls = []
    kernel = ideals_module.syzygy_basis
    monkeypatch.setattr(ideals_module, "syzygy_basis",
                        lambda *args: calls.append(1) or kernel(*args))
    ctx = next(i.ctx for i in corpus if i.name.startswith("inst20"))
    levels = range(CORPUS_PARAMS.n_max + 1)
    [direct_defect_at(_fresh(ctx), n, CORPUS_PARAMS) for n in levels]
    direct = len(calls)
    calls.clear()
    defect_scan(_fresh(ctx), CORPUS_PARAMS)
    assert (direct, len(calls)) == (27, 1)


def test_inputs_off_the_graded_case_keep_the_chain():
    # the inhomogeneous semigroup curve, a homogeneous I_M with an
    # inhomogeneous system element, q = (x) on the plane, and a system entry
    # whose exponent is below its degree all take the l-chain
    x, y = R2.gens()
    cases = [
        (curve_context(), DEMO_PARAMS),
        (FiltrationContext(R2, (x * x,), (), (x, y), [(y + x * x, 1)]), CORPUS_PARAMS),
        (FiltrationContext(R2, (), (), (x,), [(x, 1)]), CORPUS_PARAMS),
        (FiltrationContext(R2, (), (), (x, y), []).with_exponent_system([(x * y, 1)]),
         CORPUS_PARAMS),
    ]
    for ctx, params in cases:
        assert not _shared_colons(ctx), str(ctx)
        levels = range(params.n_max + 1)
        reference = [_record_fields(direct_defect_at(ctx, n, params)) for n in levels]
        assert [_record_fields(defect_at(ctx, n, params)) for n in levels] == reference
        assert ("colon_sequence",) not in ctx.scratch
    assert curve_context().base.is_graded() is False
    assert cases[1][0].is_graded()  # graded ladder, inhomogeneous element


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


def test_params_reject_negative_search_bounds():
    for key in ("search_degree_span", "search_extra_degree", "search_budget",
                "search_random_rounds"):
        with pytest.raises(ValidationError):
            CriterionParams(**{key: -1})
        assert getattr(CriterionParams(**{key: 0}), key) == 0


def test_search_budget_counts_candidates():
    # corpus instance inst12: x + y is the 13th candidate the search tries
    x, y = R2.gens()
    ctx = FiltrationContext(R2, (x * x * y,), (), (x, y), [(x, None), (y, None)])
    found = find_regular_lift(ctx, CriterionParams(search_budget=13))
    assert (found.element, found.degree) == (x + y, 1)
    assert find_regular_lift(ctx, CriterionParams(search_budget=12)) is None


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


def test_each_ideal_is_built_once(monkeypatch):
    """Over the tier-4 pipeline no context recomputes the basis of I_A or of
    I_A + q, which the base built at construction: the quotient contexts of
    the grade recursion share them.  The basis of H + (system images) is
    computed once per context, since every unit-ideal check reaches it
    through ``GradedQuotientPresentation.quotient_by``, and as one run whose
    generators are the images and whose settled block is H's basis."""
    runs = []
    real = ideals_module.buchberger

    def counting(gens, *args, **kwargs):
        runs.append((tuple(gens), kwargs.get("settled")))
        return real(gens, *args, **kwargs)

    monkeypatch.setattr("formcone.ideals.buchberger", counting)
    params = CriterionParams(n_max=2)
    grades = []
    for ctx in tier4_contexts():
        runs.clear()
        defect_regularity_equivalence(ctx, params)
        report = cohen_macaulay_report(ctx, params)
        grades.append(report.grade_recursion)
        images = tuple(e.representative for e in report.system_images)
        a_gens = ctx.base_generators
        assert runs.count((a_gens, None)) == runs.count((ctx.q_generators + a_gens, None)) == 0
        assert runs.count((images, ctx.form_presentation().groebner())) == 1
    assert grades == [0, 2, 1]  # the cone inputs pass through quotient contexts


def test_system_images_are_built_once_per_context(monkeypatch):
    """The equivalence check, the grade recursion and the CM report read the
    system's graded images from one memo per context and presentation; the
    unit-ideal refusal still runs on every call (see
    ``test_unit_like_system_is_rejected_by_graded_routes``)."""
    ctx = curve_context()
    images = system_images(ctx)

    def refuse(*args):
        raise AssertionError("a system image was computed twice")

    monkeypatch.setattr(FiltrationContext, "graded_image", refuse)
    assert system_images(ctx) is images
    defect_regularity_equivalence(ctx, DEMO_PARAMS)
    assert cohen_macaulay_report(ctx, DEMO_PARAMS).system_images is images


def test_presentation_rings_run_in_the_presentation_order(monkeypatch):
    """Over the tier-4 pipelines and every command on the demo, each basis
    run and each graph basis in a presentation ring uses that presentation's
    weighted order: membership, colons, quotients and dimension all read the
    one basis of H.  On tier 4 the presentation rings see 9 basis runs."""
    orders, runs, mismatched = {}, [], []
    real_init = GradedQuotientPresentation.__init__
    real_run = ideals_module.buchberger
    real_graph = groebner_module.GraphBasis.__init__

    def presenting(self, ring, weights, *args):
        real_init(self, ring, weights, *args)
        orders.setdefault(ring, set()).add(self.order)

    def check(kind, ring, order):
        if ring in orders and ring not in ambient:
            runs.append(kind)
            if order not in orders[ring]:
                mismatched.append((kind, str(ring), order.kind.value))

    def running(gens, order=DEGREVLEX, *args, **kwargs):
        gens = list(gens)
        if gens:
            check("run", gens[0].ring, order)
        return real_run(gens, order, *args, **kwargs)

    def graphing(self, columns, order=DEGREVLEX, *args, **kwargs):
        columns = list(columns)
        check("graph", columns[0].ring, order)
        real_graph(self, columns, order, *args, **kwargs)

    monkeypatch.setattr(GradedQuotientPresentation, "__init__", presenting)
    monkeypatch.setattr("formcone.ideals.buchberger", running)
    monkeypatch.setattr(groebner_module.GraphBasis, "__init__", graphing)
    params = CriterionParams(n_max=2)
    contexts = tier4_contexts()
    ambient = {ctx.ring for ctx in contexts}
    for ctx in contexts:
        defect_regularity_equivalence(ctx, params)
        cohen_macaulay_report(ctx, params)
    assert runs.count("run") == 9 and mismatched == []
    runs.clear()
    demo = Path(__file__).parent.parent / "demos" / "semigroup_curve.fc"
    ambient.add(parse_session(demo.read_text(encoding="utf-8")).context().ring)
    with contextlib.redirect_stdout(io.StringIO()):
        assert all(main([command, str(demo), "--json"]) == 0 for command in COMMANDS)
    assert runs and mismatched == []


def test_each_regularity_question_is_answered_once(monkeypatch):
    """Over the tier-4 pipelines every graded-side colon kernel answers a
    new (presentation ideal, elements) pair within its pipeline:
    ``regular_form_exists``, Koszul's top index, ``depth`` and the lift
    search share each presentation's memoised annihilators.  The level scan
    binds ``meet_of_colons`` itself, so the wrapper sees only the graded
    side."""
    asked, kernels = [], 0
    real = ideals_module.meet_of_colons

    def counting(ideals, elements):
        ideals, elements = tuple(ideals), tuple(elements)
        asked.append((tuple(i.combined() for i in ideals), elements))
        return real(ideals, elements)

    monkeypatch.setattr("formcone.ideals.meet_of_colons", counting)
    params = CriterionParams(n_max=2)
    for ctx in tier4_contexts():
        asked.clear()
        defect_regularity_equivalence(ctx, params)
        cohen_macaulay_report(ctx, params)
        assert len(set(asked)) == len(asked)
        kernels += len(asked)
    assert kernels == 15


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


def test_sandwich_in_every_record(corpus):
    # inst20 takes the shared colon sequence, the other two level chains
    inst20 = _fresh(next(i.ctx for i in corpus if i.name.startswith("inst20")))
    assert _shared_colons(inst20)
    for ctx in (curve_context(q="m"), nilpotent_context(), inst20):
        for n in range(4):
            record = defect_at(ctx, n)
            assert record.ideal.contains_ideal(ctx.q_power(n))


def test_shared_residues_are_those_of_the_reduction(corpus):
    # the shared route reads each level's residues off K_l's normal forms
    # modulo I_M; they must be the nonzero normal forms of the record
    # ideal's basis modulo q^n M, de-duplicated, in basis order
    cases = [(i.ctx, CORPUS_PARAMS.n_max) for i in corpus]
    cases += [(ctx, CORPUS_PARAMS.n_max) for ctx in tier4_contexts()]
    cases.append((minors_context(), 8))
    checked = nonvanishing = 0
    for ctx, n_max in cases:
        if not _shared_colons(ctx):
            continue
        checked += 1
        for n in range(n_max + 1):
            record = defect_at(ctx, n, CORPUS_PARAMS)
            target = ctx.q_power(n).groebner()
            expected = []
            for g in record.ideal.groebner().generators:
                r = normal_form(g, target)
                if not r.is_zero() and r not in expected:
                    expected.append(r)
            assert record.quotient_generators == tuple(expected), (str(ctx), n)
            nonvanishing += bool(expected)
    assert checked == 29  # 26 corpus inputs, 2 of tier 4 and the minors
    assert nonvanishing >= 20


def test_the_sandwich_is_the_chain_check_from_step_one(monkeypatch):
    # a step-1 kernel that does not contain term 0 (C(n, 0) = q^n M on a
    # level chain, K_0 = I_M on the shared colon sequence) must stop the
    # scan: the chain's check from step 1 on is the only place that
    # enforces the sandwich C(n, l) >= q^n M
    meet = criterion_module.meet_of_colons
    x, y = R2.gens()
    graded = FiltrationContext(R2, (), (x * x,), (x, y), [(y, 1)])
    for ctx in (curve_context(), graded):
        firsts = tuple(s.element for s in ctx.system)
        wrong = []

        def outside(ideals, elements, firsts=firsts, wrong=wrong, y=ctx.ring.var(1)):
            ideals, elements = tuple(ideals), tuple(elements)
            if elements != firsts:
                return meet(ideals, elements)
            wrong.append(1)
            return ideals[0].spawn((y,))

        monkeypatch.setattr(criterion_module, "meet_of_colons", outside)
        with pytest.raises(ConsistencyError, match="not ascending .*l=1"):
            defect_scan(ctx, DEMO_PARAMS)
        assert wrong == [1], str(ctx)
    assert not _shared_colons(curve_context())
    assert _shared_colons(graded)


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
            d = ctx.initial_degree(element.element)
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
