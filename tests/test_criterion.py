import contextlib
import io
from dataclasses import replace
from pathlib import Path

import oracle as oracle_module
import pytest
from corpus import CORPUS_PARAMS, minors_context, tier4_contexts
from oracle import contains_ideal, direct_defect_at, product_power

import formcone.criterion as criterion_module
import formcone.groebner as groebner_module
import formcone.ideals as ideals_module
from formcone import (
    DEGREVLEX,
    QQ,
    ConsistencyError,
    CriterionParams,
    DegenerateSystemError,
    FieldSpec,
    FiltrationContext,
    PolynomialRing,
    PresentedIdeal,
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
from formcone.criterion import (
    DEFAULT_PARAMS,
    _chain_record,
    _reads_colon_sequence,
    _shared_colons,
    checked_dim,
)
from formcone.graded import GradedElement, GradedQuotientPresentation
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


def _chain_scan(ctx, params=DEFAULT_PARAMS):
    """Levels 0..n_max by the l-chain alone, certified or not: the side that
    ``defect_at``'s certified records are checked against."""
    return [_chain_record(ctx, n, params) for n in range(params.n_max + 1)]


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
    assert not record.certified  # a chain's record is never certified
    # every other probed level vanishes
    assert [r.vanishing for r in scan.records] == [True, True, False] + [True] * 8


def test_nilpotent_level_two_defect():
    record = defect_at(nilpotent_context(), 2)
    assert not record.vanishing
    x = R2.var(0)
    assert x in record.quotient_generators  # x*y^k = 0 but x avoids m^2 + I


def test_scan_on_regular_line():
    # the chain stabilizes at once; defect_at certifies every level instead
    x, = R1.gens()
    ctx = FiltrationContext(R1, (), (), (x,), [(x, 1)])
    records = _chain_scan(ctx)
    assert all(r.vanishing and r.stabilized_l == 1 and not r.certified for r in records)
    scan = defect_scan(ctx)
    assert scan.all_vanish
    assert all(r.certified and r.stabilized_l == 0 for r in scan.records)


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
    # so does C(n, l) = q^n M + K_l once q^(n+c) M = a*q^n M + I_M, and
    # graded inputs (I_M homogeneous, q + I_A = m, each a_i homogeneous
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
    singles = shared = rescanned = reduced = 0
    for name, ctx, param_sets in cases:
        reference = {params: [_record_fields(direct_defect_at(ctx, n, params))
                              for n in range(params.n_max + 1)] for params in param_sets}
        routed = False
        for upward in (True, False):
            cold = _fresh(ctx)
            for params in param_sets:
                levels = range(params.n_max + 1)
                for n in levels if upward else reversed(levels):
                    assert _record_fields(_chain_record(cold, n, params)) \
                        == reference[params][n], (name, params, n)
            routes = {key[0] for key in cold.scratch} & {"chain", "colon_sequence"}
            if _shared_colons(cold):
                assert routes == {"colon_sequence"}
            else:
                # the chain route reads the colon sequence only from a level
                # whose premise a single element meets
                routed = len(ctx.system) == 1 and _reads_colon_sequence(
                    cold, max(p.n_max for p in param_sets), params)
                assert routes == ({"chain", "colon_sequence"} if routed else {"chain"})
        singles += len(ctx.system) == 1
        reduced += routed
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
    # inst05, inst06, inst14, inst15, inst27, inst32-34 and inst37-39, the
    # tier-4 curve (from level 4 on) and the demo curve
    assert reduced == 13


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
        # on the curve, a level-chain kernel: its colon sequence is constant
        where = "the shared colon sequence" if _shared_colons(ctx) else "level n="
        with pytest.raises(ConsistencyError, match=f"not ascending at {where}"):
            _chain_scan(ctx, DEMO_PARAMS)
        assert shrunk == [1], str(ctx)
    assert not _shared_colons(curve_context())
    assert _shared_colons(_two_element_graded_context())


def _count_colons(monkeypatch) -> list:
    """A list that gains one entry per ``meet_of_colons`` call, at every
    binding that calls it: ``ideals`` (colon, intersection, the graded
    annihilators), ``criterion`` (the level scan) and ``oracle`` (the
    direct loop).  It counts the colons a scan asks for, whichever route
    answers them."""
    calls = []
    real = ideals_module.meet_of_colons

    def counting(ideals, elements):
        calls.append(1)
        return real(ideals, elements)

    for module in (ideals_module, criterion_module, oracle_module):
        monkeypatch.setattr(module, "meet_of_colons", counting)
    return calls


def test_propagation_saves_kernels(monkeypatch):
    calls = _count_colons(monkeypatch)

    def count(scan):
        calls.clear()
        scan(curve_context())
        return len(calls)

    direct = count(lambda ctx: [direct_defect_at(ctx, n, DEMO_PARAMS)
                                for n in range(DEMO_PARAMS.n_max + 1)])
    propagated = count(lambda ctx: _chain_scan(ctx, DEMO_PARAMS))
    assert propagated < direct
    # a against q^2, q^3 and q^4 and a^2 against q^3 below level 3, and
    # (I_M : a) = I_M for the colon sequence that every level from 3 on reads
    # (q^2 M and q^3 M have monomial bases, so their three colons take no kernel)
    assert (direct, propagated) == (33, 5)


def _reduction_cases():
    """(name, context, params, first level that reads the colon sequence or
    None, colons of an upward scan) for the chain route's choice."""
    x, y = R2.gens()
    f2 = PolynomialRing(FieldSpec(2), ("x", "y"))
    u, v = f2.gens()
    cusp = (x**2 - y**3,)
    tier4 = replace(CORPUS_PARAMS, n_max=2)
    return [
        ("q = a = x", FiltrationContext(R2, cusp, (), (x,), [(x, 1)]), CORPUS_PARAMS, 0, 1),
        ("q = a = x over F_2", FiltrationContext(f2, (u**2 - v**3,), (), (u,), [(u, 1)]),
         CORPUS_PARAMS, 0, 1),
        ("q = a = x + y", FiltrationContext(R2, (x * y,), (), (x + y,), [(x + y, 1)]),
         CORPUS_PARAMS, 0, 1),
        ("q = x, a = x^2", FiltrationContext(R2, cusp, (), (x,), [(x * x, 2)]),
         CORPUS_PARAMS, 0, 1),
        ("zero divisor", FiltrationContext(R2, (x * x, x * x * y), (), (x,), [(x, 1)]),
         CORPUS_PARAMS, 0, 3),
        ("demo curve", curve_context(), DEMO_PARAMS, 3, 5),
        ("cusp, a = y", FiltrationContext(R2, cusp, (), (x, y), [(y, 1)]), CORPUS_PARAMS, 1, 2),
        ("cusp, a = x", FiltrationContext(R2, cusp, (), (x, y), [(x, 1)]), CORPUS_PARAMS,
         None, 71),
        ("tier4 curve", tier4_contexts()[0], tier4, None, 5),
        ("cusp, a = x, y", FiltrationContext(R2, cusp, (), (x, y), [(x, 1), (y, 1)]),
         CORPUS_PARAMS, None, 24),
        ("q = x, a = x, y", FiltrationContext(R2, cusp, (), (x,), [(x, 1), (y, 0)]),
         CORPUS_PARAMS, None, 24),
    ]


def test_reduced_chains_read_the_colon_sequence(monkeypatch):
    # once q^(n+c) M = a*q^n M + I_M holds at some level, every level from
    # there on reads C(n, l) = q^n M + (I_M : a^l) off the shared colon
    # sequence and asks for no colon of its own; records must be those of the
    # direct loop, scanning upward or downward, and the premise must hold,
    # compared by bases, on every level that takes the route
    calls = _count_colons(monkeypatch)
    for name, ctx, params, start, colons in _reduction_cases():
        levels = range(params.n_max + 1)
        reference = [_record_fields(direct_defect_at(ctx, n, params)) for n in levels]
        single = len(ctx.system) == 1
        for upward in (True, False):
            cold = _fresh(ctx)
            calls.clear()
            for n in levels if upward else reversed(levels):
                assert _record_fields(_chain_record(cold, n, params)) == reference[n], (name, n)
            if upward:
                assert len(calls) == colons, name
            routed = [n for n in levels if single and _reads_colon_sequence(cold, n, params)]
            assert routed == ([] if start is None else list(range(start, params.n_max + 1))), \
                (name, upward)
            assert (("colon_sequence",) in cold.scratch) == bool(routed), name
        if start is None:
            continue
        a, c = ctx.system[0].element, ctx.system[0].degree
        for n in range(start, params.n_max + 1):
            low = product_power(ctx, n).groebner().generators
            assert product_power(ctx, n + c).equals(
                ctx.ideal_m.sum_with(*(a * g for g in low))), (name, n)
    # the tier-4 curve's q^3 M lies in I_M + (a), but C(2, 1) is not q^2 M,
    # so level 2 keeps its own colons
    curve = tier4_contexts()[0]
    a = curve.system[0].element
    assert contains_ideal(curve.ideal_m.sum_with(a), product_power(curve, 3))
    assert not direct_defect_at(curve, 2, CriterionParams(n_max=2, l_max=1)).ideal.equals(
        product_power(curve, 2))


def test_shared_colons_save_kernels(corpus, monkeypatch):
    # inst20, k[x,y,z] with a = (x, y): K_1 = K_0 = 0, so one colon serves
    # all nine levels, where the direct loop asks for three per level
    calls = _count_colons(monkeypatch)
    ctx = next(i.ctx for i in corpus if i.name.startswith("inst20"))
    levels = range(CORPUS_PARAMS.n_max + 1)
    [direct_defect_at(_fresh(ctx), n, CORPUS_PARAMS) for n in levels]
    direct = len(calls)
    calls.clear()
    _chain_scan(_fresh(ctx), CORPUS_PARAMS)
    assert (direct, len(calls)) == (27, 1)


def test_monomial_scans_take_no_kernel(corpus, kernel_calls):
    # inst20's base, filtration ideal and system are monomials, so every
    # colon of its scans, direct or shared, is read off exponents
    ctx = next(i.ctx for i in corpus if i.name.startswith("inst20"))
    for n in range(CORPUS_PARAMS.n_max + 1):
        direct_defect_at(_fresh(ctx), n, CORPUS_PARAMS)
    _chain_scan(_fresh(ctx), CORPUS_PARAMS)
    assert kernel_calls == []


def test_inputs_off_the_graded_case_keep_the_chain():
    # the inhomogeneous semigroup curve, a homogeneous I_M with an
    # inhomogeneous system element, q = (x) on the plane, and a system entry
    # whose exponent is below its degree all take the l-chain; the first
    # three read its terms off the colon sequence from levels 3, 1 and 0 on,
    # where q^(n+c) M = a*q^n M + I_M
    x, y = R2.gens()
    cases = [
        (curve_context(), DEMO_PARAMS, True),
        (FiltrationContext(R2, (x * x,), (), (x, y), [(y + x * x, 1)]), CORPUS_PARAMS, True),
        (FiltrationContext(R2, (), (), (x,), [(x, 1)]), CORPUS_PARAMS, True),
        (FiltrationContext(R2, (), (), (x, y), []).with_exponent_system([(x * y, 1)]),
         CORPUS_PARAMS, False),
    ]
    for ctx, params, reduced in cases:
        assert not _shared_colons(ctx), str(ctx)
        levels = range(params.n_max + 1)
        reference = [_record_fields(direct_defect_at(ctx, n, params)) for n in levels]
        assert [_record_fields(r) for r in _chain_scan(ctx, params)] == reference
        assert ("chain", params.n_max) in ctx.scratch
        assert (("colon_sequence",) in ctx.scratch) == reduced, str(ctx)
    starts = [next((n for n in range(params.n_max + 1)
                    if _reads_colon_sequence(ctx, n, params)), None)
              for ctx, params, _ in cases]
    assert starts == [3, 1, 0, None]
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
    images = system_images(ctx)
    for image in images:
        assert pres.contains(witness * image.representative)


def test_grade_recursion_on_regular_plane():
    x, y = R2.gens()
    ctx = FiltrationContext(R2, (), (), (x, y), [(x, 1), (y, 1)])
    report = grade_by_recursion(ctx)
    assert report.value == 2
    assert len(report.certificate) == 2
    pres = ctx.form_presentation()
    direct = koszul_grade(pres, system_images(ctx))
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
        image = work.graded_image(step.element, step.degree)
        from formcone import GradedElement

        assert is_regular_element(GradedElement(pres, image, step.degree)).regular
        work = work.quotient_by_element(step.element)


def test_unused_search_fields_change_nothing():
    # the regular form comes from one exact construction, which reads no
    # search field: no candidate budget, coefficient list, random rounds,
    # seed or ambient-monomial multiples
    x, y = R2.gens()
    starved = CriterionParams(search_degree_span=0, search_extra_degree=0, search_budget=0,
                              search_random_rounds=0, search_coefficients=(), seed=1)
    steps = []
    for params in (starved, DEFAULT_PARAMS):
        ctx = FiltrationContext(R2, (), (), (x, y), [(x, 1), (y, 1)])
        report = cohen_macaulay_report(ctx, params)
        assert report.grade_recursion == 2
        steps.append([(s.element, s.degree, s.image.representative)
                      for s in report.recursion_report.certificate])
    assert steps[0] == steps[1]
    assert [b for b, _, _ in steps[0]] == [x, y]


def test_walk_certifies_when_no_single_is_regular():
    # corpus instance inst12: no single product m*a_i of degree 1 (x and y)
    # is regular on G = k[y1, y2]/(y1^2*y2), but (0 :_G J_1) = 0, so the
    # walk's t = 1 element x + y certifies
    x, y = R2.gens()
    ctx = FiltrationContext(R2, (x * x * y,), (), (x, y), [(x, None), (y, None)])
    found = find_regular_lift(ctx)
    assert (found.element, found.degree) == (x + y, 1)
    singles = [m * s.element for s in ctx.system
               for m in criterion_module._candidate_multipliers(ctx, 1, 1)]
    assert singles == [x, y]
    pres = ctx.form_presentation()
    assert not any(is_regular_element(GradedElement(pres, ctx.graded_image(b, 1), 1)).regular
                   for b in singles)


def test_degree_zero_obstruction_is_reported_not_miscomputed():
    # A = k[x,y]/(xy), q = (x), system (x, y): the level modules vanish and the
    # annihilator of the initial forms is zero, yet no homogeneous element of
    # the initial-form ideal is regular (x+y works but is inhomogeneous), so
    # the homogeneous-step recursion must refuse the input, and say why.
    x, y = R2.gens()
    ctx = FiltrationContext(R2, (x * y,), (), (x,), [(x, 1), (y, 0)])
    eq = defect_regularity_equivalence(ctx)
    assert eq.agree and eq.all_vanish and eq.regular_exists
    assert find_regular_lift(ctx) is None
    with pytest.raises(ValidationError, match="holds no homogeneous nonzerodivisor"):
        grade_by_recursion(ctx)


def test_walk_over_a_small_field_names_the_field():
    # three lines through the origin, x*y*(x + y): x, y and x + y are zero
    # divisors, yet (0 :_G (x, y)) = 0.  The walk's t = 2 gives x + 2*y over
    # QQ and F_3.  Over F_2, t = 1 is the walk's only value, in degree 1
    # (x + y) and in degree 2 (x^2 + y^2 = (x + y)^2), so the recursion
    # refuses, naming the field, though x^2 + x*y + y^2 is regular there;
    # the equivalence check still gives its exact verdict, with no certificate
    for p in (0, 3, 2):
        ring = PolynomialRing(FieldSpec(p), ("x", "y"))
        x, y = ring.gens()
        ctx = FiltrationContext(ring, (x * y * (x + y),), (), (x, y), [(x, 1), (y, 1)])
        if p == 2:
            with pytest.raises(ValidationError, match=r"for d in \[1, 2\].* t in F_2 is regular "
                                                      "there; prime avoidance needs a larger field"):
                grade_by_recursion(ctx)
            eq = defect_regularity_equivalence(ctx)
            assert eq.agree and eq.all_vanish and eq.regular_exists
            assert eq.regular_certificate is None
            form = ctx.graded_image(x * x + x * y + y * y, 2)
            assert is_regular_element(GradedElement(ctx.form_presentation(), form, 2)).regular
        else:
            step, = grade_by_recursion(ctx).certificate
            assert (step.element, step.degree) == (x + y.scale(2), 1)


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
    I_A + q, which the base built at construction.  The basis of H +
    (system images) is computed once per context, since ``system_images``
    keeps its unit-ideal verdict, and as one run in the core ring of the
    form presentation, whose generators are the images restricted to the
    core and whose settled block is the core's basis."""
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
        core, pres = ctx.form_presentation().core, ctx.form_presentation()
        restricted = tuple(pres._restrict(image) for image in images)
        assert runs.count((restricted, core.groebner())) == 1
    assert grades == [0, 2, 1]  # the cone inputs take recursion steps


def test_system_images_are_built_once_per_context(monkeypatch):
    """The equivalence check, the grade recursion and the CM report read the
    system's graded images from one memo per context; the
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


def _multipliers_by_product_table(ctx, c_i, d):
    """The regular-form construction's multipliers as the context's product
    table enumerated them: the degree-(d - c_i) products of q's generators
    sorted by exponent tuple."""
    if d < c_i:
        return []
    s = len(ctx.q_generators)
    products = {0: (((0,) * s, ctx.ring.one()),)}
    for level in range(1, d - c_i + 1):
        seen = {}
        for expt, poly in products[level - 1]:
            top = max((i for i in range(s) if expt[i]), default=0)
            for i in range(top, s):
                e = list(expt)
                e[i] += 1
                key = tuple(e)
                if key not in seen:
                    seen[key] = poly * ctx.q_generators[i]
        products[level] = tuple(sorted(seen.items()))
    return [p for _, p in products[d - c_i]]


def test_search_candidates_keep_their_order(corpus):
    """The regular-form construction's multipliers come from one exponent
    enumerator and match the product-table enumeration term for term, in
    the same order, for every (element, degree) pair it visits."""
    demo = Path(__file__).parent.parent / "demos" / "semigroup_curve.fc"
    contexts = ([i.ctx for i in corpus] + tier4_contexts()
                + [parse_session(demo.read_text(encoding="utf-8")).context()])
    compared = 0
    for ctx in contexts:
        degrees = [s.degree for s in ctx.system]
        for d in range(min(degrees), max(degrees) + 2):
            for s in ctx.system:
                got = criterion_module._candidate_multipliers(ctx, s.degree, d)
                assert got == _multipliers_by_product_table(ctx, s.degree, d), str(ctx)
                compared += len(got)
    assert compared == 174


def test_presentation_rings_run_in_the_presentation_order(monkeypatch):
    """Over the tier-4 pipelines and every command on the demo, each basis
    run and each graph basis in a presentation ring uses that presentation's
    weighted order: membership, colons, quotients and dimension all read the
    one basis of H's core.  The core rings are presentation rings of their
    own: k[y1..y4] (the x's lie in H), then k[y2, y3, y4] and k[y2, y3]
    after quotients by variables.  On tier 4 they see 8 basis runs and 17
    graph bases, and the form presentations' ring P[y] sees none: each step
    of a cone input's grade recursion quotients the form presentation by
    the step's initial form, and asks no unit-ideal question there
    (``grade_by_recursion``).  The quotient by x* = y1 is the one that the
    system's own unit-ideal check (a = x) or the depth sequence (a = x, w)
    already built, so it takes no run of its own."""
    orders, runs, mismatched, rings = {}, [], [], []
    real_init = GradedQuotientPresentation.__init__
    real_run = ideals_module.buchberger
    real_graph = groebner_module.GraphBasis.__init__

    def presenting(self, ring, weights, *args):
        real_init(self, ring, weights, *args)
        orders.setdefault(ring, set()).add(self.order)

    def check(kind, ring, order):
        if ring in orders and ring not in ambient:
            runs.append(kind)
            rings.append(ring)
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
    assert runs.count("run") == 8 and runs.count("graph") == 17 and mismatched == []
    assert not {ctx.form_presentation().ring for ctx in contexts} & set(rings)
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
    side.  Each cone input's recursion asks one annihilator on each
    quotient of the form presentation it reaches; on the cone with a = x, w
    the second step's search asks whether w* is regular modulo x*, which the
    depth sequence already asked of that one quotient.  So does its stop
    test: the images (x*, w*) restrict to (w*) = (y4) on the core of G/x*G,
    since an element of H restricts to 0 and leaves the colon unchanged."""
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
            record = _chain_record(ctx, n, DEFAULT_PARAMS)
            assert contains_ideal(record.ideal, ctx.q_power(n))


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
            record = _chain_record(ctx, n, CORPUS_PARAMS)
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
        where = "the shared colon sequence" if _shared_colons(ctx) else "level n=1"
        with pytest.raises(ConsistencyError, match=f"not ascending at {where}, l=1"):
            _chain_scan(ctx, DEMO_PARAMS)
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


def test_torsion_and_unit_verdicts_are_decided_once(monkeypatch):
    # each context keeps its torsion verdict and the unit-ideal verdict on
    # its system images; the unit-like system is still refused on each call
    x, = R1.gens()
    contexts = (FiltrationContext(R1, (), (), (x,), [(R1.one() + x, 0)]),
                curve_context(q="x"), curve_context(q="m"))
    verdicts = [criterion_module._torsion_free(ctx) for ctx in contexts]
    assert verdicts == [False, True, False]

    def refuse(*args):
        raise AssertionError("a verdict was decided twice")

    monkeypatch.setattr(GradedQuotientPresentation, "quotient_by", refuse)
    monkeypatch.setattr(GradedQuotientPresentation, "annihilator", refuse)
    assert [criterion_module._torsion_free(ctx) for ctx in contexts] == verdicts
    for _ in range(2):
        with pytest.raises(ValidationError):
            system_images(contexts[0])


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
        image = ctx.graded_image(element.element, d)
        exact = is_regular_element(GradedElement(pres, image, d)).regular
        bounded = colon_chain_regularity(ctx, element.element, n_max=6)
        assert exact == bounded, inst.name
        checked += 1
    assert checked >= 20


def test_the_dimension_fallback_takes_the_other_route(monkeypatch):
    """Where the global dimension differs from the graded one and q + I_A is
    m-primary, ``checked_dim`` reads dim M_m off the tangent cone by the
    route the form presentation did not take: the Rees route on the affine
    input x - x*z, y - y*z (q = m, the form read off the lowest-form cone),
    the lowest-form cone modulo y^2 - y^3, x^3 - x^3*y over F_2 with q = (y)
    (the form by the Rees route).  A second route that disagrees fails."""
    x, y, z = R3.gens()
    f2 = PolynomialRing(FieldSpec(2), ("x", "y"))
    u, v = f2.gens()
    affine = FiltrationContext(R3, (x - x * z, y - y * z), (), R3.gens(), [])
    away = FiltrationContext(f2, (v**2 - v**3, u**3 - u**3 * v), (), (v,), [])
    runs = []
    rees_basis = FiltrationContext._rees_basis
    monkeypatch.setattr(FiltrationContext, "_rees_basis",
                        lambda self: runs.append(self) or rees_basis(self))
    for ctx, local, rees in ((affine, 1, True), (away, 0, False)):
        form = ctx.form_presentation()
        assert ctx.ideal_m.krull_dim() == local + 1 and ctx.q_ideal.is_m_primary()
        before = len(runs)
        assert checked_dim(ctx) == local
        assert (ctx.origin_cone().ring == form.ring) == rees
        assert (len(runs) > before) == rees
    wrong = GradedQuotientPresentation(R3, (1, 1, 1), PresentedIdeal(R3, (), ()))
    monkeypatch.setattr(FiltrationContext, "origin_cone", lambda self: wrong)
    with pytest.raises(ConsistencyError, match="graded dimension 1 differs from module dimension 3"):
        checked_dim(affine)
