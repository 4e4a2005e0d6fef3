import math
import random
import sys
from itertools import combinations

import pytest
from corpus import minors_context, tier4_contexts
from oracle import colon_annihilator, component_basis, graph_kernel, socle_first_depth

import formcone.graded as graded_module
from formcone import (
    QQ,
    FieldSpec,
    FiltrationContext,
    GradedElement,
    GradeReport,
    InfiniteComponentError,
    KoszulWitness,
    PolynomialRing,
    PresentedIdeal,
    ValidationError,
    colon_chain_regularity,
    depth,
    graded_dim,
    hilbert_function,
    is_regular_element,
    is_system_of_parameters,
    koszul_grade,
    syzygy_basis,
)
from formcone.criterion import system_images
from formcone.graded import GradedQuotientPresentation, _koszul_columns
from formcone.groebner import FreeModuleElement, GraphBasis, buchberger

R1 = PolynomialRing(QQ, ("Y",))
R2 = PolynomialRing(QQ, ("X", "Y"))
RS = PolynomialRing(QQ, ("X", "Y", "Z"))


def plain(ring, *gens):
    """Presentation with every variable in weight 1 (a plain graded cone)."""
    return GradedQuotientPresentation(
        ring, (1,) * ring.nvars, PresentedIdeal(ring, (), gens),
    )


def curve_cone():
    X, Y, Z = RS.gens()
    return plain(RS, X * Z, Y * Z, Y**4, Z * Z)


def curve_context(q="m"):
    X, Y, Z = RS.gens()
    base = (X**4 - Y * Z, Y**3 - X * Z, Z**2 - X**3 * Y**2)
    return FiltrationContext(RS, base, (), (X, Y, Z) if q == "m" else (X,), [(X, 1)])


def test_hilbert_functions():
    Y, = R1.gens()
    assert hilbert_function(plain(R1, Y * Y), 5) == [1, 1, 0, 0, 0, 0]
    assert hilbert_function(curve_cone(), 7) == [1, 3, 3, 4, 4, 4, 4, 4]
    assert hilbert_function(plain(R2), 4) == [1, 2, 3, 4, 5]


def test_hilbert_on_mixed_weights():
    # form presentation of the curve carries weight-0 ambient slots; the
    # graded dimensions must match the pure cone
    form = curve_context().form_presentation()
    assert hilbert_function(form, 7) == [1, 3, 3, 4, 4, 4, 4, 4]


def test_hilbert_rejects_infinite_components():
    X, Y = R2.gens()
    mixed = GradedQuotientPresentation(
        R2, (0, 1), PresentedIdeal(R2, (), (X * Y,)),
    )
    with pytest.raises(InfiniteComponentError):
        hilbert_function(mixed, 3)


def test_hilbert_of_the_unit_ideal_with_weight_zero():
    # the constant lead bounds every variable, so every component is 0
    unit = GradedQuotientPresentation(R1, (0,), PresentedIdeal(R1, (), (R1.one(),)))
    assert hilbert_function(unit, 4) == [0] * 5
    assert [component_basis(unit, n).dimension for n in range(5)] == [0] * 5


def test_hilbert_reads_weights_above_one():
    X, Y = R2.gens()
    free = GradedQuotientPresentation(R2, (2, 1), PresentedIdeal(R2, (), ()))
    assert hilbert_function(free, 5) == [1, 1, 2, 2, 3, 3]
    capped = GradedQuotientPresentation(R2, (2, 1), PresentedIdeal(R2, (), (X * X,)))
    assert hilbert_function(capped, 5) == [1, 1, 2, 2, 2, 2]


def test_hilbert_matches_standard_monomial_count():
    """Seeded presentations with weights in {0, 1, 2, 3}: monomials and
    homogeneous binomials, the unit ideal among them.  Where a weight-0
    variable has no pure-power lead, both sides raise."""
    rng = random.Random(24)
    rings = [PolynomialRing(QQ, ("X", "Y")), RS]
    cases = []
    for ring in rings:
        cases.append((ring, (0,) * ring.nvars, [ring.one()]))
        cases.append((ring, (2,) + (1,) * (ring.nvars - 1), [ring.one()]))
    for _ in range(120):
        ring = rng.choice(rings)
        weights = tuple(rng.choice((0, 1, 2, 3)) for _ in range(ring.nvars))
        gens = []
        for _ in range(rng.randint(0, 4)):
            expts = [tuple(rng.randint(0, 3) for _ in range(ring.nvars)) for _ in range(2)]
            g = ring.monomial(expts[0])
            if rng.random() < 0.3 and len({sum(w * e for w, e in zip(weights, m))
                                           for m in expts}) == 1 and expts[0] != expts[1]:
                g = g - ring.monomial(expts[1])
            gens.append(g)
        cases.append((ring, weights, gens))
    raised = 0
    for ring, weights, gens in cases:
        pres = GradedQuotientPresentation(ring, weights, PresentedIdeal(ring, (), gens))
        try:
            expected = [component_basis(pres, n).dimension for n in range(8)]
        except InfiniteComponentError:
            raised += 1
            with pytest.raises(InfiniteComponentError):
                hilbert_function(pres, 7)
            continue
        assert hilbert_function(pres, 7) == expected, (weights, gens)
    assert 0 < raised < len(cases) // 2


def test_graded_dims():
    assert graded_dim(curve_cone()) == 1
    assert graded_dim(plain(R2)) == 2
    X, Y = R2.gens()
    assert graded_dim(plain(R2, X, Y)) == 0


def test_regular_elements_and_witnesses():
    X, Y = R2.gens()
    free = plain(R2)
    assert is_regular_element(GradedElement(free, X, 1)).regular

    cone = curve_cone()
    Xs, Ys, Zs = RS.gens()
    verdict = is_regular_element(GradedElement(cone, Xs, 1))
    assert not verdict.regular and verdict.witness == Zs

    nil = plain(R2, X * X, X * Y)
    verdict = is_regular_element(GradedElement(nil, Y, 1))
    assert not verdict.regular and verdict.witness == X


def test_graded_element_validation():
    X, Y = R2.gens()
    free = plain(R2)
    with pytest.raises(ValidationError):
        GradedElement(free, X + X * Y, 1)  # inhomogeneous
    with pytest.raises(ValidationError):
        GradedElement(free, X, 2)  # wrong degree


def test_colon_chain_on_curve_principal():
    ctx = curve_context(q="x")
    X = RS.var(0)
    assert colon_chain_regularity(ctx, X, n_max=6)


def test_colon_chain_detects_nilpotent_failure():
    x, y = PolynomialRing(QQ, ("x", "y")).gens()
    ring = x.ring
    ctx = FiltrationContext(ring, (x * x, x * y), (), (x, y), [])
    assert not colon_chain_regularity(ctx, y, n_max=6)
    # y^13 lies in q^12 M, the probe cap, so its initial form counts as zero
    with pytest.raises(ValidationError, match="zero initial form"):
        colon_chain_regularity(ctx, y**13, n_max=4)


def test_colon_chain_trivial_principal():
    R = PolynomialRing(QQ, ("x",))
    x, = R.gens()
    ctx = FiltrationContext(R, (), (), (x,), [])
    assert colon_chain_regularity(ctx, x.scale(5), n_max=6)


def test_exact_and_chain_regularity_agree():
    # the exact graded test and the bounded colon test on matching inputs
    cases = [
        ((), "m", "X"),
        ((), "m", "Y"),
        (("X*X", "X*Y"), "m", "Y"),
        (("X*X - Y*Y*Y",), "m", "Y"),
        (("X*Y",), "m", "X + Y"),
    ]
    for base_exprs, _, elem_expr in cases:
        base = tuple(R2.parse(e) for e in base_exprs)
        ctx = FiltrationContext(R2, base, (), R2.gens(), [])
        b = R2.parse(elem_expr)
        d = ctx.initial_degree(b)
        form = ctx.form_presentation()
        image = ctx.graded_image(b, d)
        exact = is_regular_element(GradedElement(form, image, d)).regular
        bounded = colon_chain_regularity(ctx, b, n_max=8)
        assert exact == bounded, (base_exprs, elem_expr)


def test_koszul_grades():
    X, Y = R2.gens()
    free = plain(R2)
    gens = [GradedElement(free, X, 1), GradedElement(free, Y, 1)]
    assert koszul_grade(free, gens).value == 2

    cone = curve_cone()
    Xs, Ys, Zs = RS.gens()
    report = koszul_grade(cone, [GradedElement(cone, v, 1) for v in (Xs, Ys, Zs)])
    assert report.value == 0
    assert report.certificate and report.certificate[0].index == 3

    xy = plain(R2, X * Y)
    assert koszul_grade(xy, [GradedElement(xy, X, 1)]).value == 0


def test_koszul_middle_homology_indices():
    # cases whose grade forces specific middle homology to vanish or survive
    Xs, Ys, Zs = RS.gens()
    hyp = plain(RS, Xs * Ys)  # hypersurface: depth 2 = dim 2
    max_gens = [GradedElement(hyp, v, 1) for v in (Xs, Ys, Zs)]
    assert koszul_grade(hyp, max_gens).value == 2
    assert depth(hyp).value == 2 and graded_dim(hyp) == 2

    # plane union line through the origin: connected but depth 1 < dim 2
    for gens in ((Xs * Ys, Xs * Zs), (Xs * Zs, Ys * Zs)):
        pres = plain(RS, *gens)
        assert depth(pres).value == 1 and graded_dim(pres) == 2

    # a full regular sequence of length three
    free3 = plain(RS)
    assert koszul_grade(free3, [GradedElement(free3, v, 1) for v in (Xs, Ys, Zs)]).value == 3

    # grade 1 via one regular combination then a nilpotent quotient
    two = [GradedElement(hyp, Xs, 1), GradedElement(hyp, Ys, 1)]
    assert koszul_grade(hyp, two).value == 1


def test_relations_match_stacked_syzygies_on_koszul_examples():
    """Cycles modulo H * P^rank from ``modulo`` equal the stacked route:
    the h * e_j vectors as extra columns, then the first block of each syzygy.
    They also equal the kernel read off the fully interreduced graph basis.
    The image half of the same graph basis is the reduced basis of the
    columns plus the h * e_j vectors, and asking for it first leaves the
    kernel as it was."""
    X, Y = R2.gens()
    Xs, Ys, Zs = RS.gens()
    examples = [
        (plain(R2), (X, Y)),
        (plain(R2, X**3), (Y, X)),
        (curve_cone(), (Xs, Ys, Zs)),
        (plain(RS), (Xs, Ys, Zs)),
        (plain(RS, Xs * Ys), (Xs, Ys, Zs)),
        (plain(RS, Xs * Ys), (Xs, Ys)),
        (plain(RS, Xs * Ys, Xs * Zs), (Xs, Ys, Zs)),
        (plain(RS, Xs * Zs, Ys * Zs), (Xs, Ys, Zs)),
    ]
    compared = 0
    for pres, reps in examples:
        ring, r = pres.ring, len(reps)
        h_gens = pres.groebner().generators
        for i in range(r, 0, -1):
            cols = _koszul_columns(list(reps), i, ring)
            rank = math.comb(r, i - 1)
            relations = [
                FreeModuleElement(ring, tuple(h if k == j else ring.zero() for k in range(rank)))
                for h in h_gens for j in range(rank)
            ]
            stacked = syzygy_basis(cols + relations, pres.order)
            sliced = [FreeModuleElement(ring, s.components[:len(cols)]) for s in stacked]
            expected = [v for v in sliced if not v.is_zero()]
            assert syzygy_basis(cols, pres.order, modulo=[h_gens] * rank) == expected
            # the settled form koszul_grade passes: the basis itself
            assert syzygy_basis(cols, pres.order, modulo=[pres.groebner()] * rank) == expected
            assert graph_kernel(cols, pres.order, [h_gens] * rank) == expected
            boundaries = buchberger(cols + relations, pres.order)
            for modulo in ([h_gens] * rank, [pres.groebner()] * rank):
                graph = GraphBasis(cols, pres.order, modulo=modulo)
                assert graph.image == boundaries
                assert graph.kernel == expected
            compared += bool(expected)
    assert compared >= 8


def test_koszul_homology_builds_no_module_basis(monkeypatch):
    """Cycles and boundaries both come from graph bases: ``depth`` and
    ``koszul_grade`` on the tier-4 presentations run ``buchberger`` on ring
    polynomials only (the annihilators), at every binding in the package."""
    calls = []

    def recording(gens, *args, **kwargs):
        gens = list(gens)
        calls.append(any(isinstance(g, FreeModuleElement) for g in gens))
        return buchberger(gens, *args, **kwargs)

    work = []
    for ctx in tier4_contexts():
        pres = ctx.form_presentation()
        work.append((pres, system_images(ctx)))
    bindings = [m for name, m in sorted(sys.modules.items())
                if name.split(".")[0] == "formcone" and getattr(m, "buchberger", None) is buchberger]
    assert len(bindings) >= 3
    for module in bindings:
        monkeypatch.setattr(module, "buchberger", recording)
    reports = [(depth(pres).value, koszul_grade(pres, images).value) for pres, images in work]
    assert reports == [(0, 0), (2, 2), (2, 1)]
    assert calls and not any(calls)


def test_koszul_grade_permutation_invariant():
    X, Y = R2.gens()
    hyp = plain(R2, X**3)
    gens = [GradedElement(hyp, Y, 1), GradedElement(hyp, X, 1)]
    forward = koszul_grade(hyp, gens).value
    backward = koszul_grade(hyp, list(reversed(gens))).value
    assert forward == backward == 1


def test_koszul_unit_sentinel():
    unit = plain(R1, R1.one())
    assert koszul_grade(unit, []).value == math.inf
    Y, = R1.gens()
    filled = plain(R1)
    assert koszul_grade(filled, [GradedElement(filled, R1.one(), 0)]).value == math.inf


def test_depth_unit_sentinel_needs_no_basis_run(monkeypatch):
    """H + (every variable image) is H + m, the unit ideal exactly when a
    generator of H has a constant term; ``depth`` reads that off H's
    generators without a basis computation."""
    x, y = R2.gens()
    shifted = GradedQuotientPresentation(
        R2, (0, 1), PresentedIdeal(R2, (), (x - R2.one(), y * y)))
    unit = plain(R1, R1.one())

    def refuse(*args):
        raise AssertionError("the depth sentinel ran a basis computation")

    monkeypatch.setattr("formcone.ideals.buchberger", refuse)
    assert depth(shifted) == GradeReport(math.inf, "regular-sequence")
    assert depth(unit).value == math.inf


def test_depths():
    assert depth(plain(R2)).value == 2
    assert depth(curve_cone()).value == 0
    X, Y = R2.gens()
    assert depth(plain(R2, X)).value == 1


def test_depth_with_degree_zero_generators():
    # principal filtration leaves surviving weight-0 variables in play
    x, y = R2.gens()
    ctx = FiltrationContext(R2, (), (), (x,), [])
    form = ctx.form_presentation()
    report = depth(form)
    assert report.value == 2 == graded_dim(form)


def test_system_of_parameters():
    X, Y = R2.gens()
    free = plain(R2)
    assert is_system_of_parameters(free, [GradedElement(free, X, 1), GradedElement(free, Y, 1)])
    assert not is_system_of_parameters(free, [GradedElement(free, X, 1)])
    cone = curve_cone()
    Xs = RS.var(0)
    assert is_system_of_parameters(cone, [GradedElement(cone, Xs, 1)])


def test_grade_bounded_by_dimension():
    rng = random.Random(71)
    X, Y = R2.gens()
    pool = [X * X, X * Y, Y**3, X**3 - Y * Y]
    for _ in range(12):
        pres = plain(R2, *rng.sample(pool, rng.randint(0, 2)))
        if not pres.ideal.is_proper():
            continue
        gens = [GradedElement(pres, v, 1) for v in (X, Y)]
        report = koszul_grade(pres, gens)
        assert report.value <= graded_dim(pres)
        d = depth(pres)
        assert d.value <= graded_dim(pres)


def test_depth_report_feeds_cm_flag():
    cone = curve_cone()
    assert int(depth(cone).value) == 0 and graded_dim(cone) == 1  # not CM
    free = plain(R2)
    assert int(depth(free).value) == graded_dim(free)  # CM


def variable_images(pres):
    """The generators ``depth`` takes: the variable images nonzero in the quotient."""
    return [GradedElement(pres, pres.ring.var(i), w) for i, w in enumerate(pres.weights)
            if not pres.contains(pres.ring.var(i))]


def check_depth_certificate(pres, report):
    """Re-verify a regular-sequence depth report from its certificate: each
    sequence element is nonzero and a nonzerodivisor modulo the earlier
    ones; then either a witness is nonzero in the quotient and killed by
    every generator, or the sequence reaches the dimension, or stops one
    short of it with no such witness."""
    reps = [g.representative for g in variable_images(pres)]
    seq = [c for c in report.certificate if isinstance(c, GradedElement)]
    witnesses = [c for c in report.certificate if isinstance(c, KoszulWitness)]
    assert len(seq) + len(witnesses) == len(report.certificate) and len(witnesses) <= 1
    sums = _sums_of_images(reps)
    cur = pres
    for element in seq:
        x = element.representative
        assert element.presentation is pres and x in sums
        assert not cur.contains(x)
        assert cur.ideal.colon(x).equals(cur.ideal)
        cur = cur.quotient_by([x])
    if witnesses:
        (cls,) = witnesses[0].cycle
        assert report.value == len(seq)
        assert not cur.contains(cls)
        assert all(cur.contains(cls * g) for g in reps)
    else:
        assert report.value == graded_dim(pres)
        assert len(seq) == report.value or (
            len(seq) == report.value - 1 and cur.annihilator(reps) is None)


def _sums_of_images(reps):
    return {sum(combo[1:], combo[0]) for size in (1, 2, 3) for combo in combinations(reps, size)}


def test_depth_routes_agree(corpus):
    """On the corpus, tier 4, the demo curve and the 2x3 minors, the
    regular-sequence route gives the Koszul grade of the same generators,
    never falls back, and its certificate checks out."""
    contexts = [inst.ctx for inst in corpus] + tier4_contexts()
    contexts += [curve_context(), minors_context()]
    assert len(contexts) == 46
    values = []
    for ctx in contexts:
        pres = ctx.form_presentation()
        report = depth(pres)
        assert report.method == "regular-sequence"
        assert report.value == koszul_grade(pres, variable_images(pres)).value
        check_depth_certificate(pres, report)
        values.append(report.value)
    assert values[-5:] == [0, 2, 2, 0, 4]


@pytest.mark.parametrize("char", [0, 2, 3])
def test_depth_falls_back_to_koszul(char):
    """Where every candidate is a zero divisor the route is Koszul homology.
    x*y*(x + y) in two variables needs no candidate: no socle in dimension 1
    gives depth 1.  The product of the seven sums of x, y, z is a surface of
    depth 2 on which every sum of one, two or three variables is a zero
    divisor."""
    ring = PolynomialRing(FieldSpec(char), ("X", "Y"))
    X, Y = ring.gens()
    lines = plain(ring, X * Y * (X + Y))
    report = depth(lines)
    assert (report.value, report.method, report.certificate) == (1, "regular-sequence", ())
    check_depth_certificate(lines, report)

    ring = PolynomialRing(FieldSpec(char), ("X", "Y", "Z"))
    X, Y, Z = ring.gens()
    surface = plain(ring, X * Y * Z * (X + Y) * (X + Z) * (Y + Z) * (X + Y + Z))
    gens = variable_images(surface)
    for sum_ in _sums_of_images([g.representative for g in gens]):
        assert not is_regular_element(GradedElement(surface, sum_, 1)).regular
    report = depth(surface)
    assert (report.value, report.method) == (2, "koszul")
    assert report == koszul_grade(surface, gens)


def test_depth_tests_each_killer_by_one_membership(monkeypatch):
    """``first_regular`` reduces the known killers once per presentation and
    keeps the nonzero ones, so a candidate costs one membership test per
    killer: ``depth`` on the 2x3 minors makes 84 ``contains`` calls (98 when
    every killer's own class was re-tested on every candidate that it
    kills), with the same value and certificate."""
    calls = []
    contains = GradedQuotientPresentation.contains
    monkeypatch.setattr(GradedQuotientPresentation, "contains",
                        lambda self, f: calls.append(1) or contains(self, f))
    pres = minors_context().form_presentation()
    report = depth(pres)
    assert len(calls) == 84
    assert (report.value, report.method) == (4, "regular-sequence")
    assert [str(e.representative) for e in report.certificate] == ["y1", "y5", "y2 + y6"]
    check_depth_certificate(pres, report)


def test_a_known_nonzerodivisor_answers_a_tuple_with_no_kernel(kernel_calls):
    """(H : (reps)) lies in (H : r) for each listed r, so a tuple holding
    an element that the memo already knows to be regular annihilates
    nothing: the answer is None with no kernel.  Only a memoised None is
    read.  On k[X, Y, Z]/(X*(Y + Z)), X and Y + Z are zero divisors and Y
    and Z are not; a memoised witness of X leaves (X, Z) to its colon, and
    Z alone is not asked there."""
    X, Y, Z = RS.gens()
    pres = plain(RS, X * (Y + Z))
    assert pres.annihilator((Y,)) is None and kernel_calls == [1]
    kernel_calls.clear()
    for reps in ((X, Y), (Y + Z, Z, Y), (Y, X * X)):
        assert pres.annihilator(reps) is None
    assert kernel_calls == []
    assert pres.annihilator((X,)) is not None and len(kernel_calls) == 1
    assert pres.annihilator((X, Z)) is None and len(kernel_calls) == 2
    assert pres.annihilator((Z,)) is None and len(kernel_calls) == 3
    witness = pres.annihilator((X, X * Y))
    assert witness is not None and witness == colon_annihilator(pres, (X, X * Y))


def test_depth_opens_on_a_regular_first_image(monkeypatch):
    """Where dim is at least 2, ``depth`` asks the first variable image
    alone before any socle colon.  On the twisted cubic cone it is regular
    and opens the sequence, so every annihilator asked is of one element:
    y1, then y2, y3 and y4 modulo y1.
    On k[X, Y, Z]/(X^2, X*Y, X*Z), of dim 2 and depth 0, it is a zero
    divisor: the socle colon runs next, with no killer known, and its
    witness X is the socle-first reference's."""
    X, Y, Z = RS.gens()
    asked = []
    real = GradedQuotientPresentation.annihilator
    monkeypatch.setattr(GradedQuotientPresentation, "annihilator",
                        lambda self, reps: asked.append(tuple(reps)) or real(self, asked[-1]))
    cone = tier4_contexts()[2].form_presentation()
    report = depth(cone)
    assert (report.value, [str(e.representative) for e in report.certificate]) == (2, ["y1", "y4"])
    assert [len(reps) for reps in asked] == [1, 1, 1, 1]
    asked.clear()
    socle = plain(RS, X * X, X * Y, X * Z)
    report = depth(socle)
    assert [len(reps) for reps in asked] == [1, 3]
    assert report == socle_first_depth(socle)
    assert (report.value, report.certificate[-1].cycle) == (0, (X,))


def test_depth_builds_no_graph_basis(monkeypatch):
    """``depth`` on the twisted-cubic presentations of tier 4 runs colons
    only; ``koszul_grade`` of their system images still builds one graph
    basis per Koszul differential below the top index."""
    built = []

    def counting(*args, **kwargs):
        built.append(1)
        return GraphBasis(*args, **kwargs)

    monkeypatch.setattr(graded_module, "GraphBasis", counting)
    counts = []
    for ctx in tier4_contexts()[1:]:
        pres = ctx.form_presentation()
        for run in (lambda: depth(pres), lambda: koszul_grade(pres, system_images(ctx))):
            before = len(built)
            counts.append((run().value, len(built) - before))
    assert counts == [(2, 0), (2, 2), (2, 0), (1, 0)]
