"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one PASS/FAIL line.  Tolerances are exact equalities throughout (the
library computes over exact fields); the only numeric limits are runtimes and
the budget-exclusion quota in the equivalence suite."""

import random
import time
from contextlib import contextmanager
from itertools import product as cartesian

from corpus import CORPUS_PARAMS
from oracle import (
    component_basis,
    defect_agrees,
    is_groebner,
    mul_term,
    rees_cone,
    truncated_regularity,
)

from formcone import (
    QQ,
    FiltrationContext,
    GradedElement,
    Polynomial,
    PolynomialRing,
    PresentedIdeal,
    buchberger,
    defect_scan,
    hilbert_function,
    is_regular_element,
    normal_form,
    radical_invariance_check,
    squared_system,
)
from formcone.criterion import _chain_record

RS = PolynomialRing(QQ, ("X", "Y", "Z"))
CURVE_BASE = tuple(RS.parse(s) for s in ("X^4 - Y*Z", "Y^3 - X*Z", "Z^2 - X^3*Y^2"))
EXPECTED_CONE = tuple(RS.parse(s) for s in ("X*Z", "Y*Z", "Y^4", "Z^2"))


@contextmanager
def verdict(number: int, label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{label}]: FAIL ({time.perf_counter() - started:.1f}s)")
        raise
    print(f"ACCEPTANCE {number} [{label}]: PASS ({time.perf_counter() - started:.1f}s)")


def curve_context(q="m"):
    X, Y, Z = RS.gens()
    q_gens = (X, Y, Z) if q == "m" else (X,)
    return FiltrationContext(RS, CURVE_BASE, (), q_gens, [(X, 1)])


def test_criterion_1_tangent_cone_presentation():
    with verdict(1, "tangent cone presentation"):
        started = time.perf_counter()
        ctx = curve_context("m")
        cone = ctx.variable_cone()
        expected = PresentedIdeal(RS, (), EXPECTED_CONE)
        assert cone.ideal.equals(expected)
        # the lowest-form route, which the form presentation is read off,
        # and the independent Rees route agree exactly
        assert ctx.tangent_cone_direct().ideal.equals(expected)
        assert rees_cone(ctx).equals(expected)
        assert time.perf_counter() - started < 10.0


def test_criterion_2_curve_verdicts():
    from formcone import cohen_macaulay_report

    with verdict(2, "curve verdicts"):
        started = time.perf_counter()
        ctx_m = curve_context("m")
        report = cohen_macaulay_report(ctx_m)
        assert ctx_m.ideal_m.krull_dim() == 1          # dim A = 1
        assert report.dim == 1                          # dim G = 1
        assert report.depth == 0                        # depth G = 0
        assert report.cm_verdict is False

        scan_principal = defect_scan(curve_context("x"))   # levels 0..10
        assert scan_principal.all_vanish

        scan_full = defect_scan(ctx_m)
        n = scan_full.first_nonvanishing
        assert n is not None and n <= 10
        witness_record = scan_full.records[n]
        assert witness_record.quotient_generators, "explicit witness required"
        witness = witness_record.quotient_generators[0]
        # the witness genuinely separates the stabilized ideal from q^n M
        assert witness_record.ideal.contains(witness)
        assert not ctx_m.q_power(n).contains(witness)
        assert time.perf_counter() - started < 60.0


def test_criterion_3_equivalence_suite(corpus, corpus_results):
    # the report's scan reads torsion-free initial forms off the annihilator
    # itself, so the two sides of the equivalence meet here: the l-chain's
    # all-vanish verdict against the exact annihilator test
    with verdict(3, "vanishing/regularity equivalence"):
        assert len(corpus_results) == len(corpus) >= 30
        total_seconds = sum(r["seconds"] for r in corpus_results)
        disagreements = []
        budget_cases = []
        for result in corpus_results:
            exists = result["equivalence"].regular_exists  # regular_form_exists
            chain_vanish = all(_chain_record(result["instance"].ctx, n, CORPUS_PARAMS).vanishing
                               for n in range(CORPUS_PARAMS.n_max + 1))
            if chain_vanish and not exists:
                budget_cases.append(result["instance"].name)
            elif chain_vanish != exists:
                disagreements.append(result["instance"].name)
        assert not disagreements, f"equivalence failed on {disagreements}"
        assert len(budget_cases) <= 0.10 * len(corpus_results), budget_cases
        assert total_seconds < 600.0


def test_criterion_4_grade_recursion_matches_koszul(corpus_results):
    with verdict(4, "grade recursion vs Koszul"):
        mismatches = [
            r["instance"].name
            for r in corpus_results
            if r["report"].grade_direct != r["report"].grade_recursion
        ]
        assert not mismatches, mismatches


def test_criterion_5_dimension_identity(corpus_results):
    with verdict(5, "graded dimension identity"):
        for result in corpus_results:
            assert result["dim_graded"] == result["dim_module"], result["instance"].name


def test_criterion_6_band_and_cm_iff(corpus_results):
    with verdict(6, "band and CM verdict on parameter systems"):
        sop_cases = [r for r in corpus_results if r["report"].sop_flag]
        assert sop_cases, "corpus lost all parameter-system instances"
        for result in sop_cases:
            report = result["report"]
            assert report.predicted_band == (report.depth, report.dim)
            assert report.cm_verdict == (report.depth == report.dim)
            if report.cm_verdict:
                assert report.predicted_band[0] == report.predicted_band[1]


def _random_poly(rng, ring, max_terms=3, max_deg=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
        coeff = ring.field.coerce(rng.randint(-3, 3))
        if coeff:
            terms[mono] = coeff
    return Polynomial(ring, terms)


def _monomials_upto(ring, cap):
    for expts in cartesian(*(range(cap + 1) for _ in range(ring.nvars))):
        if sum(expts) <= cap:
            yield ring.monomial(expts, 1)


def test_criterion_7_kernel_randomized_suites():
    with verdict(7, "kernel randomized properties"):
        started = time.perf_counter()
        rng = random.Random(7041776)
        ring = PolynomialRing(QQ, ("x", "y"))
        x, y = ring.gens()
        cases = 0

        # reduced-basis idempotence, S-polynomial closure, permutation stability
        for _ in range(60):
            gens = [_random_poly(rng, ring) for _ in range(rng.randint(1, 3))]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            gb = buchberger(gens)
            assert is_groebner(list(gb.generators))
            assert buchberger(list(gb.generators)).generators == gb.generators
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert buchberger(shuffled).generators == gb.generators
            cases += 1

        # membership equivalence: NF vanishes iff an explicit combination exists
        for _ in range(60):
            gens = [_random_poly(rng, ring) for _ in range(rng.randint(1, 2))]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            gb = buchberger(gens)
            member = sum(
                (mul_term(g, (rng.randint(0, 1), rng.randint(0, 1)), rng.randint(1, 2))
                 for g in gens),
                ring.zero(),
            )
            assert normal_form(member, gb).is_zero()
            probe = member + ring.one()
            assert not normal_form(probe, gb).is_zero() or gb.generators == (ring.one(),)
            cases += 1

        # colon soundness and bounded completeness
        pool = [x * x, x * y, y**3, x**3 - y * y, x * y * y, y * y]
        for _ in range(50):
            ideal = PresentedIdeal(ring, (), tuple(rng.sample(pool, rng.randint(1, 3))))
            f = rng.choice((x, y, x + y))
            col = ideal.colon(f)
            for g in col.groebner().generators:
                assert ideal.contains(g * f)
            for m in _monomials_upto(ring, 4):
                if ideal.contains(m * f):
                    assert col.contains(m)
            cases += 1

        # saturation exponents certify stabilization
        for _ in range(40):
            ideal = PresentedIdeal(ring, (), tuple(rng.sample(pool, rng.randint(1, 2))))
            f = rng.choice((x, y))
            sat, k = ideal.saturation(f)
            chain = [ideal]
            for _ in range(k + 1):
                chain.append(chain[-1].colon(f))
            for i in range(k):
                assert not chain[i].equals(chain[i + 1])
            assert chain[k].equals(chain[k + 1]) and sat.equals(chain[k])
            cases += 1

        assert cases >= 200, cases
        assert time.perf_counter() - started < 300.0


def test_criterion_8_oracle_agreement():
    with verdict(8, "truncation-oracle agreement"):
        ctx = curve_context("m")
        form = ctx.form_presentation()
        hf = hilbert_function(form, 8)
        assert hf == [1, 3, 3, 4, 4, 4, 4, 4, 4]
        for n in range(9):
            assert component_basis(form, n).dimension == hf[n]

        # regularity kernels agree with the exact annihilator verdicts
        X, Y, Z = RS.gens()
        for v in (X, Y, Z, X + Y):
            image = ctx.graded_image(v, 1)
            element = GradedElement(form, image, 1)
            exact = is_regular_element(element).regular
            assert truncated_regularity(form, element, 6) == exact, str(v)

        # level-module membership agrees with the definitional brute force
        ctx_x = curve_context("x")
        for n in range(5):
            from formcone import defect_at

            assert defect_agrees(ctx_x, defect_at(ctx_x, n, CORPUS_PARAMS), degree_cap=4)
        nil_ring = PolynomialRing(QQ, ("x", "y"))
        nx, ny = nil_ring.gens()
        nil = FiltrationContext(nil_ring, (nx * nx, nx * ny), (), (nx, ny), [(ny, 1)])
        from formcone import defect_at

        for n in range(4):
            assert defect_agrees(nil, defect_at(nil, n, CORPUS_PARAMS), degree_cap=4)


def test_criterion_9_radical_invariance(corpus):
    with verdict(9, "radical invariance of level ideals"):
        checked = 0
        clean = 0
        for inst in corpus:
            ctx = inst.ctx
            try:
                alt = squared_system(ctx)
                result = radical_invariance_check(ctx, alt, CORPUS_PARAMS)
            except Exception:
                continue  # square degenerates (vanishes in A); not a corpus member
            assert result.agree, inst.name
            checked += 1
            if not result.budget_levels:
                clean += 1
            if checked >= 14:
                break
        assert checked >= 10, f"only {checked} instances admitted squared systems"
        assert clean >= 10, f"only {clean} instances stabilized on every level"
