from fractions import Fraction

from oracle import (
    component_basis,
    defect_agrees,
    exact_rank,
    kernel_sample,
    multiplication_matrix,
    truncated_defect,
    truncated_regularity,
)

from formcone import (
    QQ,
    FieldSpec,
    FiltrationContext,
    GradedElement,
    PolynomialRing,
    PresentedIdeal,
    defect_at,
    is_regular_element,
)
from formcone.filtration import GradedQuotientPresentation

R1 = PolynomialRing(QQ, ("X",))
R2 = PolynomialRing(QQ, ("X", "Y"))
RS = PolynomialRing(QQ, ("X", "Y", "Z"))


def plain(ring, *gens):
    return GradedQuotientPresentation(
        ring, (1,) * ring.nvars, PresentedIdeal(ring, (), gens), None,
    )


def curve_cone():
    X, Y, Z = RS.gens()
    return plain(RS, X * Z, Y * Z, Y**4, Z * Z)


def test_exact_rank_rational_and_modular():
    field = FieldSpec(0)
    assert exact_rank([[1, 2], [2, 4]], field) == 1
    assert exact_rank([[Fraction(1, 2), 0], [0, Fraction(1, 3)]], field) == 2
    assert exact_rank([], field) == 0
    f5 = FieldSpec(5)
    assert exact_rank([[1, 2], [3, 6]], f5) == 1   # second row = 3 * first mod 5
    assert exact_rank([[1, 2], [3, 1]], f5) == 1   # determinant -5 vanishes mod 5
    assert exact_rank([[1, 2], [3, 2]], f5) == 2


def test_kernel_sample():
    field = FieldSpec(0)
    vec = kernel_sample([[1, 2], [2, 4]], 2, field)
    assert vec is not None and (vec[0] * 1 + vec[1] * 2 == 0)
    assert kernel_sample([[1, 0], [0, 1]], 2, field) is None
    vec5 = kernel_sample([[1, 2]], 2, FieldSpec(5))
    assert vec5 is not None and (vec5[0] + 2 * vec5[1]) % 5 == 0


def test_component_bases():
    basis = component_basis(plain(R2), 2)
    assert basis.dimension == 3
    assert set(basis.monomials) == {(2, 0), (1, 1), (0, 2)}
    cone = curve_cone()
    assert component_basis(cone, 3).dimension == 4
    Y, = R1.gens()
    squashed = plain(R1, Y * Y)
    assert component_basis(squashed, 4).dimension == 0


def test_component_basis_mixed_weights_from_context():
    X, Y, Z = RS.gens()
    base = (X**4 - Y * Z, Y**3 - X * Z, Z**2 - X**3 * Y**2)
    ctx = FiltrationContext(RS, base, (), (X, Y, Z), [(X, 1)])
    form = ctx.form_presentation()
    dims = [component_basis(form, n).dimension for n in range(6)]
    assert dims == [1, 3, 3, 4, 4, 4]


def test_multiplication_matrices():
    line = plain(R1)
    X, = R1.gens()
    m = multiplication_matrix(line, GradedElement(line, X, 1), 1)
    assert m == [[1]]

    cone = curve_cone()
    Xs, Ys, Zs = RS.gens()
    cols = component_basis(cone, 1).monomials
    matrix = multiplication_matrix(cone, GradedElement(cone, Xs, 1), 1)
    z_col = cols.index((0, 0, 1))
    assert all(row[z_col] == 0 for row in matrix)  # X*Z dies in the cone

    zero_map = multiplication_matrix(cone, GradedElement(cone, RS.zero(), 1), 1)
    assert all(all(c == 0 for c in row) for row in zero_map)


def test_truncated_regularity():
    free = plain(R2)
    X, Y = R2.gens()
    assert truncated_regularity(free, GradedElement(free, X, 1), 5)

    cone = curve_cone()
    Xs, Ys, Zs = RS.gens()
    assert not truncated_regularity(cone, GradedElement(cone, Xs, 1), 3)
    # Z survives in degree 0 -> 1 but kills itself at degree 1 -> 2
    assert not truncated_regularity(cone, GradedElement(cone, Zs, 1), 1)
    matrix0 = multiplication_matrix(cone, GradedElement(cone, Zs, 1), 0)
    assert exact_rank(matrix0, QQ) == 1  # injective in degree 0


def test_truncated_vs_exact_regularity():
    cases = []
    X, Y = R2.gens()
    free = plain(R2)
    cases.append((free, GradedElement(free, X + Y, 1)))
    nil = plain(R2, X * X, X * Y)
    cases.append((nil, GradedElement(nil, Y, 1)))
    cone = curve_cone()
    Xs, Ys, Zs = RS.gens()
    for v in (Xs, Ys, Zs, Xs + Ys):
        cases.append((cone, GradedElement(cone, v, 1)))
    for pres, element in cases:
        exact = is_regular_element(pres, element)
        bounded = truncated_regularity(pres, element, 6)
        # witness degrees here are small, so the bounded view must agree
        assert bounded == exact.regular, str(element.representative)


def test_matrix_functoriality():
    cone = curve_cone()
    Xs, Ys, Zs = RS.gens()
    bx = GradedElement(cone, Xs, 1)
    bxx = GradedElement(cone, Xs * Xs, 2)
    m_then = multiplication_matrix(cone, bx, 1)
    m_after = multiplication_matrix(cone, bx, 2)
    composed = [
        [sum(m_after[i][k] * m_then[k][j] for k in range(len(m_then)))
         for j in range(len(m_then[0]))]
        for i in range(len(m_after))
    ]
    direct = multiplication_matrix(cone, bxx, 1)
    assert composed == direct


def test_truncated_defect_matches_scan_records():
    X, Y, Z = RS.gens()
    base = (X**4 - Y * Z, Y**3 - X * Z, Z**2 - X**3 * Y**2)
    ctx = FiltrationContext(RS, base, (), (X,), [(X, 1)])
    for n in range(4):
        record = defect_at(ctx, n)
        assert defect_agrees(ctx, record, degree_cap=4), n
        view = truncated_defect(ctx, n, degree_cap=4, l_cap=record.stabilized_l + 2)
        assert view.vanishing_on_monomials == record.vanishing

    x, y = PolynomialRing(QQ, ("x", "y")).gens()
    ring = x.ring
    nil = FiltrationContext(ring, (x * x, x * y), (), (x, y), [(y, 1)])
    record = defect_at(nil, 2)
    assert not record.vanishing
    assert defect_agrees(nil, record, degree_cap=4)
    view = truncated_defect(nil, 2, degree_cap=4, l_cap=4)
    assert not view.vanishing_on_monomials
    assert (1, 0) in view.member_monomials  # x joins the stabilized colon


def test_truncated_defect_trivial_level():
    R = PolynomialRing(QQ, ("x",))
    x, = R.gens()
    ctx = FiltrationContext(R, (), (), (x,), [(x, 1)])
    view = truncated_defect(ctx, 0, degree_cap=3, l_cap=3)
    assert view.vanishing_on_monomials  # level 0 compares against the unit ideal
