"""Replay of a ``cm-check`` report's certificates; the package does not use it.

``check_cm_certificates(ctx, payload)`` takes a context and the JSON payload
that ``formcone cm-check --json`` printed for it, and re-verifies each
certificate by Hilbert-series numerators, by exact linear algebra on graded
components and by membership, never by a colon:

- each ``depth_sequence`` element is a nonzerodivisor on the form
  presentation modulo the earlier elements (``_regular_on``);
- a ``depth_witness`` of the regular-sequence route is nonzero modulo the
  whole sequence, and every variable image times it lies in H + (sequence),
  so the sequence is maximal and its length is the depth;
- a ``depth_witness`` of the Koszul route is a cycle at
  ``depth_witness_index`` of the Koszul complex on the variable images
  that are nonzero in the form presentation: the differential maps it into
  H, and it lies outside the boundaries plus H, by a normal form against a
  module basis of both computed in the full presentation ring.  Its index
  i gives the depth, the number of those images minus i;
- each ``regular_sequence`` element has a nonzero graded image, found by
  membership lifting (``oracle.lifted_image``), and that image is a
  nonzerodivisor on the form presentation of its successive quotient
  context (``_regular_on``);
- each generator of a nonvanishing ``lzero_table`` row lies outside
  q^n M, taken from the products of q's generators (``oracle.product_power``).

When the leading ideal bounds every weight-0 variable, every component is
finite and a homogeneous x of weight d is a nonzerodivisor on P/H exactly
when the Hilbert-series numerators satisfy K(H + (x)) = (1 - t^d) K(H): the
exact sequence 0 -> (H : x)/H (-d) -> P/H (-d) -> P/H -> P/(H + x) -> 0
leaves the kernel's series as the difference.  Otherwise (q not primary to
the variable ideal) components are infinite, and injectivity is tested on
the standard monomials of each weight 0..``TOP``, as
``oracle.truncated_regularity`` does, with the exponent of every unbounded
weight-0 variable kept below ``TOP + 1``.  An element that is regular is
injective on every finite piece, so a failure refutes the certificate.
"""

from __future__ import annotations

from itertools import product as cartesian
from math import comb

from oracle import exact_rank, lifted_image, mul_term, product_power, quotient_by_element

from formcone.filtration import FiltrationContext
from formcone.graded import GradedQuotientPresentation, _koszul_columns, _numerator
from formcone.groebner import FreeModuleElement, buchberger, normal_form

TOP = 4


def _leads(pres: GradedQuotientPresentation) -> list:
    return [g.leading_monomial(pres.order) for g in pres.groebner().generators]


def _standard_monomials(pres: GradedQuotientPresentation, n: int) -> list:
    """Standard monomials of weight n, unbounded weight-0 exponents below TOP + 1."""
    leads = _leads(pres)
    bounds = []
    for i, w in enumerate(pres.weights):
        pure = [m[i] for m in leads if m[i] and not any(m[:i] + m[i + 1:])]
        bounds.append(n + 1 if w else min(pure, default=TOP + 1))
    return [e for e in cartesian(*(range(b) for b in bounds))
            if pres.y_degree(e) == n
            and not any(all(a <= b for a, b in zip(lead, e)) for lead in leads)]


def _injective_through(pres: GradedQuotientPresentation, rep, top: int = TOP) -> bool:
    """Multiplication by ``rep`` keeps the standard monomials of every weight
    0..top linearly independent modulo the presentation."""
    one = pres.ring.field.coerce(1)
    for n in range(top + 1):
        images = [pres.reduce(mul_term(rep, m, one)) for m in _standard_monomials(pres, n)]
        support = sorted({m for f in images for m in f.terms})
        rows = [[f.terms.get(m, 0) for f in images] for m in support]
        if images and exact_rank(rows, pres.ring.field) < len(images):
            return False
    return True


def _trimmed(coefficients: list) -> list:
    """The polynomial's coefficients without trailing zeros."""
    out = list(coefficients)
    while out and not out[-1]:
        out.pop()
    return out


def _series_numerator(pres: GradedQuotientPresentation) -> list:
    """K in HS(P/H) = K / prod over w > 0 of (1 - t^w)."""
    return _trimmed(_numerator(frozenset(_leads(pres)), pres.weights, {}))


def _regular_on(pres: GradedQuotientPresentation, rep) -> bool:
    """``rep`` is a nonzerodivisor on ``pres``: exactly, by the Hilbert-series
    numerators, when every weight-0 variable is bounded; otherwise injective
    through weight ``TOP``."""
    leads = _leads(pres)
    if not all(w or any(0 < m[i] == sum(m) for m in leads) for i, w in enumerate(pres.weights)):
        return _injective_through(pres, rep)
    degrees = {pres.y_degree(m) for m in rep.terms}
    assert len(degrees) == 1, f"{rep} is not a nonzero homogeneous element"
    d = degrees.pop()
    k = _series_numerator(pres)
    expected = k + [0] * d
    for e, c in enumerate(k):
        expected[e + d] -= c
    return _series_numerator(pres.quotient_by([rep])) == _trimmed(expected)


def _koszul_witness(pres: GradedQuotientPresentation, cycle: list, index: int) -> bool:
    """``cycle`` is a Koszul cycle at ``index`` on the variable images that
    are nonzero in ``pres``, and not a boundary modulo H; membership is read
    off a basis of H and a module basis computed here in ``pres.ring``."""
    ring, h = pres.ring, buchberger(pres.ideal.combined(), pres.order)
    gens = [v for v in ring.gens() if not normal_form(v, h).is_zero()]
    assert 1 <= index <= len(gens) and len(cycle) == comb(len(gens), index)
    differential = [ring.zero()] * comb(len(gens), index - 1)
    for coeff, column in zip(cycle, _koszul_columns(gens, index, ring)):
        differential = [t + coeff * c for t, c in zip(differential, column.components)]
    if not all(normal_form(t, h).is_zero() for t in differential):
        return False
    rank = len(cycle)
    units = [FreeModuleElement(ring, [g if j == k else ring.zero() for j in range(rank)])
             for k in range(rank) for g in h.generators]
    above = _koszul_columns(gens, index + 1, ring) if index < len(gens) else []
    boundaries = buchberger(above + units, pres.order)
    return not normal_form(FreeModuleElement(ring, cycle), boundaries).is_zero()


def check_cm_certificates(ctx: FiltrationContext, payload: dict) -> int:
    """Re-verify every certificate of ``payload``; returns how many were
    checked and raises AssertionError on the first that fails."""
    cert, checked = payload["certificates"], 0
    pres = ctx.form_presentation()
    sequence = [pres.ring.parse(text) for text in cert["depth_sequence"]]
    for k, x in enumerate(sequence):
        assert _regular_on(pres.quotient_by(sequence[:k]), x), ("depth_sequence", k)
        checked += 1
    if cert["depth_method"] == "regular-sequence" and cert["depth_witness"]:
        (witness,) = [pres.ring.parse(text) for text in cert["depth_witness"]]
        cur = pres.quotient_by(sequence)
        assert not cur.contains(witness), "depth_witness is zero"
        assert all(cur.contains(v * witness) for v in pres.ring.gens()), "not a socle element"
        assert payload["depth"] == len(sequence)
        checked += 1
    if cert["depth_method"] == "koszul" and cert["depth_witness"]:
        index = cert["depth_witness_index"]
        cycle = [pres.ring.parse(text) for text in cert["depth_witness"]]
        assert _koszul_witness(pres, cycle, index), "depth_witness is no Koszul witness"
        assert payload["depth"] == sum(not pres.contains(v) for v in pres.ring.gens()) - index
        checked += 1

    work = ctx
    for step in cert["regular_sequence"]:
        b, d = ctx.ring.parse(step["element"]), step["degree"]
        form = work.form_presentation()
        image = lifted_image(work, b, d, form)
        assert image is not None and not image.is_zero(), ("regular_sequence", str(b))
        assert _regular_on(form, image), ("regular_sequence", str(b))
        work = quotient_by_element(work, b)
        checked += 1

    for row in payload["lzero_table"]:
        power = product_power(ctx, row["n"])
        for text in row["generators"]:
            assert not power.contains(ctx.ring.parse(text)), ("lzero_table", row["n"], text)
            checked += 1
    return checked
