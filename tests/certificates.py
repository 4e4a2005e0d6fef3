"""Replay of a ``cm-check`` report's certificates; the package does not use it.

``check_cm_certificates(ctx, payload)`` takes a context and the JSON payload
that ``formcone cm-check --json`` printed for it, and re-verifies each
certificate by exact linear algebra on graded components and by membership,
never by a colon:

- each ``depth_sequence`` element is injective on weights 0..``TOP`` of the
  form presentation modulo the earlier elements;
- a ``depth_witness`` of the regular-sequence route is nonzero modulo the
  whole sequence, and every variable image times it lies in H + (sequence),
  so the sequence is maximal and its length is the depth;
- each ``regular_sequence`` element has a nonzero graded image, found by
  membership lifting (``oracle.lifted_image``), and that image is injective
  through weight ``TOP`` on its successive quotient context;
- each generator of a nonvanishing ``lzero_table`` row lies outside
  q^n M, taken from the products of q's generators (``oracle.product_power``).

Injectivity is tested on the standard monomials of each weight, as
``oracle.truncated_regularity`` does, but with the exponent of every
weight-0 variable that the leading ideal does not bound kept below
``TOP + 1``: such a presentation (q not primary to the variable ideal) has
infinite components.  An element that is regular is injective on every
finite piece, so a failure refutes the certificate.
"""

from __future__ import annotations

from itertools import product as cartesian

from oracle import exact_rank, lifted_image, mul_term, product_power

from formcone.filtration import FiltrationContext
from formcone.graded import GradedQuotientPresentation

TOP = 4


def _standard_monomials(pres: GradedQuotientPresentation, n: int) -> list:
    """Standard monomials of weight n, unbounded weight-0 exponents below TOP + 1."""
    leads = [g.leading_monomial(pres.order) for g in pres.groebner().generators]
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


def check_cm_certificates(ctx: FiltrationContext, payload: dict) -> int:
    """Re-verify every certificate of ``payload``; returns how many were
    checked and raises AssertionError on the first that fails."""
    cert, checked = payload["certificates"], 0
    pres = ctx.form_presentation()
    sequence = [pres.ring.parse(text) for text in cert["depth_sequence"]]
    for k, x in enumerate(sequence):
        assert _injective_through(pres.quotient_by(sequence[:k]), x), ("depth_sequence", k)
        checked += 1
    if cert["depth_method"] == "regular-sequence" and cert["depth_witness"]:
        (witness,) = [pres.ring.parse(text) for text in cert["depth_witness"]]
        cur = pres.quotient_by(sequence)
        assert not cur.contains(witness), "depth_witness is zero"
        assert all(cur.contains(v * witness) for v in pres.ring.gens()), "not a socle element"
        assert payload["depth"] == len(sequence)
        checked += 1

    work = ctx
    for step in cert["regular_sequence"]:
        b, d = ctx.ring.parse(step["element"]), step["degree"]
        form = work.form_presentation()
        image = lifted_image(work, b, d, form)
        assert image is not None and not image.is_zero(), ("regular_sequence", str(b))
        assert _injective_through(form, image), ("regular_sequence", str(b))
        work = work.quotient_by_element(b)
        checked += 1

    for row in payload["lzero_table"]:
        power = product_power(ctx, row["n"])
        for text in row["generators"]:
            assert not power.contains(ctx.ring.parse(text)), ("lzero_table", row["n"], text)
            checked += 1
    return checked
