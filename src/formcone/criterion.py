"""Cohen-Macaulayness criterion via level-n colon-stable modules.

For a system a_1..a_t with initial degrees c_i, the level-n module is

    D(n) = (intersection over i of the stabilized (q^(n+l*c_i) M : a_i^l)) / q^n M.

Vanishing of D(n) for every n is equivalent to the initial-form ideal
containing a regular element on the associated graded module; iterating that
step through M -> M/bM computes the grade of the initial-form ideal, which a
Koszul computation must reproduce exactly.  Each step's regular form comes
from one exact, finite construction (``find_regular_lift``), and runs on one
presentation: for b* regular on G = G_M(q), G_{M/bM}(q) = G/b*G
(Valabrega-Valla 1978), so each step quotients the form presentation by
b* (``grade_by_recursion``).  When the initial forms are a system of
parameters that grade equals the depth, and depth = dimension is the
Cohen-Macaulay verdict.

Each level's l-chain, and the colon sequence K_l = intersection over i of
(I_M : a_i^l) that levels share, is one append-only chain type that asserts
the ascending property as it grows, from its first step on, which also
gives every record's sandwich C(n, l) >= q^n M; ``_chain_record`` reads its
stopping window from it.  Graded inputs read every level off that sequence,
and so does a single element a of degree c from the first level n with
q^(n+c) M = a*q^n M + I_M on; other levels take colon kernels.
Where every system element is exact and the initial forms have no torsion
on the graded module (``regular_form_exists``), every level vanishes and
``defect_at`` returns the certified record q^n M, with no chain; the proof is
in its docstring.  Every other input climbs the chain: nonvanishing
detections are exact (the probed chain only grows), and vanishing verdicts
are bounded by n_max/l_max, which such a record says with
``certified=False``.  The exact graded route is always the authority.

The level scan, and ``colon_chain_regularity`` beside it, read the context's
q-powers and colons.  Every chain starts at q^n M, but the ladder forms a
level only when its basis or generators are read
(``FiltrationContext.q_power``): a chain that only repeats its term 0 reads
neither, and neither does its record or a certified one, so such levels
cost no basis computation.  The graded side reads the form presentation
that the context builds, and the graded images of the system, through
``graded``; every function here that needs them takes the context alone
and derives them from it.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass, field

from .errors import ConsistencyError, DegenerateSystemError, ValidationError
from .filtration import DEFAULT_PROBE_CAP, FiltrationContext, graded_power_basis
from .graded import (
    GradedElement,
    GradedQuotientPresentation,
    GradeReport,
    depth,
    first_regular,
    graded_dim,
    is_system_of_parameters,
    koszul_grade,
)
from .groebner import DEFAULT_STEP_BUDGET, normal_forms
from .ideals import PresentedIdeal, meet_of_colons
from .rings import Polynomial, exponents


# CriterionParams fields that nothing reads, kept so the JSON ``parameters``
# object keeps its keys; a `set` line or flag naming one is refused as unknown
RETIRED_PARAMS = frozenset({"search_degree_span", "search_extra_degree", "search_coefficients",
                            "search_budget", "search_random_rounds", "seed"})


@dataclass(frozen=True)
class CriterionParams:
    """All scan bounds and budgets in one place.  ``degree_cap`` and the
    ``RETIRED_PARAMS`` fields are unused, kept so the JSON ``parameters``
    object keeps its keys."""

    n_max: int = 10
    l_max: int = 12
    window: int = 2
    degree_cap: int = 8
    probe_cap: int = DEFAULT_PROBE_CAP
    step_budget: int = DEFAULT_STEP_BUDGET
    search_degree_span: int = 2
    search_extra_degree: int = 2
    search_coefficients: tuple[int, ...] = (1, -1, 2, -2, 3)
    search_budget: int = 4000
    search_random_rounds: int = 64
    seed: int = 20260810

    def __post_init__(self):
        if self.n_max < 0 or self.l_max < 1 or self.window < 1:
            raise ValidationError("need n_max >= 0, l_max >= 1, window >= 1")
        if self.degree_cap < 0 or self.probe_cap < 1 or self.step_budget < 1:
            raise ValidationError("need degree_cap >= 0, probe_cap >= 1, step_budget >= 1")


DEFAULT_PARAMS = CriterionParams()


@dataclass(frozen=True)
class DefectRecord:
    """Level-n snapshot: the stabilized colon intersection and its verdict.

    ``certified`` is True on the records that the graded side proves
    vanishing (torsion-free initial forms, see ``defect_at``): their ideal
    is q^n M and ``stabilized_l`` is 0.  It is False on a chain's record:
    the l-chain stops on a window of consecutive equalities (or on budget),
    which does not self-certify because the colon target moves with l.
    Nonvanishing, by contrast, is exact as soon as it is seen.
    """

    n: int
    stabilized_l: int
    window: int
    ideal: PresentedIdeal
    vanishing: bool
    quotient_generators: tuple[Polynomial, ...]
    certified: bool
    status: str  # "stabilized" | "budget"


@dataclass(frozen=True)
class ScanResult:
    records: tuple[DefectRecord, ...]
    all_vanish: bool
    first_nonvanishing: int | None
    budget_limited: bool


@dataclass(frozen=True)
class CertificateStep:
    """One recursion step: a ring element whose initial form was verified regular."""

    element: Polynomial
    degree: int
    image: GradedElement


@dataclass(frozen=True)
class EquivalenceResult:
    agree: bool
    all_vanish: bool
    regular_exists: bool
    classification: str  # "ok" | "raise-budgets" | "contradiction"
    scan: ScanResult
    annihilator_witness: Polynomial | None
    regular_certificate: CertificateStep | None


@dataclass(frozen=True)
class CriterionReport:
    depth: int
    dim: int
    grade_direct: int
    grade_recursion: int
    lzero_table: tuple[DefectRecord, ...]
    sop_flag: bool
    cm_verdict: bool
    predicted_band: tuple[int, int]
    notes: tuple[str, ...]
    depth_report: GradeReport
    direct_report: GradeReport
    recursion_report: GradeReport
    system_images: tuple[GradedElement, ...]


def _require_usable_system(ctx: FiltrationContext):
    if not ctx.system:
        raise ValidationError("the criterion needs a nonempty system of elements")
    for s in ctx.system:
        if s.zero_flag:
            raise DegenerateSystemError(
                f"system element {s.element} lies in every probed power of the "
                f"filtration ideal (cap {ctx.probe_cap}); its initial form is zero "
                "by convention and the criterion does not apply"
            )


def _require_exact_system(ctx: FiltrationContext):
    _require_usable_system(ctx)
    for s in ctx.system:
        if not s.exact:
            raise ValidationError(
                f"system element {s.element} carries a membership exponent "
                f"{s.degree} that is not its initial degree; the graded routes "
                "need exact initial forms"
            )


# ---------------------------------------------------------------------------
# Level-n scan
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class _Chain:
    """An append-only chain of ideals: ``ideals[l]`` is term l, and
    ``changed[l-1]`` the least degree in which the reduced bases of terms l
    and l-1 differ (None where they are equal).  Level n's chain starts at
    C(n, 0) = q^n M, the shared colon sequence at K_0 = I_M."""

    ideals: list[PresentedIdeal]
    label: str
    changed: list[int | None] = field(default_factory=list)

    def append(self, term: PresentedIdeal | None = None) -> None:
        """Add the next term; None repeats the last one, for a step already
        known to leave the chain unchanged.  A term contains itself, so a
        repeat reads no basis and its flag is None: a level chain that only
        repeats never reads q^n M's basis, nor forms that ladder level.

        Each term must contain the one before, from l = 1 on.  By
        transitivity every term then contains term 0, which is C(n, 0) =
        q^n M on a level chain and K_0 = I_M on the shared colon sequence
        (so K_l + m^n contains m^n + I_M = q^n M): this one check is the
        sandwich C(n, l) >= q^n M of every record, and on the shared
        sequence it runs once per context instead of once per level.  Term
        l contains term l-1 when it contains each element of l-1's reduced
        basis, so only the elements its own basis lacks are reduced (term
        0's generators are I_M's and the raw ladder products, far more than
        its basis); a violation is an internal bug, not an input problem.
        """
        prev = self.ideals[-1]
        if term is None:
            self.ideals.append(prev)
            self.changed.append(None)
            return
        basis, before = term.groebner().generators, prev.groebner().generators
        differ = set(basis).symmetric_difference(before) if basis != before else ()
        lacking = [g for g in before if g in differ]
        if any(not r.is_zero() for r in normal_forms(lacking, term.groebner())):
            raise ConsistencyError(
                f"colon chain is not ascending at {self.label}, l={len(self.ideals)}")
        self.ideals.append(term)
        self.changed.append(min(g.total_degree() for g in differ) if differ else None)


def _level_chain(ctx: FiltrationContext, n: int, l: int, params: CriterionParams) -> _Chain:
    """Level n's chain, extended through C(n, l) and memoised per context by
    level alone: neither its terms nor its flags depend on l_max or window.

    Level 0 takes no kernel: every C(0, l) contains q^0 M = (1).  For a
    single element, a level that reads the colon sequence
    (``_reads_colon_sequence``; for step 1, the level below does) takes
    C(n, l) = q^n M + K_l, one basis per distinct K_l and none once K_l
    stops changing.  Otherwise each step from l = 2 on first tries the
    propagation rule (see ``_chain_record``) and then takes one colon kernel.
    The rule reads level n+c's flag, extending that chain as needed, only
    while n+c <= n_max; above n_max the step takes the kernel here, which
    costs about what extending the chain above would.
    """
    key = ("chain", n)
    chain = ctx.scratch.get(key)
    if chain is None:
        chain = ctx.scratch[key] = _Chain([ctx.q_power(n)], f"level n={n}")
    single = len(ctx.system) == 1
    while len(chain.changed) < l:
        step = len(chain.changed) + 1
        if n == 0:
            chain.append()
            continue
        if single and _reads_colon_sequence(ctx, n if step >= 2 else n - 1, params):
            seq = _colon_sequence(ctx, step)
            chain.append(None if seq.changed[step - 1] is None else
                         chain.ideals[0].sum_with(*seq.ideals[step].groebner().generators))
            continue
        if single and step >= 2:
            up = n + ctx.system[0].degree
            if up <= params.n_max \
                    and _level_chain(ctx, up, step - 1, params).changed[step - 2] is None:
                chain.append()
                continue
        chain.append(meet_of_colons(
            [ctx.q_power(n + step * s.degree) for s in ctx.system],
            [ctx.system_power(i, step) for i in range(len(ctx.system))],
        ))
    return chain


def _reads_colon_sequence(ctx: FiltrationContext, n: int, params: CriterionParams) -> bool:
    """True when level n reads its chain terms off the colon sequence:
    for the single system element a of degree c, some level m <= n passes
    the two checks below, which give q^(m+c) M = a*q^m M + I_M.

    Multiplying that premise by q gives it at m+1, so at every level k >= m,
    and then q^(k+lc) M = a^l*q^k M + I_M by induction on l.  So C(k, l) =
    q^k M + K_l with K_l = (I_M : a^l) (``_colon_sequence``): an x with
    x*a^l = a^l*y + j, y in q^k M and j in I_M, has x - y in K_l; and
    a^l*q^k M lies in q^(k+lc) M because a lies in q^c + I_A.  The checks
    in P at m:

    (i) q^(m+c) M lies in I_M + (a): each element of its reduced basis
        reduces to 0 modulo one basis of I_M + (a), computed once per
        context;
    (ii) C(m, 1) = q^m M, the chain's own step-1 flag; at m = 0 it holds.

    Take x in q^(m+c) M and write x = a*y + j with j in I_M by (i).  Then
    a*y = x - j lies in q^(m+c) M, so y lies in C(m, 1) = q^m M by (ii).
    The verdicts are memoised per context, level by level upward, and
    level n's reads levels 0..n alone; a chain's step 1 reads no parameter
    and only the verdict below, so neither does a verdict.  (ii) is tested
    first, since the scan takes that step anyway.
    """
    verdicts = ctx.scratch.setdefault(("reads_colons",), [])
    while len(verdicts) <= n:
        m = len(verdicts)
        verdicts.append((m > 0 and verdicts[-1]) or (
            (m == 0 or _level_chain(ctx, m, 1, params).changed[0] is None)
            and _in_system_ideal(ctx, ctx.q_power(m + ctx.system[0].degree))))
    return n >= 0 and verdicts[n]


def _in_system_ideal(ctx: FiltrationContext, ideal: PresentedIdeal) -> bool:
    """True when ``ideal`` lies in I_M + (a) for the single system element a."""
    key = ("system_ideal",)
    if key not in ctx.scratch:
        ctx.scratch[key] = ctx.ideal_m.sum_with(ctx.system[0].element).groebner()
    return all(r.is_zero() for r in normal_forms(ideal.groebner().generators,
                                                  ctx.scratch[key]))


def _shared_colons(ctx: FiltrationContext) -> bool:
    """True when every level's chain reads one colon sequence: the module
    ladder is graded (``FiltrationContext.is_graded``) and each system
    element is homogeneous of its filtration exponent."""
    return ctx.is_graded() and all(
        s.element.is_homogeneous() and s.element.total_degree() == s.degree
        for s in ctx.system
    )


def _colon_sequence(ctx: FiltrationContext, l: int) -> _Chain:
    """K_l = intersection over i of (I_M : a_i^l), memoised per context and
    extended through K_l, one kernel per step.  Graded inputs read every
    level off it, and a single element's level chains from the first level
    that meets ``_reads_colon_sequence``'s premise.

    Once K_l = K_(l-1), every later K equals it and no kernel is taken.
    Take f in K_(l+1) and put f_S = f * prod_(j in S) a_j for a subset S of
    the system; f_S lies in K_l, by induction down over |S|.  For a_i in S,
    f_S * a_i^l is a multiple of f * a_i^(l+1), which lies in I_M; for a_i
    not in S, f_S * a_i lies in K_l = K_(l-1), so f_S * a_i^l lies in I_M.
    S empty gives f in K_l.
    """
    key = ("colon_sequence",)
    seq = ctx.scratch.get(key)
    if seq is None:
        seq = ctx.scratch[key] = _Chain([ctx.ideal_m], "the shared colon sequence")
    while len(seq.changed) < l:
        if seq.changed and seq.changed[-1] is None:
            seq.append()
            continue
        step = len(seq.changed) + 1
        seq.append(meet_of_colons(
            [ctx.ideal_m] * len(ctx.system),
            [ctx.system_power(i, step) for i in range(len(ctx.system))],
        ))
    return seq


def _residue_table(ctx: FiltrationContext, seq: _Chain, l: int) -> list:
    """(degree of g, normal form of g modulo I_M) for the g in K_l's reduced
    basis whose form is nonzero, in basis order; memoised per context, and
    shared by the terms of a run of equal K."""
    # cheaper than reducing each level's basis modulo its large m^n + I_M
    while l and seq.changed[l - 1] is None:
        l -= 1
    key = ("residues", l)
    if key not in ctx.scratch:
        basis = seq.ideals[l].groebner().generators
        forms = normal_forms(basis, ctx.ideal_m.groebner())
        ctx.scratch[key] = [(g.total_degree(), r) for g, r in zip(basis, forms)
                            if not r.is_zero()]
    return ctx.scratch[key]


def defect_at(ctx: FiltrationContext, n: int,
              params: CriterionParams = DEFAULT_PARAMS) -> DefectRecord:
    """The level-n record, memoised per context: the stabilized colon
    intersection C(n, l) and whether it leaves q^n M.

    Where every system element is exact and (0 :_G (a*)) = 0 on G =
    G_M(q) (``regular_form_exists``; a refusal by ``system_images`` counts
    as no), the record is certified: its ideal is q^n M, it vanishes, and
    it takes no chain, no colon sequence and no kernel.  Take x in
    C(n, inf), the union over l of the C(n, l), with x not in q^n M, and
    let k < n be its order: x lies in q^k M but not in q^(k+1) M.  Then
    x*a_i^l lies in q^(n+l*c_i) M, inside q^(k+1+l*c_i) M, so the nonzero
    initial form x* in G_k has x* (a_i*)^l = 0 for each i: it is
    (a*)-torsion.  Multiplying it by the a_i* while it stays nonzero ends
    on a nonzero class that every a_i* kills, which (0 :_G (a*)) = 0 rules
    out.  So C(n, inf) = q^n M, and every C(n, l), which lies between q^n M
    and C(n, inf), equals q^n M.  Every other input takes the l-chain
    (``_chain_record``).
    """
    _require_usable_system(ctx)
    if n < 0:
        raise ValidationError("level must be nonnegative")
    key = ("defect", n, params.l_max, params.window)
    if key not in ctx.scratch:
        ctx.scratch[key] = (
            DefectRecord(n=n, stabilized_l=0, window=params.window, ideal=ctx.q_power(n),
                         vanishing=True, quotient_generators=(), certified=True,
                         status="stabilized")
            if _torsion_free(ctx) else _chain_record(ctx, n, params))
    return ctx.scratch[key]


def _torsion_free(ctx: FiltrationContext) -> bool:
    """True when every system element is exact and its initial forms have
    no common annihilator on the graded module: the premise of
    ``defect_at``'s certified records, decided once per context."""
    key = ("torsion_free",)
    if key not in ctx.scratch:
        try:
            ctx.scratch[key] = all(s.exact for s in ctx.system) and regular_form_exists(ctx)[0]
        except ValidationError:  # the initial forms act as the unit ideal
            ctx.scratch[key] = False
    return ctx.scratch[key]


def _chain_record(ctx: FiltrationContext, n: int, params: CriterionParams) -> DefectRecord:
    """Stabilize the l-chain C(n, l) of colon intersections at level n.

    The chain stops once ``window`` consecutive steps from l = 2 on leave it
    unchanged, or at ``l_max`` (status "budget", a reported status, never an
    exception).  Both routes below keep their terms in one chain type,
    ``_Chain``, and this one rule reads its per-step flags.

    For a single element a of degree c, write C(m, 0) = q^m M.  Then

        C(n, l+1) = (C(n+c, l) : a),

    because x*a^(l+1) lies in q^(n+(l+1)c) M exactly when x*a lies in
    C(n+c, l).  So C(n+c, l) = C(n+c, l-1) implies C(n, l+1) = C(n, l), and
    each step from l = 2 on first reads that equality from level n+c and
    computes a colon kernel only when the equality is absent or n+c lies
    above n_max (see ``_level_chain``).  The rule proves
    only true equalities, so records are those of the direct loop.  From
    the first level n with q^(n+c) M = a*q^n M + I_M on, which two checks
    in P decide (``_reads_colon_sequence``), C(n, l) = q^n M + K_l with K_l
    = (I_M : a^l), the colon sequence below, and the level takes no kernel
    of its own.  With two or more elements neither applies and every step
    from level 1 on is a kernel.

    Graded inputs (``_shared_colons``: I_M homogeneous, q + I_A the ideal m
    of all variables, each a_i homogeneous of degree c_i) take no level
    chain at all.  For homogeneous x, x * a_i^l lies in m^(n+l*c_i) + I_M
    iff deg x >= n or x * a_i^l lies in I_M, so C(n, l) = K_l + m^n with
    K_l = intersection over i of (I_M : a_i^l).  One colon sequence of the
    K_l, memoised per context, serves every level: step l leaves level n's
    chain unchanged iff K_l and K_(l-1) agree in every degree below n.

    The record's residues are the nonzero, de-duplicated normal forms of its
    ideal's reduced basis modulo q^n M.  A level chain whose flags through l
    are all None has C(n, l) = q^n M, which leaves none, so its record reads no
    basis: where the chain only repeats term 0, level n of the ladder is never
    formed (``FiltrationContext.q_power``).  On the shared route the residues
    are read off K_l's reduced basis, whose normal forms modulo I_M are
    memoised once per distinct K (``_residue_table``): level n keeps those of
    degree below n, in K_l's basis order.  This is exact.
    ``graded_power_basis`` lists the reduced basis of K_l + m^n as K_l's
    elements of degree below n, in K_l's order, followed by degree-n monomials,
    which lie in m^n, inside q^n M = m^n + I_M, and so leave no residue.  K_l
    is homogeneous (I_M and every a_i are), and for a homogeneous g of
    degree d < n, NF(g, m^n + I_M) = NF(g, I_M): a normal form is the unique standard
    representative of g's class, reduction keeps it homogeneous of degree d,
    and in degree d the two ideals, and so their standard monomials, agree.
    The sandwich C(n, l) >= q^n M is the chain's own ascending check
    (``_Chain.append``).
    """
    shared = _shared_colons(ctx)
    # on the shared route, terms that differ only in degrees >= n give the
    # same K_l + m^n, so such a step leaves level n's chain unchanged
    horizon = n if shared else math.inf
    w, run = params.window, 0
    for l in range(1, params.l_max + 1):
        chain = _colon_sequence(ctx, l) if shared else _level_chain(ctx, n, l, params)
        changed = chain.changed[l - 1]
        run = run + 1 if l >= 2 and (changed is None or changed >= horizon) else 0
        if run == w:
            break
    status, stabilized_l = ("stabilized", l - w) if run == w else ("budget", params.l_max)
    current = chain.ideals[l]
    if shared:
        current = ctx.ideal_m.spawn_reduced(
            graded_power_basis(ctx.ring, current.groebner().generators, n))
        forms = (r for d, r in _residue_table(ctx, chain, l) if d < n)
    elif all(c is None for c in chain.changed[:l]):  # C(n, l) = C(n, 0) = q^n M
        forms = ()
    else:
        forms = normal_forms(current.groebner().generators, ctx.q_power(n).groebner())
    residues = tuple(dict.fromkeys(r for r in forms if not r.is_zero()))
    return DefectRecord(
        n=n,
        stabilized_l=stabilized_l,
        window=params.window,
        ideal=current,
        vanishing=not residues,
        quotient_generators=residues,
        certified=False,
        status=status,
    )


def defect_scan(ctx: FiltrationContext, params: CriterionParams = DEFAULT_PARAMS) -> ScanResult:
    """Levels 0..n_max; the summary verdict is all-vanish or the first
    nonvanishing level (which is exact evidence)."""
    records = tuple(defect_at(ctx, n, params) for n in range(params.n_max + 1))
    first = next((r.n for r in records if not r.vanishing), None)
    return ScanResult(
        records=records,
        all_vanish=first is None,
        first_nonvanishing=first,
        budget_limited=any(r.status == "budget" for r in records),
    )


def colon_chain_regularity(ctx: FiltrationContext, b: Polynomial, n_max: int = 10) -> bool:
    """Bounded colon test: (q^(n+d)M : b) = q^n M for all n <= n_max, with
    d the initial degree of b; an element whose initial form is zero is
    refused.

    Heuristic counterpart of the exact graded test; the two must agree on
    every instance where both run.
    """
    d = ctx.initial_degree(b)
    if d is None:
        raise ValidationError(f"{b} has a zero initial form; no colon-chain test")
    for n in range(n_max + 1):
        lhs = ctx.q_power(n + d).colon(b)
        if not lhs.equals(ctx.q_power(n)):
            return False
    return True


# ---------------------------------------------------------------------------
# Exact graded side and the regular-form construction
# ---------------------------------------------------------------------------

def system_images(ctx: FiltrationContext) -> tuple[GradedElement, ...]:
    """Initial forms of the system as elements of the form presentation,
    computed once per context.

    Rejects systems whose initial forms act as the unit ideal (for example a
    degree-0 element that is a unit on the module), on every call: every
    grade degenerates to the +infinity sentinel and the criterion does not
    apply.  That verdict is decided once per context too.
    """
    _require_exact_system(ctx)
    key = ("system_images",)
    if key not in ctx.scratch:
        pres = ctx.form_presentation()
        images = tuple(GradedElement(pres, ctx.graded_image(s.element, s.degree), s.degree)
                       for s in ctx.system)
        proper = pres.quotient_by(e.representative for e in images).is_proper()
        ctx.scratch[key] = images, proper
    images, proper = ctx.scratch[key]
    if not proper:
        raise ValidationError(
            "the system's initial forms act as the unit ideal on the graded module; "
            "grades would be the infinite sentinel and the criterion does not apply")
    return images


def regular_form_exists(ctx: FiltrationContext) -> tuple[bool, Polynomial | None]:
    """Exact test: the initial-form ideal contains a regular element on the
    graded module iff its annihilator there is zero.

    Returns the verdict and, when negative, a nonzero annihilator class that
    kills every candidate at once.  The presentation memoises the answer.
    """
    pres = ctx.form_presentation()
    witness = pres.annihilator(e.representative for e in system_images(ctx))
    return witness is None, witness and pres.reduce(witness)


def _candidate_multipliers(ctx: FiltrationContext, c_i: int, d: int) -> list[Polynomial]:
    """Multipliers m with m*a expected in degree d: the products of
    filtration generators of degree d-c_i, ascending by exponent tuple."""
    if d < c_i:
        return []
    ring, gens = ctx.ring, ctx.q_generators
    return [math.prod((g ** e for g, e in zip(gens, expt) if e), start=ring.one())
            for expt in exponents(len(gens), d - c_i)]


class _FieldTooSmall(ValidationError):
    """No walk value over F_p is regular, though J_d has no annihilator."""


def find_regular_lift(ctx: FiltrationContext,
                      steps: tuple[CertificateStep, ...] = ()) -> CertificateStep | None:
    """An element b of the system's ideal whose initial form b* is a
    homogeneous nonzerodivisor on G = G_M(q), or, after the recursion steps
    ``steps``, on G/(b_1*, ..., b_k*)G (``grade_by_recursion``); None
    exactly when (a*) holds none there, though over F_p it may refuse
    instead (below).  Memoised per context.

    For d from min c_i to max c_i + 1, the products m*a_i (m a product of
    q's generators of degree d - c_i, ``_candidate_multipliers``), each
    system element's in turn, are tried one by one, sharing killers.  Those
    b_1..b_s of initial degree d have classes g_1..g_s whose span V
    generates J_d = ((a*)_d)G.  Over an infinite field, (a*) holds a
    nonzerodivisor of degree d iff (0 :_G J_d) = 0, that is, iff V lies in
    no associated prime P of G.  Then V & P is a proper subspace, and a
    linear form phi vanishing on it but not on V makes
    phi(sum_j t^(j-1)*g_j) a nonzero polynomial in t of degree below s
    (graded prime avoidance, Bruns-Herzog 1.5.10).  So the walk
    b_t = sum_j t^(j-1)*b_j, t = 1, 2, ..., whose class is
    sum_j t^(j-1)*g_j, meets a nonzerodivisor after at most (s - 1)*|Ass G|
    failures over QQ.  Over F_p the walk stops at t = p - 1, as prime
    avoidance may need more field elements, and goes on to the next degree;
    if J_d had no annihilator for some d but every walk ran out, None would
    claim too much, so ValidationError names the field instead.
    Below min c_i, J_d = 0.  Above max c_i each d - c_i is at least 1 and
    G_1 generates G_+, so a prime P contains J_d iff, for each i, P
    contains G_1 or a_i*: iff P contains G_+ or (a*), whatever d is.  So
    degree max c_i + 1 answers for every higher one.
    """
    _require_exact_system(ctx)
    key = ("regular_lift", tuple(s.image.representative for s in steps))
    if key not in ctx.scratch:
        ctx.scratch[key] = _construct_regular_lift(ctx, steps)
    return ctx.scratch[key]


def _after(ctx: FiltrationContext,
           steps: tuple[CertificateStep, ...]) -> GradedQuotientPresentation:
    """G/(b_1*, ..., b_k*)G after the recursion steps ``steps``: the last
    step's presentation modulo its image, or G itself."""
    if not steps:
        return ctx.form_presentation()
    image = steps[-1].image
    return image.presentation.quotient_by((image.representative,))


def _construct_regular_lift(ctx: FiltrationContext,
                            steps: tuple[CertificateStep, ...]) -> CertificateStep | None:
    pres, p = _after(ctx, steps), ctx.ring.field.characteristic
    killers: list[Polynomial] = []

    def regular(b: Polynomial, image: Polynomial, d: int) -> CertificateStep | None:
        image = GradedElement(pres, image, d)
        return first_regular(pres, (image,), killers) and CertificateStep(b, d, image)

    degrees = [s.degree for s in ctx.system]
    walked: list[int] = []  # the degrees whose F_p walk ran out
    for d in range(min(degrees), max(degrees) + 2):
        pool: list[tuple[Polynomial, Polynomial]] = []
        for s in ctx.system:
            for m in _candidate_multipliers(ctx, s.degree, d):
                b = m * s.element
                try:  # the degree probe skips a graded image and a colon for deeper candidates
                    if b.is_zero() or ctx.base.initial_degree(b) != d:
                        continue
                except ValidationError:  # b is zero in A
                    continue
                image = ctx.graded_image(b, d)
                if steps:  # b lies in q^d M, so its class in G maps onto G/(b_1*, ..., b_k*)G
                    image = pres.reduce(image)
                if found := regular(b, image, d):
                    return found
                pool.append((b, image))
        if not pool or pres.annihilator(image for _, image in pool) is not None:
            continue
        elements, images = zip(*pool)
        for t in itertools.count(1) if p == 0 else range(1, p):
            if found := regular(_walk(elements, t), _walk(images, t), d):
                return found
        walked.append(d)
    if walked:
        raise _FieldTooSmall(
            f"J_d has no annihilator on the graded module for d in {walked}, but no walk "
            f"value sum_j t^(j-1)*b_j with t in F_{p} is regular there; prime avoidance "
            "needs a larger field")
    return None


def _walk(fs: tuple[Polynomial, ...], t: int) -> Polynomial:
    """The sum over j of t^(j-1)*f_j."""
    return sum((f.scale(t ** j) for j, f in enumerate(fs)), fs[0].ring.zero())


def defect_regularity_equivalence(ctx: FiltrationContext,
                                  params: CriterionParams = DEFAULT_PARAMS) -> EquivalenceResult:
    """Both sides of the vanishing criterion, cross-checked.

    Left: the scan's all-vanish verdict.  Right: the exact existence of a
    regular initial form (annihilator test), plus an explicit certificate
    from ``find_regular_lift`` when one exists.  Where a regular form exists
    the scan's records are certified off that same test (``defect_at``), so
    the sides agree by construction there; the tests compare the l-chain
    (``_chain_record``) with the annihilator instead.  A disagreement whose
    scan side is budget-bounded means "raise n_max/l_max"; a disagreement
    with an exact nonvanishing witness is an internal failure.
    """
    scan = defect_scan(ctx, params)
    exists, ann_witness = regular_form_exists(ctx)
    certificate = None
    with contextlib.suppress(_FieldTooSmall):  # the verdict is exact even so
        certificate = find_regular_lift(ctx) if exists else None
    agree = scan.all_vanish == exists
    if agree:
        classification = "ok"
    elif scan.all_vanish and not exists:
        classification = "raise-budgets"
    else:
        raise ConsistencyError(
            "exact nonvanishing witness coexists with a regular initial form; "
            f"first nonvanishing level {scan.first_nonvanishing}"
        )
    return EquivalenceResult(
        agree=agree,
        all_vanish=scan.all_vanish,
        regular_exists=exists,
        classification=classification,
        scan=scan,
        annihilator_witness=ann_witness,
        regular_certificate=certificate,
    )


# ---------------------------------------------------------------------------
# Grade recursion and the full report
# ---------------------------------------------------------------------------

def grade_by_recursion(ctx: FiltrationContext) -> GradeReport:
    """Count verified regular steps M -> M/bM until the initial forms have
    a nonzero annihilator on the graded module.

    The steps run on one presentation.  When b* is regular on G = G_M(q),
    G_{M/bM}(q) = G/b*G (Valabrega-Valla, Form rings and regular sequences,
    Nagoya Math. J. 72, 1978), so after each step (b, d, b*) the recursion
    passes to ``quotient_by((b*,))`` of the presentation it is on.  There
    the system's initial forms are the top images reduced modulo it, and the
    construction (``find_regular_lift`` given the steps so far) reduces each
    product's top image: a product of degree d lies in q^d M, so its class
    maps across.  Both presentations of G_{M/bM} are one ideal of the
    presentation ring in one weighted order, and so have one reduced basis:
    every certificate, annihilator and normal form is the one that the
    context of M/bM gives.

    Every step's regularity is certified exactly, and so is the stop, which
    reads no level: ``regular_form_exists`` is the exact form of "every
    level of M/bM vanishes" (``defect_at`` proves one direction; a nonzero
    torsion class of degree d makes level d + 1 nonvanishing).  A regular
    sequence on G is at most dim G long, which bounds the steps.

    No step can make the initial forms act as the unit ideal, so the
    recursion asks that only once, in ``system_images``.  Each step's b is
    a sum of m_i*a_i with m_i in q^(d-c_i) and b of initial degree d, so b*
    is the sum of the classes of m_i in G_(d-c_i) times a_i*, and lies in
    (a*)G.  With H the ideal of G's presentation, H + (b_1*, ..., b_k*) +
    (a*) is then H + (a*), whose quotient ``system_images`` found proper.
    """
    top = tuple(e.representative for e in system_images(ctx))
    steps: tuple[CertificateStep, ...] = ()
    while True:
        pres = _after(ctx, steps)
        reps = pres.reduce_all(top) if steps else top
        if pres.annihilator(reps) is not None:
            return GradeReport(len(steps), "lzero-recursion", steps)
        cand = find_regular_lift(ctx, steps)
        if cand is None:
            raise ValidationError(
                "the initial forms have no common annihilator on the graded module, but "
                "the ideal (a*) they generate holds no homogeneous nonzerodivisor in any "
                "degree; the recursion's steps must be homogeneous")
        steps += (cand,)
        if len(steps) > graded_dim(ctx.form_presentation()):
            raise ConsistencyError("recursion depth exceeded the dimension of the graded module")


def checked_depth(ctx: FiltrationContext) -> GradeReport:
    """Depth of the form module, taken at the origin: inputs whose
    filtration ideal is not inside the variable ideal are refused, once
    the form presentation is built."""
    pres = ctx.form_presentation()
    if ctx.local_model_mismatch:
        raise ValidationError(
            "filtration ideal is not inside the variable ideal; depth and the "
            "Cohen-Macaulay verdict assume the distinguished point is the "
            "origin (translate coordinates first)"
        )
    return depth(pres)


def checked_dim(ctx: FiltrationContext) -> int:
    """Dimension of the form module, which must equal the module's own at
    the origin.  Where q + I_A is m-primary, A/q^n lives at the origin, so
    dim G_q(M) = dim M_m; where the global dimension differs, the tangent
    cone by the route the form presentation did not take
    (``FiltrationContext.origin_cone``) gives dim M_m."""
    dim_graded = graded_dim(ctx.form_presentation())
    dim_module = ctx.ideal_m.krull_dim()
    if dim_graded != dim_module and ctx.q_ideal.is_m_primary():
        dim_module = graded_dim(ctx.origin_cone())
    if dim_graded != dim_module:
        raise ConsistencyError(
            f"graded dimension {dim_graded} differs from module dimension {dim_module}"
        )
    return dim_graded


def checked_grades(ctx: FiltrationContext) -> tuple[GradeReport, GradeReport]:
    """The grade of the system's initial forms by both exact routes, Koszul
    homology and the regular-step recursion, which must agree."""
    direct = koszul_grade(ctx.form_presentation(), system_images(ctx))
    recursion = grade_by_recursion(ctx)
    if direct.value != recursion.value:
        raise ConsistencyError(
            "grade mismatch between the Koszul route and the recursion: "
            f"{direct.value} vs {recursion.value}; system="
            f"{[str(s.element) for s in ctx.system]}"
        )
    return direct, recursion


def cohen_macaulay_report(ctx: FiltrationContext,
                          params: CriterionParams = DEFAULT_PARAMS) -> CriterionReport:
    """Assemble depth, dimension, both grade routes, and the verdict.

    Internal consistency is asserted, not assumed: the two grade routes must
    agree, the graded dimension must equal the module dimension, and for a
    system of parameters the grade must equal the depth.

    Depth takes the maximal homogeneous ideal at the origin, so the filtration
    ideal must sit inside the variable ideal; other inputs are refused here
    (scans, the equivalence check, and the grade recursion still apply).
    """
    _require_exact_system(ctx)
    depth_report = checked_depth(ctx)
    dim_graded = checked_dim(ctx)
    images = system_images(ctx)
    direct, recursion = checked_grades(ctx)
    scan = defect_scan(ctx, params)
    sop = is_system_of_parameters(ctx.form_presentation(), images)
    if sop and depth_report.value != direct.value:
        raise ConsistencyError(
            f"system of parameters but grade {direct.value} != depth {depth_report.value}"
        )
    depth_value = int(depth_report.value)
    cm = depth_value == dim_graded
    notes = [
        "higher-index nonvanishing (indexes depth..dim) is predicted by the grade "
        "identity, not computed directly",
        "every level is certified (certified=true): the initial forms have no torsion on "
        "the graded module, so every level vanishes; all graded certificates are exact"
        if all(r.certified for r in scan.records) else
        "vanishing verdicts are bounded (certified=false); nonvanishing and all "
        "graded certificates are exact",
        "depth generators include the degree-0 residue classes of the ambient "
        "variables that survive in the graded quotient",
    ]
    if scan.budget_limited:
        notes.append("some levels hit l_max before stabilizing; treat their vanishing as provisional")
    return CriterionReport(
        depth=depth_value,
        dim=dim_graded,
        grade_direct=int(direct.value),
        grade_recursion=int(recursion.value),
        lzero_table=scan.records,
        sop_flag=sop,
        cm_verdict=cm,
        predicted_band=(depth_value, dim_graded),
        notes=tuple(notes),
        depth_report=depth_report,
        direct_report=direct,
        recursion_report=recursion,
        system_images=images,
    )


def squared_system(ctx: FiltrationContext) -> list[tuple[Polynomial, int]]:
    """The componentwise squares with their doubled membership exponents.

    Doubling is deliberate: the square may sit deeper in the filtration than
    twice the initial degree, and the level ideals match the original system
    only for the doubled exponent.
    """
    return [(s.element * s.element, 2 * s.degree) for s in ctx.system]


@dataclass(frozen=True)
class InvarianceResult:
    agree: bool
    disagreeing_levels: tuple[int, ...]
    budget_levels: tuple[int, ...]

    def __bool__(self):
        return self.agree


def radical_invariance_check(ctx: FiltrationContext, alt_system,
                             params: CriterionParams = DEFAULT_PARAMS) -> InvarianceResult:
    """Compare the stabilized level ideals of two systems the caller asserts
    have equal radicals.

    ``alt_system`` is a list of (element, exponent) pairs; exponents are
    membership exponents, not necessarily initial degrees.  Levels where
    either chain ran out of l_max before stabilizing are reported separately
    instead of counted as disagreement (the two chains probe the union at
    different speeds, so a budget cut can split them legitimately).
    """
    alt = ctx.with_exponent_system(alt_system)
    bad: list[int] = []
    budget: list[int] = []
    for n in range(params.n_max + 1):
        a = defect_at(ctx, n, params)
        b = defect_at(alt, n, params)
        if a.status != "stabilized" or b.status != "stabilized":
            budget.append(n)
            continue
        if not a.ideal.equals(b.ideal):
            bad.append(n)
    return InvarianceResult(not bad, tuple(bad), tuple(budget))
