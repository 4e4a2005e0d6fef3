"""Seeded differential tests on small random inputs.

Each seed draws one session file: 2 or 3 variables over QQ, F_2 or F_3; a
base of one or two monomials, binomials or terms times a unit (m - m*n, which
has a component away from the origin); q = all variables or a subset; one or
two system elements; ``n_max = 4`` and ``l_max = 8``.  On every input the
report commands exit 0, 2 or 3 (1 is reserved for internal consistency
failures), the l-chain (``criterion._chain_record``) gives the record of
the direct loop ``oracle.direct_defect_at`` at every level, and so does
``defect_at``, except that a certified record's chain metadata (its
``stabilized_l``, ``status`` and ``certified``) is its own, and
``initial_degree`` gives the degrees of the probe loop
``oracle.probed_initial_degree``, as it does on the corpus, the tier-4
inputs and the demo; the seeds cover
single elements whose level chains read the colon sequence and those that
take kernels.  Seeds 0-59 run in tier 1 and seeds 0-299 under the ``sweep``
marker (``pytest -m sweep``).  Over the corpus, the tier-4 inputs, the demo
and seeds 0-59, every certified record has the chain's ideal, verdict and
residues, the grade recursion on one presentation retraces the
recursion through quotient contexts (``oracle.quotient_recursion``) and
leaves the system's initial forms a proper ideal after every step, the
scan over the q-power ladder formed on demand gives the records of one
formed in full (``oracle.eager_ladder_records``), and every presentation
the pipeline reaches answers its graded questions on its core as
``oracle.FullRing`` does in the full presentation ring; the retraced
recursion, the ladder and the full ring also over seeds 0-299 under the
``sweep`` marker.
Seed 174, whose q + I_A is m-primary but not m, reads its dimension at the
origin.  For three inputs the ``cm-check`` JSON, minus ``timings``, does not
depend on the hash seed.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from corpus import CORPUS_PARAMS, tier4_contexts
from oracle import (
    cold_copy,
    direct_defect_at,
    eager_ladder_records,
    graded_record_summand,
    graded_side_differs,
    listed_at_once,
    probed_initial_degree,
    product_power,
    quotient_recursion,
    socle_first_depth,
)

import formcone.criterion as criterion_module
from formcone import (
    DefectRecord,
    FiltrationContext,
    FormconeError,
    ValidationError,
    cohen_macaulay_report,
    defect_at,
    defect_regularity_equivalence,
    defect_scan,
    depth,
    grade_by_recursion,
    parse_session,
    system_images,
)
from formcone.cli import main
from formcone.criterion import (
    _candidate_multipliers,
    _chain_record,
    _reads_colon_sequence,
    _shared_colons,
)
from formcone.ideals import meet_of_colons

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(60)
SWEEP_SEEDS = range(300)
HASH_SEEDS = (0, 1, 2)  # seeds whose cm-check exits 0
COMMANDS = ("lzero", "depth", "grade", "cm-check")


def random_session(seed: int) -> str:
    """The session file that ``seed`` draws."""
    rng = random.Random(seed)
    names = ("x", "y", "z")[:rng.choice((2, 3))]

    def monomial(degree):
        exponents = [0] * len(names)
        for _ in range(degree):
            exponents[rng.randrange(len(names))] += 1
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, exponents) if e)

    def base_element():
        kind, m = rng.choice(("monomial", "binomial", "unit")), monomial(rng.randint(2, 3))
        if kind == "binomial":
            other = monomial(rng.randint(2, 3))
            return m if other == m else f"{m} {rng.choice('+-')} {other}"
        return f"{m} - {m}*{rng.choice(names)}" if kind == "unit" else m

    q = list(names)
    if rng.random() < 0.5:
        q = sorted(rng.sample(names, rng.randint(1, len(names) - 1)))
    system = [rng.choice(q) if rng.random() < 0.6 else " + ".join(rng.sample(names, 2))
              for _ in range(rng.randint(1, 2))]
    return "\n".join([
        f"field {rng.choice(('QQ', 'FP 2', 'FP 3'))}",
        f"vars {', '.join(names)}",
        f"base: {', '.join(base_element() for _ in range(rng.randint(1, 2)))}",
        f"q: {', '.join(q)}",
        f"a: {', '.join(system)}",
        "set n_max = 4",
        "set l_max = 8",
    ]) + "\n"


# a certified record carries no chain, so these fields are its own
CHAIN_METADATA = ("stabilized_l", "status", "certified")


def _record_fields(record: DefectRecord, certified: bool = False) -> dict:
    """The record's fields, its ideal by reduced basis; without the chain
    metadata when compared with a certified record."""
    out = {f.name: getattr(record, f.name) for f in fields(record)}
    out["ideal"] = record.ideal.groebner().generators
    if certified:
        for name in CHAIN_METADATA:
            del out[name]
    return out


def _check_seed(seed: int, tmp_path) -> None:
    """Every report command exits 0, 2 or 3 on the seed's input, initial
    degrees are the probe's, and at every level the chain gives the direct
    loop's record and ``defect_at`` gives it too, but for a certified
    record's chain metadata; a graded record's basis, listed when read, is
    the one listed at once; and ``depth`` of the form presentation is the
    socle-first reference's (``oracle.socle_first_depth``)."""
    text = random_session(seed)
    path = tmp_path / "input.fc"
    path.write_text(text, encoding="utf-8")
    for command in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([command, str(path)])
        assert code in (0, 2, 3), (command, text, err.getvalue())
    spec = parse_session(text)
    levels = range(spec.params.n_max + 1)
    try:
        ctx = spec.context()
    except FormconeError:  # refused input: the exit codes above cover it
        return
    assert _initial_degrees_differ(spec.context()) == [], text
    assert _depth_outcome(depth, spec) == _depth_outcome(socle_first_depth, spec), text
    try:
        records = [defect_at(ctx, n, spec.params) for n in levels]
    except FormconeError:  # refused system: the exit codes above cover it
        return
    chain = spec.context()
    for n, record in enumerate(records):
        direct = direct_defect_at(spec.context(), n, spec.params)
        assert _record_fields(_chain_record(chain, n, spec.params)) == _record_fields(direct), \
            (n, text)
        assert _record_fields(record, record.certified) \
            == _record_fields(direct, record.certified), (n, text)
        if ctx.is_graded() and (record.certified or _shared_colons(ctx)):
            eager = listed_at_once(graded_record_summand(ctx, record), n)
            assert record.ideal.groebner().generators == eager.groebner().generators, (n, text)


def _depth_outcome(depth_of, spec):
    """``depth_of`` on the form presentation of a fresh context for ``spec``,
    as its value, method and certificate, or the type of the error raised."""
    try:
        report = depth_of(spec.context().form_presentation())
    except FormconeError as error:
        return type(error)
    return report.value, report.method, [getattr(e, "representative", e)
                                         for e in report.certificate]


def _degree_outcome(initial_degree, a):
    """The initial degree of a, or ValidationError for an element zero in M."""
    try:
        return initial_degree(a)
    except ValidationError:
        return ValidationError


def _initial_degrees_differ(ctx) -> list:
    """The (layer, element) pairs where ``initial_degree`` differs from
    ``oracle.probed_initial_degree``, on ``ctx`` and on ``ctx.base``, for
    every system element and, on a system of exact degrees, every product
    that the regular-lift search probes (``_candidate_multipliers``)."""
    elements = [s.element for s in ctx.system]
    if ctx.system and all(s.exact and not s.zero_flag for s in ctx.system):
        degrees = [s.degree for s in ctx.system]
        elements += [m * s.element for d in range(min(degrees), max(degrees) + 2)
                     for s in ctx.system for m in _candidate_multipliers(ctx, s.degree, d)]
    return [(str(layer), str(a)) for layer in (ctx, ctx.base) for a in elements
            if _degree_outcome(layer.initial_degree, a)
            != _degree_outcome(lambda b: probed_initial_degree(layer, b), a)]


def test_initial_degrees_match_the_probe(corpus):
    # the closed forms (lowest degree below the order of I_M, the normal
    # form on graded inputs) and the probe from the lowest degree up must
    # give the probe loop's degrees, and refuse the same elements
    demo = parse_session((ROOT / "demos" / "semigroup_curve.fc").read_text(encoding="utf-8"))
    contexts = [demo.context(), *(i.ctx for i in corpus), *tier4_contexts()]
    for ctx in contexts:
        assert _initial_degrees_differ(cold_copy(ctx)) == [], str(ctx)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_input_exits_cleanly_and_levels_match_the_direct_loop(seed, tmp_path):
    _check_seed(seed, tmp_path)


@pytest.mark.sweep
@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_sweep_random_input_exits_cleanly_and_levels_match_the_direct_loop(seed, tmp_path):
    _check_seed(seed, tmp_path)


def test_seeds_cover_both_single_element_chain_routes():
    # a single element off the graded case either meets q^(n+c) M =
    # a*q^n M + I_M at some level up to n_max, and reads its chain terms off
    # the colon sequence from there, or takes a kernel per chain step
    routed = kept = 0
    for seed in SEEDS:
        spec = parse_session(random_session(seed))
        try:
            ctx = spec.context()
            defect_scan(ctx, spec.params)
        except FormconeError:
            continue
        if len(ctx.system) == 1 and not _shared_colons(ctx):
            reads = _reads_colon_sequence(ctx, spec.params.n_max, spec.params)
            routed, kept = routed + reads, kept + (not reads)
    assert (routed, kept) == (14, 17)


# seeds whose single element is a zero divisor on P/I_M, with the first level
# where q^(n+c) M = a*q^n M + I_M holds (seed 200: QQ, base x*y - x*y*y,
# x^3 - x*y^2, q = (x, y), a = y); C(n, 1) there is q^n M + (I_M : a), larger
# than q^n M
ZERO_DIVISOR_STARTS = {19: 2, 78: 4, 200: 2, 260: 3}


@pytest.mark.parametrize("seed", sorted(ZERO_DIVISOR_STARTS))
def test_a_zero_divisor_reads_the_colon_sequence_where_the_premise_holds(seed):
    spec = parse_session(random_session(seed))
    ctx, params, start = spec.context(), spec.params, ZERO_DIVISOR_STARTS[seed]
    assert len(ctx.system) == 1 and not _shared_colons(ctx)
    a, c = ctx.system[0].element, ctx.system[0].degree
    assert not meet_of_colons([ctx.ideal_m], [a]).equals(ctx.ideal_m)
    levels = range(params.n_max + 1)
    for n in levels:
        assert _record_fields(_chain_record(ctx, n, params)) \
            == _record_fields(direct_defect_at(spec.context(), n, params)), n
        low = product_power(ctx, n).groebner().generators
        premise = product_power(ctx, n + c).equals(ctx.ideal_m.sum_with(*(a * g for g in low)))
        assert premise == (n >= start) == _reads_colon_sequence(ctx, n, params), n


def test_m_primary_q_reads_the_dimension_at_the_origin(tmp_path):
    # seed 174: F_2, I_A = (y^2 - y^3, x^3 - x^3*y), q = (y).  The global
    # dimension 1 comes from the component y = 1, away from V(q); q + I_A
    # is m-primary, so dim G = dim A_m = 0, and no command may report a
    # dimension mismatch
    text = random_session(174)
    assert "q: y\n" in text and "x^3 - x^3*y" in text
    path = tmp_path / "input.fc"
    path.write_text(text, encoding="utf-8")
    for command in ("dim", "depth", "cm-check", "full-report"):
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([command, str(path), "--json"])
        assert code == 0, (command, err.getvalue())
        report = json.loads(out.getvalue())
        assert report["dim"] == 0, command
        if command != "dim":
            assert report["depth"] == 0, command


@pytest.mark.parametrize("seed", HASH_SEEDS)
def test_random_input_reports_do_not_depend_on_the_hash_seed(seed, tmp_path):
    path = tmp_path / "input.fc"
    path.write_text(random_session(seed), encoding="utf-8")
    code = ("import sys; from formcone.cli import main; "
            f"sys.exit(main(['cm-check', {str(path)!r}, '--json']))")
    reports = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                            os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        report.pop("timings")
        reports.append(report)
    assert reports[0] == reports[1]


def _certification_cases(corpus) -> list:
    """(context, params) for the demo, the corpus, the tier-4 inputs and the
    seeds 0-59 whose context builds."""
    demo = parse_session((ROOT / "demos" / "semigroup_curve.fc").read_text(encoding="utf-8"))
    cases = [(demo.context(), demo.params)]
    cases += [(i.ctx, CORPUS_PARAMS) for i in corpus]
    cases += [(ctx, CORPUS_PARAMS) for ctx in tier4_contexts()]
    for seed in SEEDS:
        spec = parse_session(random_session(seed))
        try:
            cases.append((spec.context(), spec.params))
        except FormconeError:
            continue
    return cases


def _certified_against_the_chain(cases) -> tuple[int, list]:
    """The number of certified records over every level of ``cases``, each
    on a context with cold caches, and the (case index, level) pairs where
    one differs from the chain's record in ideal, verdict or residues."""
    certified, differ = 0, []
    for index, (ctx, params) in enumerate(cases):
        try:
            cold = ctx.with_exponent_system([(s.element, s.degree) for s in ctx.system])
            records = [defect_at(cold, n, params) for n in range(params.n_max + 1)]
        except FormconeError:  # refused system: no record to certify
            continue
        for record in records:
            if not record.certified:
                continue
            certified += 1
            chain = _chain_record(cold, record.n, params)
            if (record.ideal.groebner().generators, record.vanishing,
                    record.quotient_generators) != (chain.ideal.groebner().generators,
                                                    chain.vanishing, chain.quotient_generators):
                differ.append((index, record.n))
    return certified, differ


def test_certified_records_are_the_chains(corpus, monkeypatch):
    # a certified record (torsion-free initial forms) takes no chain; the
    # chain, climbed anyway, must reach the same ideal q^n M with no residue
    cases = _certification_cases(corpus)
    certified, differ = _certified_against_the_chain(cases)
    assert differ == []
    assert certified == 417  # in 57 of the 105 contexts
    # certifying every level, torsion or not, must be caught: the demo
    # curve's level 2, among others, does not vanish
    monkeypatch.setattr(criterion_module, "_torsion_free", lambda ctx: True)
    _, differ = _certified_against_the_chain(cases)
    assert (0, 2) in differ


def _recursion_outcome(run, ctx):
    """The grade and each step's element, degree and image representative,
    or the type of the error that the recursion raises."""
    try:
        report = run(ctx)
    except FormconeError as exc:
        return type(exc)
    return report.value, [(s.element, s.degree, s.image.representative)
                          for s in report.certificate]


def test_grade_recursion_retraces_the_quotient_contexts(corpus):
    # G/b*G for each certified step must give the steps, image
    # representatives, grade and errors of the contexts M/bM
    outcomes = []
    for ctx, _ in _certification_cases(corpus):
        oracle = _recursion_outcome(quotient_recursion, ctx)
        assert _recursion_outcome(grade_by_recursion, ctx) == oracle, str(ctx)
        outcomes.append(oracle)
    # seven two-step recursions, among them seed 7, whose second step's
    # image is not reduced modulo the first quotient until it is mapped
    # across; on seeds 10 and 43, (a*) holds no homogeneous nonzerodivisor,
    # and both routes refuse them
    assert sum(o != ValidationError and o[0] == 2 for o in outcomes) == 7
    assert outcomes.count(ValidationError) == 2


# seeds whose initial forms have no common annihilator on G while (a*)
# holds no homogeneous nonzerodivisor in any degree: every J_d lies in an
# associated prime (seed 10: F_2, I = (x^2*y), q = (x), a = y + x, x; each
# J_d lies in (x*) or in (y))
NO_HOMOGENEOUS_NONZERODIVISOR = (10, 43, 66, 125, 182, 205, 234, 283, 287)


@pytest.mark.parametrize("seed", NO_HOMOGENEOUS_NONZERODIVISOR)
def test_grade_refuses_an_initial_form_ideal_without_a_homogeneous_nonzerodivisor(
        seed, tmp_path):
    path = tmp_path / "input.fc"
    path.write_text(random_session(seed), encoding="utf-8")
    for command in ("grade", "cm-check"):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([command, str(path)])
        assert code == 2, (command, err.getvalue())
        assert "holds no homogeneous nonzerodivisor in any degree" in err.getvalue()


@pytest.mark.sweep
@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_sweep_grade_recursion_retraces_the_quotient_contexts(seed):
    spec = parse_session(random_session(seed))
    try:
        ctx = spec.context()
    except FormconeError:  # refused input: no recursion to compare
        return
    oracle = _recursion_outcome(quotient_recursion, ctx)
    assert _recursion_outcome(grade_by_recursion, spec.context()) == oracle, seed


def test_grade_recursion_steps_leave_the_system_ideal_proper(corpus):
    # the recursion asks only once, in system_images, whether the initial
    # forms act as the unit ideal: each step's b* lies in (a*)G, so after
    # the steps H + (b*) + (a*) = H + (a*), which must stay proper
    steps = 0
    for ctx, _ in _certification_cases(corpus):
        try:
            report = grade_by_recursion(ctx)
        except FormconeError:  # refused or budget-bound: no steps to check
            continue
        top = tuple(e.representative for e in system_images(ctx))
        system_ideal = ctx.form_presentation().quotient_by(top)
        for step in report.certificate:
            assert system_ideal.contains(step.image.representative), str(ctx)
            pres = step.image.presentation.quotient_by((step.image.representative,))
            assert pres.quotient_by(pres.reduce_all(top)).is_proper(), str(ctx)
            steps += 1
    assert steps == 62


def _ladder_outcome(records, *args):
    """Every record's fields, its ideal by reduced basis, or the type of
    the error that the scan raises."""
    try:
        return [_record_fields(r) for r in records(*args)]
    except FormconeError as exc:
        return type(exc)


def _check_ladder_on_demand(ctx, params) -> None:
    """The scan over a ladder formed on demand gives the records of one
    formed in full through the highest level the scan names, with residues
    taken against that ladder."""
    lazy = cold_copy(ctx)
    outcome = _ladder_outcome(lambda: defect_scan(lazy, params).records)
    top = max(*lazy._powers, params.n_max)
    assert _ladder_outcome(eager_ladder_records, ctx, params, top) == outcome, str(ctx)


def test_ladder_on_demand_gives_the_eager_ladders_records(corpus):
    for ctx, params in _certification_cases(corpus):
        _check_ladder_on_demand(ctx, params)


@pytest.mark.sweep
@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_sweep_ladder_on_demand_gives_the_eager_ladders_records(seed):
    spec = parse_session(random_session(seed))
    try:
        ctx = spec.context()
    except FormconeError:  # refused input: no scan to compare
        return
    _check_ladder_on_demand(ctx, spec.params)


def _reached_presentations(ctx, params) -> list:
    """Every presentation that the equivalence check and the CM report
    reach on a cold copy of ``ctx``: the form presentation, its quotient by
    the system images, each recursion step's and each depth step's
    quotient, and the core of each, found through the memos that keep
    them."""
    ctx = FiltrationContext(ctx.ring, ctx.base_generators, ctx.module_generators,
                            ctx.q_generators, [(s.element, None) for s in ctx.system],
                            ctx.probe_cap, ctx.step_budget)
    try:
        defect_regularity_equivalence(ctx, params)
        cohen_macaulay_report(ctx, params)
    except FormconeError:  # a refused or budget-bound input still reaches some
        pass
    reached, todo = [], [ctx.form_presentation()]
    while todo:
        pres = todo.pop()
        if not any(pres is seen for seen in reached):
            reached.append(pres)
            todo += [*pres._quotients.values(), pres.core]
    return reached


def _full_ring_disagreements(cases) -> tuple[int, int, list]:
    """(presentations compared, those that split off variables, and each
    that answers a graded question unlike ``oracle.FullRing``)."""
    compared, split, differ = 0, 0, []
    for ctx, params in cases:
        for pres in _reached_presentations(ctx, params):
            compared += 1
            split += pres.core is not pres
            if failed := graded_side_differs(pres):
                differ.append((str(ctx), str(pres.ring), failed))
    return compared, split, differ


def test_graded_side_matches_the_full_ring(corpus):
    # the graded side runs on each presentation's core; in P itself the
    # basis, normal forms, annihilators, Koszul grade, depth, Hilbert
    # function and dimension must come out the same
    compared, split, differ = _full_ring_disagreements(_certification_cases(corpus))
    assert differ == []
    # over the 105 cases; 374 split off variables.  The recursion builds no
    # quotient of a step's presentation by the system's images any more
    # (see test_grade_recursion_steps_leave_the_system_ideal_proper)
    assert (compared, split) == (641, 374)


@pytest.mark.sweep
@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_sweep_graded_side_matches_the_full_ring(seed):
    spec = parse_session(random_session(seed))
    try:
        ctx = spec.context()
    except FormconeError:  # refused input: no presentation to compare
        return
    assert _full_ring_disagreements([(ctx, spec.params)])[2] == []
