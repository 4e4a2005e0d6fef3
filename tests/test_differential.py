"""Seeded differential tests on small random inputs.

Each seed draws one session file: 2 or 3 variables over QQ, F_2 or F_3; a
base of one or two monomials, binomials or terms times a unit (m - m*n, which
has a component away from the origin); q = all variables or a subset; one or
two system elements; ``n_max = 4`` and ``l_max = 8``.  On every input the
report commands exit 0, 2 or 3 (1 is reserved for internal consistency
failures), the l-chain (``criterion._chain_record``) gives the record of
the direct loop ``oracle.direct_defect_at`` at every level, and so does
``defect_at``, except that a certified record's chain metadata (its
``stabilized_l``, ``status`` and ``certified``) is its own; the seeds cover
single elements whose level chains read the colon sequence and those that
take kernels.  Seeds 0-59 run in tier 1 and seeds 0-299 under the ``sweep``
marker (``pytest -m sweep``).  Over the corpus, the tier-4 inputs, the demo
and seeds 0-59, every certified record has the chain's ideal, verdict and
residues.
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
from oracle import direct_defect_at

import formcone.criterion as criterion_module
from formcone import DefectRecord, FormconeError, defect_at, defect_scan, parse_session
from formcone.cli import main
from formcone.criterion import _chain_record, _reads_colon_sequence, _shared_colons

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
    """Every report command exits 0, 2 or 3 on the seed's input, and at
    every level the chain gives the direct loop's record and ``defect_at``
    gives it too, but for a certified record's chain metadata."""
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
        records = [defect_at(ctx, n, spec.params) for n in levels]
    except FormconeError:  # refused input or system: the exit codes above cover it
        return
    chain = spec.context()
    for n, record in enumerate(records):
        direct = direct_defect_at(spec.context(), n, spec.params)
        assert _record_fields(_chain_record(chain, n, spec.params)) == _record_fields(direct), \
            (n, text)
        assert _record_fields(record, record.certified) \
            == _record_fields(direct, record.certified), (n, text)


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
    assert (routed, kept) == (13, 18)


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
