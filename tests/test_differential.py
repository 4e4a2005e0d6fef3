"""Seeded differential tests on small random inputs.

Each seed draws one session file: 2 or 3 variables over QQ, F_2 or F_3; a
base of one or two monomials, binomials or terms times a unit (m - m*n, which
has a component away from the origin); q = all variables or a subset; one or
two system elements; ``n_max = 4`` and ``l_max = 8``.  On every input the
report commands exit 0, 2 or 3 (1 is reserved for internal consistency
failures), and ``defect_at`` gives the record of the direct loop
``oracle.direct_defect_at`` at every level; the seeds cover single elements
whose level chains read the colon sequence and those that take kernels.
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
from oracle import direct_defect_at

from formcone import DefectRecord, FormconeError, defect_at, defect_scan, parse_session
from formcone.cli import main
from formcone.criterion import _reads_colon_sequence, _shared_colons

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(60)
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


def _record_fields(record: DefectRecord) -> dict:
    out = {f.name: getattr(record, f.name) for f in fields(record)}
    out["ideal"] = record.ideal.groebner().generators
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_random_input_exits_cleanly_and_levels_match_the_direct_loop(seed, tmp_path):
    text = random_session(seed)
    path = tmp_path / "input.fc"
    path.write_text(text, encoding="utf-8")
    for command in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([command, str(path)])
        assert code in (0, 2, 3), (command, text, err.getvalue())
    spec = parse_session(text)
    try:
        ctx = spec.context()
        records = [defect_at(ctx, n, spec.params) for n in range(spec.params.n_max + 1)]
    except FormconeError:  # refused input or system: the exit codes above cover it
        return
    for n, record in enumerate(records):
        direct = direct_defect_at(spec.context(), n, spec.params)
        assert _record_fields(record) == _record_fields(direct), (n, text)


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
