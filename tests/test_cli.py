import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from certificates import TOP, _injective_through, check_cm_certificates
from corpus import CORPUS_PARAMS, tier4_contexts

from formcone.cas import emit_cas_script
from formcone.criterion import CriterionParams
from formcone.errors import BudgetExceededError, ParseError
from formcone.filtration import FiltrationContext
from formcone.cli import COMMANDS, build_parser, emit_report, main, run_command
from formcone.session import SessionSpec, parse_session

CURVE_TEXT = """\
field QQ
vars X, Y, Z
base: X^4 - Y*Z, Y^3 - X*Z, Z^2 - X^3*Y^2
module: 0
q: X, Y, Z
a: X @ 1
"""

SCHEMA_KEYS = ["verdict", "depth", "dim", "grade", "sop", "lzero_table",
               "band", "certificates", "timings", "parameters"]


@pytest.fixture()
def curve_file(tmp_path):
    path = tmp_path / "curve.fc"
    path.write_text(CURVE_TEXT, encoding="utf-8")
    return path


def test_cm_check_command(curve_file, capsys):
    assert main(["cm-check", str(curve_file)]) == 0
    out = capsys.readouterr().out
    assert "not-cohen-macaulay" in out
    assert "band: [0, 1]" in out


def test_json_report_schema_and_determinism(curve_file, capsys):
    assert main(["full-report", str(curve_file), "--json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert list(first.keys()) == SCHEMA_KEYS
    assert first["verdict"] == "not-cohen-macaulay"
    assert first["depth"] == 0 and first["dim"] == 1 and first["grade"] == 0
    assert first["band"] == [0, 1] and first["sop"] is True
    row = first["lzero_table"][2]
    assert row["n"] == 2 and row["vanishing"] is False and row["certified"] is False
    assert row["generators"] == ["Z"]

    assert main(["full-report", str(curve_file), "--json"]) == 0
    second = json.loads(capsys.readouterr().out)
    first.pop("timings"), second.pop("timings")
    assert first == second


def test_gb_formring_hilbert_commands(curve_file, capsys):
    assert main(["gb", str(curve_file)]) == 0
    assert "Y^3 - X*Z" in capsys.readouterr().out

    assert main(["formring", str(curve_file), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cone"] == ["Z^2", "Y*Z", "X*Z", "Y^4"]

    assert main(["hilbert", str(curve_file), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["values"][:6] == [1, 3, 3, 4, 4, 4]


def test_lzero_grade_depth_dim_commands(curve_file, capsys):
    assert main(["lzero", str(curve_file), "--set", "n_max=4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "nonvanishing at n=2"
    assert payload["parameters"]["n_max"] == 4
    assert payload["certificates"]["local_model_mismatch"] is False

    assert main(["grade", str(curve_file), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["grade"] == 0

    assert main(["depth", str(curve_file), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["depth"] == 0 and payload["dim"] == 1

    assert main(["dim", str(curve_file), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 1


def test_exit_code_for_input_errors(tmp_path, capsys):
    bad = tmp_path / "bad.fc"
    bad.write_text("field QQ\nvars x\nq: w\n", encoding="utf-8")
    assert main(["gb", str(bad)]) == 2
    assert "input error" in capsys.readouterr().err

    missing = tmp_path / "missing.fc"
    assert main(["gb", str(missing)]) == 2

    claim = tmp_path / "claim.fc"
    claim.write_text("field QQ\nvars x, y\nq: x, y\na: x @ 2\n", encoding="utf-8")
    assert main(["cm-check", str(claim)]) == 2

    undecodable = tmp_path / "latin1.fc"
    undecodable.write_bytes(b"field QQ\nvars x\nq: x\xff\n")
    assert main(["gb", str(undecodable)]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_depth_and_cm_check_refuse_a_shifted_filtration(tmp_path, capsys):
    """q = (x - 1, y) is not inside the variable ideal: both depth routes
    refuse the input with the one message of ``checked_depth``."""
    shifted = tmp_path / "shifted.fc"
    shifted.write_text("field QQ\nvars x, y\nq: x - 1, y\na: y\n", encoding="utf-8")
    errors = []
    for command in ("depth", "cm-check"):
        assert main([command, str(shifted), "--json"]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert "filtration ideal is not inside the variable ideal" in errors[0]


def test_exit_code_for_budget_exhaustion(curve_file, capsys):
    # construction runs I_A's basis only, which fits in 2 pair reductions;
    # step_budget = 1 is the smallest accepted value and exhausts it
    code = main(["gb", str(curve_file), "--set", "step_budget=1"])
    assert code == 3
    assert "budget" in capsys.readouterr().err


TIER4_CURVE_TEXT = """\
field QQ
vars x, y, z, w
base: z^2 - y*w, y^3 - x*w, x^3 - y*z, x^2*y*z - w^2, x^2*y^2 - z*w
q: x, y, z, w
a: x
set n_max = 1
"""


def test_a_scan_below_the_first_nonvanishing_level_is_no_budget_exit(tmp_path, capsys):
    """The tier-4 curve's first nonvanishing level is 2, so with n_max = 1
    every scanned level vanishes although a* has torsion on G.  The grade
    recursion stops on that annihilator, not on a scan: grade and cm-check
    exit 0 with grade 0, Koszul's, where a stop on the scan exited 3 with
    "scan reports all-vanish up to n_max but no regular initial form
    exists"."""
    path = tmp_path / "curve.fc"
    path.write_text(TIER4_CURVE_TEXT, encoding="utf-8")
    for command in ("grade", "cm-check"):
        assert main([command, str(path), "--json"]) == 0, capsys.readouterr().err
        report = json.loads(capsys.readouterr().out)
        assert report["grade"] == 0, command
        if command == "cm-check":
            assert [row["vanishing"] for row in report["lzero_table"]] == [True, True]
            assert report["verdict"] == "not-cohen-macaulay"


def test_formring_reports_budget_exhaustion_inside_the_cone(curve_file, capsys, monkeypatch):
    # only the cone's own refusal (ValidationError) drops the "cone" key;
    # a budget or consistency failure inside it keeps its exit code
    def exhausted(self):
        raise BudgetExceededError("step budget spent inside variable_cone")

    monkeypatch.setattr(FiltrationContext, "variable_cone", exhausted)
    assert main(["formring", str(curve_file)]) == 3
    assert "budget exhausted" in capsys.readouterr().err


def test_bad_override_rejected(curve_file, capsys):
    assert main(["gb", str(curve_file), "--set", "nonsense=3"]) == 2


# the CriterionParams fields that no code reads are unknown keys too
UNUSED = ("search_degree_span", "search_extra_degree", "search_coefficients", "search_budget",
          "search_random_rounds", "seed")


@pytest.mark.parametrize("line,flag", [
    ("bogus = 3", "bogus=3"), ("n_max = y", "n_max=y"), ("n_max", "n_max"),
    *((f"{key} = 3", f"{key}=3") for key in UNUSED),
], ids=["unknown-key", "not-an-integer", "no-value", *(f"unused-{key}" for key in UNUSED)])
def test_set_line_and_set_flag_share_one_message(curve_file, capsys, line, flag):
    """A `set` line and a `--set` flag go through one setter: the same
    refusal, at the line for the session file."""
    with pytest.raises(ParseError) as err:
        parse_session(f"field QQ\nvars x\nset {line}\nq: x\n")
    assert (err.value.line, err.value.column) == (3, 1)
    at_line, message = str(err.value).split(": ", 1)
    assert at_line == "line 3, column 1"
    assert main(["gb", str(curve_file), "--set", flag]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_set_flags_do_not_outlive_their_call(curve_file, capsys):
    """One parser serves every ``main`` call of a process; an earlier call's
    ``--set`` flags must not reach a later call's parameters."""
    assert build_parser() is build_parser()
    assert main(["dim", str(curve_file), "--json", "--set", "n_max=3"]) == 0
    assert json.loads(capsys.readouterr().out)["parameters"]["n_max"] == 3
    assert main(["dim", str(curve_file), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["parameters"]["n_max"] == CriterionParams().n_max != 3


def test_commands_are_the_parser_choices():
    """The argparse choices are the dispatch table's commands, in order."""
    action = next(a for a in build_parser()._actions if a.dest == "command")
    assert tuple(action.choices) == COMMANDS == (
        "gb", "formring", "hilbert", "dim", "depth", "lzero", "grade",
        "cm-check", "full-report", "emit-cas")


def test_negative_search_parameters_are_input_errors(tmp_path, capsys):
    plane = tmp_path / "plane.fc"
    plane.write_text("field QQ\nvars x, y\nq: x, y\na: x\n", encoding="utf-8")
    # no search field is read any more, so none is a key, whatever its value
    assert main(["cm-check", str(plane), "--set", "search_extra_degree=-1"]) == 2
    assert "unknown parameter 'search_extra_degree'" in capsys.readouterr().err
    # a bound that is read refuses a negative value
    assert main(["cm-check", str(plane), "--set", "n_max=-1"]) == 2
    assert "input error: need n_max >= 0" in capsys.readouterr().err
    assert main(["cm-check", str(plane), "--set", "n_max=0"]) == 0


ADVERSARIAL = {
    # the degree-0 part k[y] is infinite, so the Hilbert function is undefined
    "plane": "field QQ\nvars x, y\nq: x\na: x\n",
    "char2": "field FP 2\nvars x, y, z\nbase: x^2 + y^2 + z^2\nq: x, y, z\na: x, y\n",
    "not_separated": "field QQ\nvars x, y\nbase: x - x*y\nq: x, y\na: y\n",
    "degree0": "field QQ\nvars x, y\nq: x, y\na: x + 1\n",
    # two components, the z-axis through the origin and the plane z = 1: the
    # module's dimension is 2 globally but 1 at the origin, the graded one's
    "affine": "field QQ\nvars x, y, z\nbase: x - x*z, y - y*z\nq: x, y, z\na: z\n",
    # malformed files: every command refuses them
    "not_utf8": b"field QQ\nvars x\nq: x\xff\n",
    "deep_nesting": "field QQ\nvars x\nq: " + "(" * 300 + "x" + ")" * 300 + "\n",
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_adversarial_inputs_never_exit_1(tmp_path, capsys, name):
    """Every command gives a result (0) or refuses the input (2).  Exit 1,
    returned for a consistency failure or taken by an exception that escapes
    ``main``, would mean an internal failure on a valid input."""
    path = tmp_path / f"{name}.fc"
    text = ADVERSARIAL[name]
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    codes, outputs = {}, {}
    for command in COMMANDS:
        codes[command] = main([command, str(path), "--json"])
        outputs[command] = capsys.readouterr().out
    assert {c: code for c, code in codes.items() if code not in (0, 2)} == {}
    if name == "affine":  # 1 - z is a unit at the origin: the local ring is k[z]_(z)
        report = json.loads(outputs["cm-check"])
        assert (report["verdict"], report["depth"], report["dim"]) == ("cohen-macaulay", 1, 1)
    if name == "plane":
        assert codes["hilbert"] == 2
    if name in ("not_utf8", "deep_nesting"):
        assert set(codes.values()) == {2}


def test_minors_cm_check(tmp_path, capsys):
    """The 2x2 minors of a generic 2x3 matrix: a graded input whose level
    scan reads one shared colon sequence."""
    path = tmp_path / "minors.fc"
    path.write_text("field QQ\nvars a, b, c, d, e, f\n"
                    "base: a*e - b*d, a*f - c*d, b*f - c*e\nq: a, b, c, d, e, f\na: a\n",
                    encoding="utf-8")
    assert main(["cm-check", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["verdict"], report["depth"], report["dim"]) == ("cohen-macaulay", 4, 4)
    assert len(report["lzero_table"]) == 11
    assert all(row["vanishing"] for row in report["lzero_table"])


PINNED = json.loads((Path(__file__).parent / "pinned_cm_check.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_cm_check_is_pinned_where_the_orders_differ(tmp_path, capsys, name):
    """Two inputs with q != m, where a presentation's weighted order and
    DEGREVLEX sort the reduced bases of H's colons and quotients
    differently (a y-variable is the largest variable in one and the
    smallest in the other): the exact ``cm-check --json`` output, minus
    timings, recorded while the package still kept a DEGREVLEX basis of
    every presentation ideal beside the weighted one.  ``xzyz`` takes the
    Koszul depth route with a witness."""
    path = tmp_path / f"{name}.fc"
    path.write_text(PINNED[name]["input"], encoding="utf-8")
    assert main(["cm-check", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    report.pop("timings")
    assert json.dumps(report) == json.dumps(PINNED[name]["payload"])


CUBIC_TEXT = """\
field QQ
vars x, y, z, w
base: x*z - y^2, x*w - y*z, y*w - z^2
q: x, y, z, w
a: x
"""


def test_depth_certificates_share_keys_and_are_printed(curve_file, tmp_path, capsys):
    """``depth`` and ``cm-check`` file the depth route, sequence and witness
    under the same keys, and the text output prints every certificate entry
    of every report command."""
    cubic = tmp_path / "cubic.fc"
    cubic.write_text(CUBIC_TEXT, encoding="utf-8")
    expected = {
        curve_file: {"depth_method": "regular-sequence", "depth_sequence": [],
                     "depth_witness": ["y3"], "depth_witness_index": 3},
        cubic: {"depth_method": "regular-sequence", "depth_sequence": ["y1", "y4"],
                "depth_witness": [], "depth_witness_index": None},
    }
    for path, depth_certs in expected.items():
        for command in ("depth", "cm-check"):
            assert main([command, str(path), "--json"]) == 0
            certs = json.loads(capsys.readouterr().out)["certificates"]
            assert {k: certs.get(k) for k in depth_certs} == depth_certs
        assert main(["depth", str(path), "--json"]) == 0
        assert list(json.loads(capsys.readouterr().out)["certificates"]) == list(depth_certs)
    for command in ("dim", "depth", "lzero", "grade", "cm-check"):
        assert main([command, str(curve_file), "--json"]) == 0
        certs = json.loads(capsys.readouterr().out)["certificates"] or {}
        assert main([command, str(curve_file)]) == 0
        text = capsys.readouterr().out
        for key in certs:
            label = "note: " if key == "notes" else key.replace("_", " ") + ": "
            assert label in text, (command, key)
    assert main(["depth", str(curve_file)]) == 0
    assert "depth witness: y3\n" in capsys.readouterr().out
    assert main(["lzero", str(curve_file)]) == 0
    assert "local model mismatch: False\n" in capsys.readouterr().out


def test_emit_cas_dialects(curve_file, capsys):
    assert main(["emit-cas", str(curve_file)]) == 0
    script = capsys.readouterr().out
    assert "eliminate" in script and "depth" in script and "QQ" in script

    assert main(["emit-cas", str(curve_file), "--dialect", "singular"]) == 0
    script = capsys.readouterr().out
    assert "elim(" in script and "std(" in script

    spec = parse_session(CURVE_TEXT)
    assert emit_cas_script(spec, "macaulay2") == emit_cas_script(spec, "macaulay2")
    with pytest.raises(Exception):
        emit_cas_script(spec, "maple")


def test_emit_cas_prime_field():
    spec = parse_session("field FP 5\nvars x\nbase: 0\nmodule: 0\nq: x\na: x\n")
    assert "ZZ/5" in emit_cas_script(spec, "macaulay2")
    assert "ring S = 5" in emit_cas_script(spec, "singular")


@pytest.mark.parametrize("dialect,ring_line,assignment,count", [
    ("macaulay2", r"^\w+ = \w+\[(.*?)\];$", r"^(\w+) = ", 8),
    ("singular", r"^ring \w+ = \d+, \((.*?)\), dp;$", r"^(?:ring |ideal |qring )?(\w+) = ", 7),
], ids=["macaulay2", "singular"])
def test_emit_cas_names_avoid_the_variables(dialect, ring_line, assignment, count):
    """Variables named like every script name, like T and like a y name: no
    name the script assigns equals a variable of the ring it builds."""
    spec = parse_session("field QQ\nvars kk, S, IM, J, H, P, HG, G, T, y1\n"
                         "base: S*J - H^2\nq: kk, S, H\na: kk\n")
    script = emit_cas_script(spec, dialect)
    variables = set(re.search(ring_line, script, re.M).group(1).split(", "))
    assert set(spec.variables) < variables
    assigned = set(re.findall(assignment, script, re.M))
    assert len(assigned) == count
    assert not assigned & variables


def test_run_command_payload_reuse():
    spec = parse_session(CURVE_TEXT)
    payload = run_command("cm-check", spec)
    text = emit_report(payload)
    assert json.loads(text)["verdict"] == "not-cohen-macaulay"
    # full-report is an alias of cm-check
    full = run_command("full-report", spec)
    full.pop("timings"), payload.pop("timings")
    assert full == payload


@pytest.mark.parametrize("command", ["cm-check", "lzero", "full-report"])
def test_json_report_is_independent_of_hash_seed(command, tmp_path):
    """Per-run caches must not let set or dict iteration order leak into output.

    The demo curve's levels read level chains; the graded session's read the
    shared colon sequence, which changes at l = 1 and 2.  Both derive their
    flags from sets of basis elements.
    """
    root = Path(__file__).resolve().parent.parent
    graded = tmp_path / "graded.fc"
    graded.write_text("field QQ\nvars x, y, z\nbase: x^2*y, x*z^2\nq: x, y, z\na: x\n",
                      encoding="utf-8")
    for path in (root / "demos" / "semigroup_curve.fc", graded):
        code = ("import sys; from formcone.cli import main; "
                f"sys.exit(main([{command!r}, {str(path)!r}, '--json']))")
        reports = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"),
                                                                os.environ.get("PYTHONPATH")])))
            done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            report = json.loads(done.stdout)
            report.pop("timings")
            reports.append(report)
        assert reports[0] == reports[1], path.name


def test_python_dash_m_runs_the_cli(curve_file):
    """``python -m formcone`` is the same entry point as the ``formcone`` script."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "formcone", "cm-check", str(curve_file),
                           "--json"], cwd=root, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert (report["verdict"], report["depth"], report["dim"]) == ("not-cohen-macaulay", 0, 1)
    done = subprocess.run([sys.executable, "-m", "formcone", "cm-check",
                           str(curve_file.with_name("missing.fc"))],
                          cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 2 and "cannot read" in done.stderr


def test_cm_check_certificates_replay(corpus):
    """Every certificate of a ``cm-check`` report replays from the context
    and the JSON payload alone, by linear algebra and membership
    (tests/certificates.py), on the demo, the tier-4 inputs and the corpus."""
    root = Path(__file__).resolve().parent.parent
    specs = [parse_session((root / "demos" / "semigroup_curve.fc").read_text(encoding="utf-8"))]
    cases = [(i.ctx, CORPUS_PARAMS) for i in corpus]
    cases += [(ctx, CriterionParams(n_max=2)) for ctx in tier4_contexts()]
    specs += [SessionSpec(ctx.ring.field, ctx.ring.variables, ctx.base_generators,
                          ctx.module_generators, ctx.q_generators,
                          tuple((s.element, None) for s in ctx.system), params)
              for ctx, params in cases]
    checked = 0
    for spec in specs:
        payload = json.loads(emit_report(run_command("cm-check", spec)))
        checked += check_cm_certificates(spec.context(), payload)
    assert len(specs) == 45 and checked > len(specs)


def test_certificate_replay_rejects_a_zero_divisor_above_weight_top():
    """Mutation check of the certificate replay: in the form ring
    k[y1, y2]/(y1*y2^5) of x*y^5, the image y2 of y kills y1*y2^4, of weight
    5.  Injectivity through weight TOP misses that kernel; the replay by
    Hilbert-series numerators rejects y as a depth_sequence element and as a
    regular_sequence element, and a repeated element as well."""
    spec = parse_session("field QQ\nvars x, y\nbase: x*y^5\nq: x, y\na: x + y\n")
    ctx = spec.context()
    payload = json.loads(emit_report(run_command("cm-check", spec)))
    certs = payload["certificates"]
    assert check_cm_certificates(ctx, payload) > 0
    regular = {**certs, "depth_sequence": ["y1 + y2"]}
    assert check_cm_certificates(ctx, {**payload, "certificates": regular}) > 0
    form = ctx.form_presentation()
    assert TOP < 5 and _injective_through(form, form.ring.parse("y2"))
    for mutated in ({**certs, "depth_sequence": ["y2"]},
                    {**certs, "depth_sequence": ["y1 + y2", "y1 + y2"]},
                    {**certs, "regular_sequence": [{"element": "y", "degree": 1}]}):
        with pytest.raises(AssertionError):
            check_cm_certificates(ctx, {**payload, "certificates": mutated})


def test_koszul_depth_witness_replays():
    """x*z, y*z with q = a = z takes the Koszul depth route: the witness
    (0, y, -x) is a cycle at index 2 on the images of x, y and y1, not a
    boundary, so the depth is 3 - 2 = 1.  Its index is in the payload, and
    the replay rejects a wrong index, the boundary d_3(e_123) and a chain
    that is no cycle."""
    spec = parse_session("field QQ\nvars x, y, z\nbase: x*z, y*z\nq: z\na: z\n")
    ctx = spec.context()
    payload = json.loads(emit_report(run_command("cm-check", spec)))
    certs = payload["certificates"]
    assert (certs["depth_method"], certs["depth_witness"], certs["depth_witness_index"]) == (
        "koszul", ["0", "y", "-x"], 2)
    assert check_cm_certificates(ctx, payload) > 0
    for mutated in ({**certs, "depth_witness_index": 1},
                    {**certs, "depth_witness": ["y1", "-y", "x"]},
                    {**certs, "depth_witness": ["0", "y", "x"]}):
        with pytest.raises(AssertionError):
            check_cm_certificates(ctx, {**payload, "certificates": mutated})


def test_a_base_away_from_the_origin_makes_the_variable_ideal_improper(tmp_path, capsys):
    """q = (x, y) with I_A = (x - 1): q + I_A = I_A + m is the unit ideal,
    read off I_A's generators with no basis run, and refused as before."""
    path = tmp_path / "away.fc"
    path.write_text("field QQ\nvars x, y\nbase: x - 1\nq: x, y\na: y\n", encoding="utf-8")
    assert main(["gb", str(path)]) == 2
    assert "filtration ideal is not proper" in capsys.readouterr().err
