import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from formcone.cas import emit_cas_script
from formcone.cli import emit_report, main, run_command
from formcone.session import parse_session

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
    code = main(["gb", str(curve_file), "--set", "step_budget=2"])
    assert code == 3
    assert "budget" in capsys.readouterr().err


def test_bad_override_rejected(curve_file, capsys):
    assert main(["gb", str(curve_file), "--set", "nonsense=3"]) == 2


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


def test_run_command_payload_reuse():
    spec = parse_session(CURVE_TEXT)
    payload = run_command("cm-check", spec)
    text = emit_report(payload)
    assert json.loads(text)["verdict"] == "not-cohen-macaulay"


def test_json_report_is_independent_of_hash_seed():
    """Per-run caches must not let set or dict iteration order leak into output."""
    root = Path(__file__).resolve().parent.parent
    code = ("import sys; from formcone.cli import main; "
            "sys.exit(main(['cm-check', 'demos/semigroup_curve.fc', '--json']))")
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
    assert reports[0] == reports[1]
