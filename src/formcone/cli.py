"""Command-line front end: ``formcone <command> <file> [--json] [--set k=v ...]``.

Exit codes: 0 mathematical success, 2 input error (also an unreadable or
non-UTF-8 file), 3 budget exhaustion, 1 internal consistency failure.  JSON
reports have a fixed key order and are byte-identical across runs except for
the ``timings`` field.  ``gb``, ``formring`` and ``hilbert`` build payloads
of their own, the report commands fill their keys of the one ``_schema``
(``full-report`` is ``cm-check``), and ``emit-cas`` builds no context;
``COMMANDS``, and so the argparse choices, are read off the dispatch table.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields, replace

from .cas import DIALECTS, emit_cas_script
from .criterion import (
    CriterionParams,
    DefectRecord,
    checked_depth,
    checked_dim,
    checked_grades,
    cohen_macaulay_report,
    defect_scan,
)
from .errors import (
    BudgetExceededError,
    ConsistencyError,
    DegenerateSystemError,
    InfiniteComponentError,
    ParseError,
    RingMismatchError,
    ValidationError,
)
from .filtration import FiltrationContext
from .graded import GradedElement, GradeReport, KoszulWitness, hilbert_function
from .session import SessionSpec, apply_setting, parse_session

_INPUT_ERRORS = (ParseError, ValidationError, DegenerateSystemError, RingMismatchError,
                 InfiniteComponentError)


def _table_row(rec: DefectRecord) -> dict:
    return {
        "n": rec.n,
        "vanishing": rec.vanishing,
        "stabilized_l": rec.stabilized_l,
        "certified": rec.certified,
        "generators": [str(g) for g in rec.quotient_generators],
    }


def _params_dict(params: CriterionParams) -> dict:
    out = {}
    for f in fields(CriterionParams):
        value = getattr(params, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


_SCHEMA_KEYS = ("verdict", "depth", "dim", "grade", "sop", "lzero_table", "band",
                "certificates")


def _schema(params: CriterionParams, values: dict, started: float) -> dict:
    """The one report schema: a command's values, None for the keys it does
    not fill, its wall time since ``started`` and the parameters."""
    payload = {key: values.get(key) for key in _SCHEMA_KEYS}
    payload["timings"] = {"seconds": time.perf_counter() - started}
    payload["parameters"] = _params_dict(params)
    return payload


def _regular_sequence(certificate) -> list[dict]:
    return [{"element": str(s.element), "degree": s.degree} for s in certificate]


def _depth_certificates(report: GradeReport) -> dict:
    """The depth route, its regular sequence, and its witness with the
    witness's homological index (null when there is none): the same keys in
    every report.  The witness is a Koszul cycle at that index on the
    generators that survive in the quotient by the sequence."""
    cert = report.certificate
    witnesses = [w for w in cert if isinstance(w, KoszulWitness)]
    return {
        "depth_method": report.method,
        "depth_sequence": [str(e.representative) for e in cert if isinstance(e, GradedElement)],
        "depth_witness": [str(p) for w in witnesses for p in w.cycle],
        "depth_witness_index": witnesses[0].index if witnesses else None,
    }


def _gb(ctx: FiltrationContext, params: CriterionParams) -> dict:
    return {"ring": str(ctx.ring),
            "generators": [str(g) for g in ctx.ideal_m.groebner().generators]}


def _formring(ctx: FiltrationContext, params: CriterionParams) -> dict:
    pres = ctx.form_presentation()
    payload = {
        "presentation_ring": str(pres.ring),
        "weights": list(pres.weights),
        "ideal": [g.to_string(pres.order) for g in pres.groebner().generators],
    }
    try:
        payload["cone"] = [str(g) for g in ctx.variable_cone().ideal.groebner().generators]
    except ValidationError:  # the presentation has no variable cone
        pass
    return payload


def _hilbert(ctx: FiltrationContext, params: CriterionParams) -> dict:
    values = hilbert_function(ctx.form_presentation(), params.n_max)
    return {"upto": params.n_max, "values": values}


def _dim(ctx: FiltrationContext, params: CriterionParams) -> dict:
    return {"dim": checked_dim(ctx)}


def _depth(ctx: FiltrationContext, params: CriterionParams) -> dict:
    report = checked_depth(ctx)
    return {"depth": int(report.value), "dim": checked_dim(ctx),
            "certificates": _depth_certificates(report)}


def _lzero(ctx: FiltrationContext, params: CriterionParams) -> dict:
    scan = defect_scan(ctx, params)
    return {
        "verdict": "all-vanish" if scan.all_vanish
        else f"nonvanishing at n={scan.first_nonvanishing}",
        "lzero_table": [_table_row(r) for r in scan.records],
        "certificates": {"statuses": [r.status for r in scan.records],
                         "local_model_mismatch": ctx.local_model_mismatch},
    }


def _grade(ctx: FiltrationContext, params: CriterionParams) -> dict:
    direct, recursion = checked_grades(ctx)
    return {"grade": int(direct.value),
            "certificates": {"regular_sequence": _regular_sequence(recursion.certificate)}}


def _cm_check(ctx: FiltrationContext, params: CriterionParams) -> dict:
    report = cohen_macaulay_report(ctx, params)
    return {
        "verdict": "cohen-macaulay" if report.cm_verdict else "not-cohen-macaulay",
        "depth": report.depth,
        "dim": report.dim,
        "grade": report.grade_direct,
        "sop": report.sop_flag,
        "lzero_table": [_table_row(r) for r in report.lzero_table],
        "band": list(report.predicted_band),
        "certificates": {
            "regular_sequence": _regular_sequence(report.recursion_report.certificate),
            **_depth_certificates(report.depth_report),
            "lzero_statuses": [r.status for r in report.lzero_table],
            "notes": list(report.notes),
        },
    }


# the dispatch table: commands with a payload of their own, then the report
# commands, each of which fills its keys of the one schema; emit-cas builds no
# context and comes last
_PAYLOADS = {"gb": _gb, "formring": _formring, "hilbert": _hilbert}
_SCHEMA_COMMANDS = {"dim": _dim, "depth": _depth, "lzero": _lzero, "grade": _grade,
                    "cm-check": _cm_check, "full-report": _cm_check}
COMMANDS = (*_PAYLOADS, *_SCHEMA_COMMANDS, "emit-cas")


def run_command(command: str, spec: SessionSpec, dialect: str = "macaulay2") -> dict:
    """Execute one command and return the report payload (JSON-ready dict)."""
    started = time.perf_counter()
    if command == "emit-cas":
        return {"command": "emit-cas", "dialect": dialect, "script": emit_cas_script(spec, dialect)}
    if command in _PAYLOADS:
        return {"command": command, **_PAYLOADS[command](spec.context(), spec.params)}
    if command in _SCHEMA_COMMANDS:
        return _schema(spec.params, _SCHEMA_COMMANDS[command](spec.context(), spec.params),
                       started)
    raise ValidationError(f"unknown command {command!r}")


def emit_report(payload: dict) -> str:
    """Stable-order JSON text for a payload produced by run_command."""
    return json.dumps(payload, indent=2, ensure_ascii=True)


def _render_human(payload: dict) -> str:
    lines = []
    if payload.get("command") == "emit-cas":
        return payload["script"]
    if "command" in payload:
        for key, value in payload.items():
            if key == "command":
                continue
            if isinstance(value, list):
                lines.append(f"{key}:")
                lines.extend(f"  {item}" for item in value)
            else:
                lines.append(f"{key}: {value}")
        return "\n".join(lines) + "\n"
    for key in ("verdict", "depth", "dim", "grade", "sop", "band"):
        if payload.get(key) is not None:
            lines.append(f"{key}: {payload[key]}")
    table = payload.get("lzero_table")
    if table:
        lines.append("level table (n / vanishing / stabilized_l / certified / generators):")
        for row in table:
            gens = ", ".join(row["generators"]) or "-"
            lines.append(
                f"  {row['n']:>3}  {str(row['vanishing']):<5}  {row['stabilized_l']:>2}  "
                f"{str(row['certified']):<5}  {gens}"
            )
    for key, value in (payload.get("certificates") or {}).items():
        if key == "notes":
            lines.extend(f"note: {note}" for note in value)
            continue
        if key == "regular_sequence":
            value = [f"{item['element']} (degree {item['degree']})" for item in value]
        if isinstance(value, list):
            value = ", ".join(str(item) for item in value) or "-"
        lines.append(f"{key.replace('_', ' ')}: {value}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formcone",
        description="Exact associated-graded computations and the Cohen-Macaulay check.",
        epilog=(
            "exit codes: 0 success, 2 input error, 3 budget exhaustion, 1 internal failure. "
            f"parameter defaults: {_params_dict(CriterionParams())}"
        ),
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("file", help="input file in the session DSL")
    parser.add_argument("--json", action="store_true", help="machine-readable JSON report")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="key=value", help="override a scan/search parameter")
    parser.add_argument("--dialect", choices=DIALECTS, default="macaulay2",
                        help="target system for emit-cas")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    try:
        spec = parse_session(text)
        for item in args.overrides:
            spec = replace(spec, params=apply_setting(spec.params, item))
        payload = run_command(args.command, spec, dialect=args.dialect)
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(emit_report(payload))
    else:
        sys.stdout.write(_render_human(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
