"""Command-line front end: ``formcone <command> <file> [--json] [--set k=v ...]``.

Exit codes: 0 mathematical success, 2 input error, 3 budget exhaustion,
1 internal consistency failure.  JSON reports have a fixed key order and are
byte-identical across runs except for the ``timings`` field.
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
from .criterion import system_images as _system_images
from .errors import (
    BudgetExceededError,
    ConsistencyError,
    DegenerateSystemError,
    InfiniteComponentError,
    ParseError,
    RingMismatchError,
    ValidationError,
)
from .graded import graded_dim, hilbert_function
from .session import PARAM_KEYS, SessionSpec, parse_session

COMMANDS = (
    "gb", "formring", "hilbert", "dim", "depth", "lzero", "grade",
    "cm-check", "full-report", "emit-cas",
)

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


def _schema(params: CriterionParams, *, verdict=None, depth=None, dim=None, grade=None,
            sop=None, lzero_table=None, band=None, certificates=None, timings=None) -> dict:
    return {
        "verdict": verdict,
        "depth": depth,
        "dim": dim,
        "grade": grade,
        "sop": sop,
        "lzero_table": lzero_table,
        "band": band,
        "certificates": certificates,
        "timings": timings,
        "parameters": _params_dict(params),
    }


def run_command(command: str, spec: SessionSpec, dialect: str = "macaulay2") -> dict:
    """Execute one command and return the report payload (JSON-ready dict)."""
    params = spec.params
    started = time.perf_counter()

    if command == "emit-cas":
        return {"command": "emit-cas", "dialect": dialect, "script": emit_cas_script(spec, dialect)}

    ctx = spec.context()

    if command == "gb":
        gb = ctx.ideal_m.groebner()
        return {
            "command": "gb",
            "ring": str(ctx.ring),
            "generators": [str(g) for g in gb.generators],
        }

    if command == "formring":
        pres = ctx.form_presentation()
        payload = {
            "command": "formring",
            "presentation_ring": str(pres.ring),
            "weights": list(pres.weights),
            "ideal": [g.to_string(pres.order) for g in pres.groebner().generators],
        }
        try:
            cone = pres.variable_cone()
            payload["cone"] = [str(g) for g in cone.ideal.groebner().generators]
        except ValidationError:  # the presentation has no variable cone
            pass
        return payload

    if command == "hilbert":
        pres = ctx.form_presentation()
        values = hilbert_function(pres, params.n_max)
        return {"command": "hilbert", "upto": params.n_max, "values": values}

    if command == "dim":
        dim_graded = checked_dim(ctx, ctx.form_presentation())
        return _schema(params, dim=dim_graded,
                       timings={"seconds": time.perf_counter() - started})

    if command == "depth":
        pres = ctx.form_presentation()
        report = checked_depth(ctx, pres)
        return _schema(
            params, depth=int(report.value), dim=graded_dim(pres),
            certificates={"method": report.method,
                          "witness": [str(p) for w in report.certificate for p in w.cycle]
                          if report.certificate else []},
            timings={"seconds": time.perf_counter() - started},
        )

    if command == "lzero":
        scan = defect_scan(ctx, params)
        return _schema(
            params,
            verdict="all-vanish" if scan.all_vanish
            else f"nonvanishing at n={scan.first_nonvanishing}",
            lzero_table=[_table_row(r) for r in scan.records],
            certificates={
                "statuses": [r.status for r in scan.records],
                "local_model_mismatch": ctx.local_model_mismatch,
            },
            timings={"seconds": time.perf_counter() - started},
        )

    if command == "grade":
        pres = ctx.form_presentation()
        direct, recursion = checked_grades(ctx, pres, _system_images(ctx, pres), params)
        return _schema(
            params, grade=int(direct.value),
            certificates={
                "regular_sequence": [
                    {"element": str(s.element), "degree": s.degree}
                    for s in recursion.certificate
                ],
            },
            timings={"seconds": time.perf_counter() - started},
        )

    if command in ("cm-check", "full-report"):
        report = cohen_macaulay_report(ctx, params)
        certificates = {
            "regular_sequence": [
                {"element": str(s.element), "degree": s.degree}
                for s in report.recursion_report.certificate
            ],
            "depth_witness": [
                str(p) for w in report.depth_report.certificate for p in w.cycle
            ] if report.depth_report.certificate else [],
            "lzero_statuses": [r.status for r in report.lzero_table],
            "notes": list(report.notes),
        }
        return _schema(
            params,
            verdict="cohen-macaulay" if report.cm_verdict else "not-cohen-macaulay",
            depth=report.depth,
            dim=report.dim,
            grade=report.grade_direct,
            sop=report.sop_flag,
            lzero_table=[_table_row(r) for r in report.lzero_table],
            band=list(report.predicted_band),
            certificates=certificates,
            timings={"seconds": time.perf_counter() - started},
        )

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
    certs = payload.get("certificates") or {}
    seq = certs.get("regular_sequence")
    if seq:
        lines.append("regular sequence: " + ", ".join(
            f"{item['element']} (degree {item['degree']})" for item in seq))
    if certs.get("depth_witness"):
        lines.append("depth witness: " + ", ".join(certs["depth_witness"]))
    for note in certs.get("notes", ()):
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def _apply_overrides(spec: SessionSpec, overrides: list[str]) -> SessionSpec:
    params = spec.params
    for item in overrides:
        if "=" not in item:
            raise ValidationError(f"--set expects key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in PARAM_KEYS:
            raise ValidationError(
                f"unknown parameter {key!r}; known: {', '.join(sorted(PARAM_KEYS))}"
            )
        try:
            params = replace(params, **{key: int(value)})
        except ValueError:
            raise ValidationError(f"parameter {key} needs an integer value")
    return replace(spec, params=params)


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
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    try:
        spec = parse_session(text)
        spec = _apply_overrides(spec, args.overrides)
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
