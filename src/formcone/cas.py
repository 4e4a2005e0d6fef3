"""Emit cross-validation scripts for external computer-algebra systems.

The scripts recompute the associated-graded presentation by the same tag
elimination, then its dimension and depth, so an independent system can
confirm the verdicts.  This module only writes text; nothing external is ever
executed.
"""

from __future__ import annotations

from .errors import ValidationError
from .session import SessionSpec

DIALECTS = ("macaulay2", "singular")
# the names the scripts assign; the Singular script does not use "kk"
SCRIPT_NAMES = ("kk", "S", "IM", "J", "H", "P", "HG", "G")


def _names(spec: SessionSpec):
    """The Rees variables y1, y2, ..., the tag T, and the script's own names.

    Each script name is the ring's fresh name for its stem, checked against
    the variables, the y names and T, so no assignment rebinds a variable.
    """
    ring = spec.ring
    y_names = ring.fresh_names("y", len(spec.q))
    t_name = ring.fresh_name("T")
    taken = ring.extend(y_names + [t_name])
    return y_names, t_name, [taken.fresh_name(stem) for stem in SCRIPT_NAMES]


def emit_cas_script(spec: SessionSpec, dialect: str = "macaulay2") -> str:
    if dialect == "macaulay2":
        return _macaulay2(spec)
    if dialect == "singular":
        return _singular(spec)
    raise ValidationError(f"unsupported dialect {dialect!r}; known: {', '.join(DIALECTS)}")


def _macaulay2(spec: SessionSpec) -> str:
    y_names, t_name, (kk, s, im, j, h, p, hg, g) = _names(spec)
    field = "QQ" if spec.field.is_rationals else f"ZZ/{spec.field.characteristic}"
    xs = ", ".join(spec.variables)
    ys = ", ".join(y_names)
    im_gens = [str(f) for f in spec.base + spec.module] or ["0"]
    rees_rels = [f"{y} - ({f})*{t_name}" for y, f in zip(y_names, spec.q)]
    q_gens = ", ".join(str(f) for f in spec.q)
    lines = [
        "-- cross-validation script (emitted, never executed by the library)",
        f"{kk} = {field};",
        f"{s} = {kk}[{xs}, {ys}, {t_name}];",
        f"{im} = ideal({', '.join(im_gens)});",
        f"{j} = {im} + ideal({', '.join(rees_rels)});",
        f"{h} = eliminate({t_name}, {j});",
        f"{p} = {kk}[{xs}, {ys}, Degrees => {{{len(spec.variables)}:0, {len(y_names)}:1}}];",
        f"{hg} = sub({h}, {p}) + sub(ideal({q_gens}), {p});",
        f"{g} = {p} / {hg};",
        f"<< \"form ideal: \" << toString gens gb {hg} << endl;",
        f"<< \"dim: \" << dim {g} << endl;",
        "needsPackage \"Depth\";",
        f"<< \"depth: \" << depth {g} << endl;",
    ]
    return "\n".join(lines) + "\n"


def _singular(spec: SessionSpec) -> str:
    y_names, t_name, (_, s, im, j, h, p, hg, g) = _names(spec)
    char = 0 if spec.field.is_rationals else spec.field.characteristic
    xs = ", ".join(spec.variables)
    ys = ", ".join(y_names)
    im_gens = [str(f) for f in spec.base + spec.module] or ["0"]
    rees_rels = [f"{y} - ({f})*{t_name}" for y, f in zip(y_names, spec.q)]
    q_gens = ", ".join(str(f) for f in spec.q)
    lines = [
        "// cross-validation script (emitted, never executed by the library)",
        f"ring {s} = {char}, ({xs}, {ys}, {t_name}), dp;",
        f"ideal {im} = {', '.join(im_gens)};",
        f"ideal {j} = {im}, {', '.join(rees_rels)};",
        "LIB \"elim.lib\";",
        f"ideal {h} = elim({j}, {t_name});",
        f"ring {p} = {char}, ({xs}, {ys}), dp;",
        f"ideal {hg} = imap({s}, {h});",
        f"{hg} = {hg} + ideal({q_gens});",
        f"{hg} = std({hg});",
        f"print(\"form ideal:\"); print({hg});",
        f"print(\"dim:\"); print(dim({hg}));",
        "LIB \"homolog.lib\";",
        f"qring {g} = {hg};",
        "print(\"depth:\"); print(depth(std(0)));",
    ]
    return "\n".join(lines) + "\n"
