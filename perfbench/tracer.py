"""Outside-in tracer: spans around formcone's public functions and methods.

The program has no tracing of its own, so this module replaces every public
function of the ``formcone.*`` modules with a timing wrapper, at every
binding (``criterion`` imports ``koszul_grade`` from ``graded``, and the
package re-exports most names, so patching only the defining module would
miss calls), and wraps public methods on their classes.  ``rings`` and
``errors`` get no spans: ring arithmetic runs millions of times and a wrapper
there would mostly time itself; its cost shows up as self time of the
``groebner`` spans.

A span is ``[name_id, start, end, parent, item, note]``; ``note`` holds what a
hook read from the arguments or the result.  Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

SKIPPED_MODULES = ("formcone.rings", "formcone.errors")
# constructors that get a span; other __init__ methods build plain values
TRACED_INITS = ("FiltrationContext", "MembershipLifter")


def _buchberger_note(args, kwargs, result):
    from formcone.groebner import FreeModuleElement

    gens = args[0] if args else kwargs["gens"]
    is_module = any(isinstance(g, FreeModuleElement) for g in gens)
    return (is_module, len(gens), len(result.generators))


def _defect_note(args, kwargs, result):
    return (result.stabilized_l, result.status == "budget")


def _recursion_note(args, kwargs, result):
    return int(result.value)


HOOKS = {
    "groebner.buchberger": _buchberger_note,
    "criterion.defect_at": _defect_note,
    "criterion.grade_by_recursion": _recursion_note,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.item = -1
        self._stack: list[int] = []
        self._installed: list[tuple] | None = None

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[5] = hook(args, kwargs, result)
            return result

        return wrapper

    def _patches(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every traced binding."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "formcone" or n.startswith("formcone.")) and m is not None]
        out = []
        wrapped: dict[int, object] = {}
        for mod in modules:
            if mod.__name__ in SKIPPED_MODULES:
                continue
            short = mod.__name__.split(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__ or attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType):
                    wrapped[id(obj)] = self._wrap(obj, f"{short}.{attr}")
                elif isinstance(obj, type):
                    for meth, fn in vars(obj).items():
                        if not isinstance(fn, types.FunctionType):
                            continue
                        if meth.startswith("_") and not (meth == "__init__"
                                                          and attr in TRACED_INITS):
                            continue
                        out.append((obj, meth, fn, self._wrap(fn, f"{short}.{attr}.{meth}")))
        for mod in modules:
            for attr, obj in vars(mod).items():
                if isinstance(obj, types.FunctionType) and id(obj) in wrapped:
                    out.append((mod, attr, obj, wrapped[id(obj)]))
        return out

    def install(self) -> None:
        """Put the wrappers in place; the first call decides what is traced."""
        if self._installed is None:
            self._installed = self._patches()
        for owner, attr, _, wrapper in self._installed:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._installed):
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        """The spans recorded so far; the tracer starts a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out

    def write(self, path, passes: list[list[list]], item_names: list[str]) -> None:
        """One JSON line of names, then one line per span: pass, name, start,
        end, parent, item, note."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"names": self.names, "items": item_names}) + "\n")
            for k, spans in enumerate(passes):
                for name_id, start, end, parent, item, note in spans:
                    out.write(json.dumps([k, self.names[name_id], start, end, parent,
                                          item, note]) + "\n")


def layer_metrics(names: list[str], spans: list[list]) -> tuple[dict, dict]:
    """Per-layer (counts, seconds) from one pass's spans.

    ``self`` time is a span's duration minus its direct children's; a call
    "hits" a cache when it has no child span.
    """
    child_time = [0.0] * len(spans)
    has_child = [False] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            has_child[parent] = True

    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    hits: dict[str, int] = {}
    notes: dict[str, list] = {}
    candidates = 0
    for i, (name_id, start, end, parent, _, note) in enumerate(spans):
        name = names[name_id]
        if name == "groebner.buchberger" and note and note[0]:
            name = "groebner.buchberger_module"
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child_time[i]
        if not has_child[i]:
            hits[name] = hits.get(name, 0) + 1
        # a defect_at hit returns a record already counted when it was made
        if note is not None and (has_child[i] or name != "criterion.defect_at"):
            notes.setdefault(name, []).append(note)
        if name == "filtration.FiltrationContext.initial_degree" and parent >= 0:
            candidates += names[spans[parent][0]] == "criterion.find_regular_lift"

    def n(name):
        return calls.get(name, 0)

    def ratio(name):
        return hits.get(name, 0) / n(name) if n(name) else 0.0

    lifter = ("groebner.MembershipLifter.__init__", "groebner.MembershipLifter.lift")
    ideal_notes = notes.get("groebner.buchberger", [])
    defect_misses = notes.get("criterion.defect_at", [])
    counts = {
        "groebner.buchberger.calls": n("groebner.buchberger"),
        "groebner.buchberger.gens_in": sum(x[1] for x in ideal_notes),
        "groebner.buchberger.basis_out": sum(x[2] for x in ideal_notes),
        "groebner.buchberger_module.calls": n("groebner.buchberger_module"),
        "groebner.syzygy_basis.calls": n("groebner.syzygy_basis"),
        "groebner.normal_form.calls": n("groebner.normal_form"),
        "groebner.MembershipLifter.calls": sum(n(x) for x in lifter),
        "groebner.exact_divide.calls": n("groebner.exact_divide"),
        "ideals.PresentedIdeal.intersect.calls": n("ideals.PresentedIdeal.intersect"),
        "ideals.PresentedIdeal.colon.calls": n("ideals.PresentedIdeal.colon"),
        "ideals.PresentedIdeal.groebner.calls": n("ideals.PresentedIdeal.groebner"),
        "ideals.PresentedIdeal.groebner.hit_ratio": ratio("ideals.PresentedIdeal.groebner"),
        "filtration.FiltrationContext.power_colon.calls":
            n("filtration.FiltrationContext.power_colon"),
        "filtration.FiltrationContext.power_colon.hit_ratio":
            ratio("filtration.FiltrationContext.power_colon"),
        "filtration.FiltrationContext.quotient_by_element.calls":
            n("filtration.FiltrationContext.quotient_by_element"),
        "filtration.FiltrationContext.form_presentation.calls":
            n("filtration.FiltrationContext.form_presentation"),
        "filtration.FiltrationContext.form_presentation.hit_ratio":
            ratio("filtration.FiltrationContext.form_presentation"),
        "graded.koszul_grade.calls": n("graded.koszul_grade"),
        "graded.is_regular_element.calls": n("graded.is_regular_element"),
        "criterion.defect_at.calls": n("criterion.defect_at"),
        "criterion.defect_at.hit_ratio": ratio("criterion.defect_at"),
        "criterion.defect_at.l_sum": sum(x[0] for x in defect_misses),
        "criterion.defect_at.budget_levels": sum(x[1] for x in defect_misses),
        "criterion.find_regular_lift.candidates": candidates,
        "criterion.grade_by_recursion.steps":
            sum(notes.get("criterion.grade_by_recursion", [])),
    }
    seconds = {
        "groebner.buchberger.self_s": self_s.get("groebner.buchberger", 0.0),
        "groebner.buchberger_module.self_s": self_s.get("groebner.buchberger_module", 0.0),
        "groebner.syzygy_basis.total_s": total.get("groebner.syzygy_basis", 0.0),
        "groebner.normal_form.self_s": self_s.get("groebner.normal_form", 0.0),
        "groebner.MembershipLifter.total_s": sum(total.get(x, 0.0) for x in lifter),
        "groebner.exact_divide.self_s": self_s.get("groebner.exact_divide", 0.0),
        "ideals.PresentedIdeal.intersect.total_s": total.get("ideals.PresentedIdeal.intersect", 0.0),
        "ideals.PresentedIdeal.colon.total_s": total.get("ideals.PresentedIdeal.colon", 0.0),
        "ideals.PresentedIdeal.colon_ideal.total_s":
            total.get("ideals.PresentedIdeal.colon_ideal", 0.0),
        "filtration.FiltrationContext.power_colon.total_s":
            total.get("filtration.FiltrationContext.power_colon", 0.0),
        "filtration.FiltrationContext.form_presentation.total_s":
            total.get("filtration.FiltrationContext.form_presentation", 0.0),
        "filtration.FiltrationContext.graded_image.total_s":
            total.get("filtration.FiltrationContext.graded_image", 0.0),
        "filtration.FiltrationContext.init.total_s":
            total.get("filtration.FiltrationContext.__init__", 0.0),
        "graded.koszul_grade.total_s": total.get("graded.koszul_grade", 0.0),
        "graded.depth.total_s": total.get("graded.depth", 0.0),
        "graded.hilbert_function.total_s": total.get("graded.hilbert_function", 0.0),
        "graded.is_regular_element.total_s": total.get("graded.is_regular_element", 0.0),
        "criterion.defect_at.total_s": total.get("criterion.defect_at", 0.0),
        "criterion.regular_form_exists.total_s": total.get("criterion.regular_form_exists", 0.0),
        "criterion.find_regular_lift.total_s": total.get("criterion.find_regular_lift", 0.0),
        "criterion.grade_by_recursion.total_s": total.get("criterion.grade_by_recursion", 0.0),
        "session.parse_session.total_s": total.get("session.parse_session", 0.0),
        "cli.run_command.total_s": total.get("cli.run_command", 0.0),
    }
    return counts, seconds
