"""Write perfbench/reference.json: the outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Run from the repository root, at a commit whose outputs are trusted.  It
records every recipe a seed can put into ``corpus41`` (the hand-picked ones
and the whole randomized pool), the ``tier4`` inputs and the ``cli_curve``
commands, and checks that the default seed gives the same instance names as
``tests/corpus.py::build_corpus``.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE, ROOT, fresh_import
import workloads


# values checked by hand: (cm, depth, dim, grade, first nonvanishing level)
TIER4_EXPECTED = {
    "curve_t6_t7_t11_t15;a=x": (False, 0, 1, 0, 2),
    "twisted_cubic_cone;a=x,w": (True, 2, 2, 2, None),
    "twisted_cubic_cone;a=x": (True, 2, 2, 1, None),
}


def record(fc, item) -> dict:
    ready = item.build(fc)
    if ready is None:
        return {"valid": False}
    return {"valid": True, "out": item.outputs(item.run(fc, ready))}


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    fc = fresh_import()
    from corpus import build_corpus

    corpus = {}
    for recipe in workloads.HAND_PICKED + workloads.random_pool():
        key = workloads.recipe_key(recipe)
        if key not in corpus:
            corpus[key] = record(fc, workloads.PipelineItem(key, recipe, workloads.CORPUS_PARAMS))
    reference = {"corpus41": corpus}
    names = [item.name for item in workloads.items("corpus41", workloads.DEFAULT_SEED, reference)]
    expected = [inst.name for inst in build_corpus()]
    if names != expected:
        print("error: the default seed does not reproduce tests/corpus.py", file=sys.stderr)
        return 1
    reference["corpus41_default_names"] = names
    for workload in ("tier4", "cli_curve"):
        reference[workload] = {item.key: record(fc, item)
                               for item in workloads.items(workload, 0, reference)}
    for name, recipe in workloads.TIER4:
        out = reference["tier4"][workloads.recipe_key(recipe)]["out"]
        first = next((n for n, v in enumerate(out["vanishing"]) if not v), None)
        got = (out["cm"], out["depth"], out["dim"], out["grade_direct"], first)
        if got != TIER4_EXPECTED[name]:
            print(f"error: {name} gives {got}, expected {TIER4_EXPECTED[name]}", file=sys.stderr)
            return 1
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}: {sum(v['valid'] for v in corpus.values())} corpus recipes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
