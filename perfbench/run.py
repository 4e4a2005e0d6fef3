"""formcone benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload corpus41 --seed 20260810 --seconds 30 --trace 0

Run from the repository root; formcone is imported from ``src/``.  The
workloads (``corpus41``, ``tier4``, ``cli_curve``) are described in
``perfbench/README.md``.  Every item's outputs are checked against
``reference.json``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a separate traced run.  The run is single-threaded and starts no
other process.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import pkgutil
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
TRACE_DIR = ROOT / ".bench_out"

WORKLOADS = ("corpus41", "tier4", "cli_curve")
# Every run makes at least this many passes.  The tail percentile is fixed
# from the sample count these guarantee, so a faster program that fits more
# passes in a run reports the same percentile.
MIN_PASSES = {"corpus41": 2, "tier4": 7, "cli_curve": 6}
SETUP_REPS = 15


def fresh_import():
    """Import formcone and every module of it from scratch: set-up time
    includes the import, and the tracer finds every module loaded (a module
    first imported under the tracer would bind its wrappers for good)."""
    for name in [n for n in sys.modules if n == "formcone" or n.startswith("formcone.")]:
        del sys.modules[name]
    fc = importlib.import_module("formcone")
    for module in pkgutil.iter_modules(fc.__path__):
        importlib.import_module(f"formcone.{module.name}")
    return fc


# A quiet machine runs ``probe`` in about this many seconds (x86-64, Python
# 3.11); times are reported at that speed.
PROBE_REFERENCE_S = 0.0009
# probes taken just before and just after every timed unit
BRACKET = 8
# seconds between the probes taken while a unit runs
TICK_S = 0.025

_MONOS = [(i % 5, (i // 5) % 4, i % 3, i % 2) for i in range(40)]


def probe() -> float:
    """Seconds for a fixed loop of the work formcone's engine does, without
    formcone: Fraction arithmetic, exponent tuples added pairwise, a dict of
    terms.  It shows how fast the processor runs this interpreter now."""
    started = time.perf_counter()
    terms: dict = {}
    c = Fraction(3, 7)
    for j, m in enumerate(_MONOS):
        for k in range(0, 40, 7):
            e = tuple(a + b for a, b in zip(m, _MONOS[k]))
            terms[e] = terms.get(e, 0) + c * (j - k)
    return time.perf_counter() - started


class Meter:
    """Times units of work and how fast the processor ran meanwhile.

    On a shared machine the same code can run up to twice as slow, in CPU
    time as much as in wall time, and the speed changes within a second.
    So ``BRACKET`` probes run just before and just after a unit, and, if
    ``ticking``, a timer signal runs one more every ``TICK_S`` seconds
    inside it; the time those take is taken off the unit's time.  The unit's
    time is then scaled by ``PROBE_REFERENCE_S`` over the median probe (a
    probe the scheduler cut into reads far too slow, and would sway a mean):
    times are reported in seconds at the speed of a quiet machine.  The reference
    is a constant, not taken from the run, so a run that never gets quiet
    reads the same as one that does.  The traced run does not tick, so that
    the probes stay out of span times.
    """

    def __init__(self, ticking: bool = True):
        self.ticking = ticking
        self.probes: list[float] = []
        self._inside: list[float] = []

    def _tick(self, signum, frame):
        self._inside.append(probe())

    def run(self, fn):
        """(fn(), (wall, cpu, scale)): the unit's times, probes taken off,
        and the factor that brings them to the reference speed."""
        around = [probe() for _ in range(BRACKET)]
        inside = self._inside = []
        if self.ticking:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            result = fn()
        finally:
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            spent = sum(inside)  # a tick that runs after this is a probe only
            if self.ticking:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        around += [probe() for _ in range(BRACKET)]
        speeds = around + inside
        self.probes += speeds
        return result, (wall - spent, cpu - spent,
                        PROBE_REFERENCE_S / statistics.median(speeds))


def scaled(sample) -> tuple[float, float]:
    """(wall, cpu) of a sample at the reference speed."""
    wall, cpu, scale = sample
    return wall * scale, cpu * scale


def attempt(fc, item, ready) -> tuple[bool, object]:
    """(True, what the item produced) or (False, the traceback it raised)."""
    try:
        if ready is None:
            raise RuntimeError("input did not build")
        return True, item.run(fc, ready)
    except Exception:  # an item that raises counts as failed; the run goes on
        return False, traceback.format_exc(limit=4)


def run_pass(fc, items, built, reference: dict, meter: Meter, tracer=None) -> dict:
    """Run every item once, traced if a tracer is given; time each item, then
    check the outputs untimed and untraced."""
    produced = []
    samples = []
    if tracer is not None:
        tracer.install()
    started = time.perf_counter()
    for idx, (item, ready) in enumerate(zip(items, built)):
        if tracer is not None:
            tracer.item = idx
        outcome, sample = meter.run(lambda: attempt(fc, item, ready))
        produced.append(outcome)
        samples.append(sample)
    wall = time.perf_counter() - started
    if tracer is not None:
        tracer.uninstall()

    failures = [f"{item.name}: {why}" for item, (ok, value) in zip(items, produced)
                if (why := mismatch(item, ok, value, reference.get(item.key)))]
    spans = tracer.take() if tracer is not None else None
    return {"wall": wall, "samples": samples, "failures": failures, "spans": spans}


def mismatch(item, ok: bool, value, expected: dict | None) -> str | None:
    """Why an item failed, or None when its outputs match the reference."""
    if not ok:
        return value.strip().splitlines()[-1]
    if expected is None or not expected["valid"]:
        return "no reference output for this input"
    try:
        got = item.outputs(value)
    except Exception as exc:  # unreadable output is a failed item, not a crash
        return f"outputs unreadable: {exc!r}"
    if got == expected["out"]:
        return None
    keys = sorted(k for k in set(got) | set(expected["out"])
                  if got.get(k) != expected["out"].get(k))
    return f"outputs differ from the reference in {keys}"


def fresh_contexts(fc, items) -> list:
    built = [item.build(fc) for item in items]
    gc.collect()  # garbage of the previous pass is not this pass's cost
    return built


def middle(values) -> float:
    """The median, taken as the mean of the middle fifth of ``values`` (40th
    to 60th percentile).  Neighbouring items differ by 5 to 10 % around the
    median of ``corpus41``, so a plain median jumps by that much when noise
    swaps two of them; this one moves by a fifth as much."""
    ordered = sorted(values)
    n = len(ordered)
    return statistics.fmean(ordered[math.floor(0.4 * n):math.ceil(0.6 * n)])


def tail(samples: list[float], guaranteed: int) -> tuple[int, float, int]:
    """(p, value, beyond): the highest whole percentile with at least ten
    samples beyond it for ``guaranteed`` samples, read by nearest rank."""
    p = 100 * (guaranteed - 10) // guaranteed
    ordered = sorted(samples)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return p, ordered[rank - 1], len(ordered) - rank


def setup(items):
    fc = fresh_import()
    for item in items:
        item.build(fc)
    return fc


def end_to_end(workload: str, seed: int, seconds: float, reference: dict):
    items = workloads.items(workload, seed, reference)
    meter = Meter()
    setups = []
    for _ in range(SETUP_REPS):
        fc, sample = meter.run(lambda: setup(items))
        setups.append(sample)

    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        passes.append(run_pass(fc, items, fresh_contexts(fc, items), reference[workload], meter))
        expected = statistics.median(p["wall"] for p in passes)
        if len(passes) >= MIN_PASSES[workload] and time.perf_counter() + expected > deadline:
            break

    per_pass = [[scaled(s) for s in p["samples"]] for p in passes]
    item_s = [wall for pass_ in per_pass for wall, _ in pass_]
    pct, tail_s, beyond = tail(item_s, MIN_PASSES[workload] * len(items))
    failures = [f for p in passes for f in p["failures"]]
    raw_pass = statistics.median(sum(s[0] for s in p["samples"]) for p in passes)
    metrics = {
        "pass_s": (statistics.median(sum(w for w, _ in sc) for sc in per_pass), "s",
                   f"median of {len(passes)} passes; unscaled {raw_pass:.3f} s"),
        "pass_cpu_s": (statistics.median(sum(c for _, c in sc) for sc in per_pass), "s",
                       f"median of {len(passes)} passes"),
        "item_s_p50": (middle(statistics.median(w for w, _ in item) for item in zip(*per_pass)),
                       "s", f"middle fifth of the items' medians; {len(item_s)} samples"),
        "item_s_tail": (tail_s, "s", f"p{pct} of {len(item_s)} samples, {beyond} beyond it"),
        "setup_s": (statistics.median(scaled(s)[0] for s in setups), "s",
                    f"median of {SETUP_REPS} set-ups"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "whole process"),
    }
    print(f"{workload}: seed {seed}, {len(passes)} passes of {len(items)} items; "
          f"probe reference {PROBE_REFERENCE_S * 1e3:.3f} ms, "
          f"median {statistics.median(meter.probes) * 1e3:.3f} ms")
    for name, (value, unit, how) in metrics.items():
        print(f"  {name:<12} {value:12.6f} {unit:<3} ({how})")
    print(f"  {'fail_ratio':<12} {len(failures) / len(item_s):12.6f}     "
          f"({len(failures)} of {len(item_s)} items failed)")
    return len(item_s), failures, [], {k: (v, u) for k, (v, u, _) in metrics.items()}


def traced(workload: str, seed: int, reference: dict):
    """Traced, untraced, traced: the traced passes' counts must agree, and
    the untraced pass between them gives the tracing overhead."""
    items = workloads.items(workload, seed, reference)
    fc = fresh_import()
    tracer = tracing.Tracer()
    meter = Meter(ticking=False)
    passes = [run_pass(fc, items, fresh_contexts(fc, items), reference[workload], meter,
                       tracer if traced_pass else None)
              for traced_pass in (True, False, True)]
    walls = [sum(scaled(s)[0] for s in p["samples"]) for p in passes]
    runs = passes[::2]
    tracer.write(TRACE_DIR / f"trace-{workload}-seed{seed}.jsonl",
                 [r["spans"] for r in runs], [item.name for item in items])

    layers = [tracing.layer_metrics(tracer.names, r["spans"]) for r in runs]
    problems = []
    counts, _ = layers[0]
    other, _ = layers[1]
    for name in counts:
        if other[name] != counts[name]:
            problems.append(f"trace: {name} is {counts[name]} in the first traced pass "
                            f"but {other[name]} in the second")
    metrics = {name: (value, "ratio" if name.endswith("hit_ratio") else "count")
               for name, value in counts.items()}
    for name in layers[0][1]:
        metrics[name] = (statistics.median(s[name] for _, s in layers), "s")
    overhead = statistics.median(walls[::2]) - walls[1]
    metrics["trace.overhead_s"] = (overhead, "s")
    print(f"{workload}: seed {seed}, traced/untraced/traced passes of {len(items)} items, "
          f"scaled walls " + " ".join(f"{w:.3f}" for w in walls)
          + f", {len(runs[0]['spans'])} spans per traced pass")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<56} {value:14.6f} {unit}")
    failures = [f for p in passes for f in p["failures"]]
    return len(items) * len(passes), failures, problems, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "formcone" / "__init__.py").is_file():
        print(f"error: no formcone sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))

    if args.trace:
        attempted, failures, problems, metrics = traced(args.workload, args.seed, reference)
    else:
        attempted, failures, problems, metrics = end_to_end(
            args.workload, args.seed, args.seconds, reference)
    if args.workload == "corpus41" and args.seed == workloads.DEFAULT_SEED:
        names = [item.name for item in workloads.items("corpus41", args.seed, reference)]
        if names != reference["corpus41_default_names"]:
            problems.append("corpus41: the default seed no longer gives the test corpus")
    for line in (problems + failures)[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not (failures or problems),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
