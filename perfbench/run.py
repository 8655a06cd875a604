"""weylgb benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload ugb --seed 1 --seconds 10 --trace 0

Workloads (see DESIGN.md): ``ugb`` runs universal_groebner, ``cert`` runs
certify_universal, ``gb`` runs reduce_basis(buchberger(...)).  The run
repeats whole passes of 100 solves until ``--seconds`` have passed; every
solve starts with cold caches, as a fresh ``weylgb`` invocation would.
Outputs are checked after each pass, outside the timing.  Every time
reported is scaled to a reference host speed (see hostspeed.py); the raw
wall-clock figures are printed above the result line.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, and writes
the spans of the last traced pass to ``.bench_trace/``.  The last line of
standard output is one JSON object; the exit code is 0 only if every
output passed its check.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import corpus
from checker import Checker
from hostspeed import SpeedLog
from spans import Tracer, layer_self_times, self_times

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 21  # a third before the timed loop, the rest after it
TAIL_LEVELS = (50, 75, 90, 95, 99, 99.9)
MODULES = ("weyl", "orderings", "parsing", "division", "groebner", "feasibility", "universal")
# lru caches that must start every solve empty
COLD_CACHES = (("weyl", "multiply_monomials"), ("universal", "_realize_cached"))


class BenchmarkError(Exception):
    """The benchmark cannot run in this checkout; no result is printed."""


def import_weylgb():
    """Import weylgb from this checkout's src/, dropping any earlier import."""
    src = ROOT / "src"
    if not (src / "weylgb" / "__init__.py").is_file():
        raise BenchmarkError(f"no weylgb package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "weylgb" or m.startswith("weylgb.")]:
        del sys.modules[name]
    wb = importlib.import_module("weylgb")
    if Path(wb.__file__).resolve().parent != src / "weylgb":
        raise BenchmarkError(f"imported weylgb from {wb.__file__}, not from {src}")
    mods = {name: importlib.import_module(f"weylgb.{name}") for name in MODULES}
    return wb, mods


def cold_caches(mods):
    """The lru caches to clear before each solve; fails if one has moved.

    A renamed cache would otherwise stay warm across solves without notice.
    """
    caches = []
    for mod, attr in COLD_CACHES:
        fn = getattr(mods[mod], attr, None)
        if not (callable(getattr(fn, "cache_clear", None)) and callable(getattr(fn, "cache_info", None))):
            raise BenchmarkError(
                f"weylgb.{mod}.{attr} is not an lru cache any more; update COLD_CACHES in "
                "perfbench/run.py so that every solve still starts with cold caches"
            )
        caches.append(fn)
    return caches


def setup(cases):
    """Import weylgb and parse every input; returns (wb, mods, inputs, (start, parse start, end))."""
    start = time.perf_counter()
    wb, mods = import_weylgb()
    parse_start = time.perf_counter()
    inputs = [[wb.parse_element(t, c.n) for t in c.texts] for c in cases]
    end = time.perf_counter()
    return wb, mods, inputs, (start, parse_start, end)


def timed_setups(cases, count, stamps, speed):
    """Run setup() count times and record its time stamps; returns the last (wb, mods, inputs)."""
    for _ in range(count):
        gc.collect()  # the previous copy's garbage is not part of set-up
        speed.sample()
        wb, mods, inputs, stamp = setup(cases)
        stamps.append(stamp)
    speed.sample()
    return wb, mods, inputs


def plain_call(_name, fn, *args):
    return fn(*args)


def solve(workload, mods, elements, ordering, call=plain_call):
    """One top-level call into the engine."""
    if workload == "ugb":
        return call("universal_groebner", mods["universal"].universal_groebner, elements)
    if workload == "cert":
        return call("certify_universal", mods["universal"].certify_universal, elements)
    g = mods["groebner"]

    def gb():
        return call("reduce_basis", g.reduce_basis, call("buchberger", g.buchberger, elements, ordering))

    return call("solve", gb)


def percentile(sorted_values, q):
    """Linear interpolation between closest ranks, q in [0, 100]."""
    pos = q / 100 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_level(count):
    """Highest level in TAIL_LEVELS with at least ten samples beyond it.

    Applied to one pass (SOLVES_PER_PASS solves), not to the whole run, so
    the tail means the same percentile however many passes a run makes.
    """
    best = TAIL_LEVELS[0]
    for q in TAIL_LEVELS:
        if count * (100 - q) / 100 >= 10:
            best = q
    return best


def run_pass(workload, mods, wb, cases, inputs, caches, checker, speed, tracer=None):
    """Solve every case once; returns ((start, end) of each solve, solves that raised)."""
    intervals = []
    raised = 0
    call = plain_call if tracer is None else tracer.call
    for case, elements in zip(cases, inputs):
        for fn in caches:
            fn.cache_clear()
        ordering = wb.parse_ordering(case.order, case.n) if case.order else None
        gc.collect()  # start from a clean heap, as a fresh process would
        speed.sample()
        t0 = time.perf_counter()
        try:
            out = solve(workload, mods, elements, ordering, call)
        except Exception as exc:  # a refused or crashed solve counts as failed
            out = exc
            raised += 1
        intervals.append((t0, time.perf_counter()))
        if tracer is not None:
            for name, fn in zip(("weyl.mono", "universal.realize"), caches):
                info = fn.cache_info()
                tracer.counts[f"{name}_hits"] += info.hits
                tracer.counts[f"{name}_misses"] += info.misses
        checker.record(case, out)
    speed.sample()
    return intervals, raised


def solve_rate(passes):
    """Solves that returned, per second spent inside solves."""
    return sum(len(times) - raised for times, raised in passes) / sum(sum(times) for times, _ in passes)


def metric(value, unit):
    return {"value": value, "unit": unit}


def ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracers, factors, traced_rate, untraced_rate, parse_s):
    """Per-layer metrics of one traced pass (self times averaged over passes).

    factors[i] scales the times of traced pass i to the reference host speed.
    """
    counts = tracers[0].counts
    layer, by_name = {}, {}
    for t, factor in zip(tracers, factors):
        for name, seconds in layer_self_times(t.spans).items():
            layer[name] = layer.get(name, 0.0) + seconds * factor / len(tracers)
        for name, seconds in self_times(t.spans).items():
            by_name[name] = by_name.get(name, 0.0) + seconds * factor / len(tracers)
    mono_calls = counts["weyl.mono_hits"] + counts["weyl.mono_misses"]
    realize_calls = counts["universal.realize_hits"] + counts["universal.realize_misses"]
    fm_s = layer.get("feasibility", 0.0)
    return {
        "feasibility.solves": metric(counts["feasibility.solves"], "count"),
        "feasibility.infeasible": metric(counts["feasibility.infeasible"], "count"),
        "feasibility.self_s": metric(fm_s, "s"),
        "feasibility.s_per_solve": metric(ratio(fm_s, counts["feasibility.solves"]), "s"),
        "universal.self_s": metric(layer.get("universal", 0.0), "s"),
        "universal.enumerate_self_s": metric(by_name.get("enumerate_restrictions", 0.0), "s"),
        "universal.cones": metric(counts["universal.cones"], "count"),
        "universal.cones_per_solve": metric(ratio(counts["universal.cones"], counts["feasibility.solves"]), "ratio"),
        "universal.rounds": metric(counts["universal.rounds"], "count"),
        "universal.realize_cache_hit_ratio": metric(ratio(counts["universal.realize_hits"], realize_calls), "ratio"),
        "universal.verdicts_per_cone": metric(ratio(counts["universal.verdicts"], counts["universal.cones"]), "ratio"),
        "groebner.s_pairs": metric(counts["groebner.s_pairs"], "count"),
        "groebner.zero_reductions": metric(counts["groebner.zero_reductions"], "count"),
        "groebner.self_s": metric(layer.get("groebner", 0.0), "s"),
        "division.calls": metric(counts["division.calls"], "count"),
        "division.steps": metric(counts["division.steps"], "count"),
        "division.self_s": metric(layer.get("division", 0.0), "s"),
        "weyl.mono_products": metric(mono_calls, "count"),
        "weyl.mono_cache_hit_ratio": metric(ratio(counts["weyl.mono_hits"], mono_calls), "ratio"),
        "orderings.sort_keys": metric(counts["orderings.sort_keys"], "count"),
        "parsing.self_s": metric(parse_s, "s"),
        "trace.solves_per_s": metric(traced_rate, "1/s"),
        "trace.overhead_solves_per_s": metric(untraced_rate - traced_rate, "1/s"),
    }, layer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("ugb", "cert", "gb"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cases = corpus.generate(args.workload, args.seed)
    speed = SpeedLog()
    try:
        expected = json.loads((HERE / "expected.json").read_text())[args.workload]
        stamps = []
        wb, mods, inputs = timed_setups(cases, SETUP_REPEATS // 3, stamps, speed)
        caches = cold_caches(mods)
    except BenchmarkError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    checker = Checker(wb, args.workload, expected)
    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        if args.trace and len(traced) < len(untraced):
            tracer = Tracer(mods)
            with tracer.install():
                traced.append(run_pass(args.workload, mods, wb, cases, inputs, caches, checker, speed, tracer))
            tracers.append(tracer)
        else:
            untraced.append(run_pass(args.workload, mods, wb, cases, inputs, caches, checker, speed))
        checker.check_pending()
        if time.perf_counter() - start >= args.seconds and (traced or not args.trace):
            break
    # the rest of the set-ups, so that their median spans the run, not its first second;
    # the solves above keep using the modules of the first set-ups
    timed_setups(cases, SETUP_REPEATS - SETUP_REPEATS // 3, stamps, speed)
    setup_s = statistics.median((end - start) * speed.factor(start, end) for start, _, end in stamps)
    parse_s = statistics.median((end - mid) * speed.factor(start, end) for start, mid, end in stamps)
    raw_setup_s = statistics.median(end - start for start, _, end in stamps)
    # (start, end) of each solve -> its seconds at the reference host speed
    raw_untraced = [([end - start for start, end in spans], raised) for spans, raised in untraced]
    untraced = [(speed.scaled(spans), raised) for spans, raised in untraced]
    traced_raw_s = [sum(end - start for start, end in spans) for spans, _ in traced]
    traced = [(speed.scaled(spans), raised) for spans, raised in traced]
    factors = [sum(times) / raw for (times, _), raw in zip(traced, traced_raw_s)]

    failures = checker.failures()
    if tracers:
        bad = sum(t.bad_certificates for t in tracers)
        if bad:
            failures.append(("trace", f"{bad} Farkas certificates failed certifies_infeasibility"))
        if any(t.counts != tracers[0].counts for t in tracers):
            failures.append(("trace", "operation counts differ between traced passes"))
    for key, reason in failures:
        print(f"FAILED {key}: {reason}", file=sys.stderr)

    attempted = sum(len(times) for times, _ in untraced + traced)
    # a run-level trace failure counts as one failed solve
    failed = min(len(failures), attempted)
    timed = sorted((t, case.template) for times, _ in untraced for t, case in zip(times, cases))
    solve_times = [t for t, _ in timed]
    untraced_rate = solve_rate(untraced)

    if args.trace:
        traced_rate = solve_rate(traced)
        metrics, layer = per_layer_metrics(tracers, factors, traced_rate, untraced_rate, parse_s)
        # solve time without the Infeasible checks, which the traced run adds
        checks = sum(
            self_times(t.spans).get("check", 0.0) * factor for t, factor in zip(tracers, factors)
        )
        solve_s = (sum(sum(times) for times, _ in traced) - checks) / len(traced)
        for name in ("feasibility", "universal", "groebner", "division"):
            share = layer.get(name, 0.0)
            print(f"layer {name}: {share:.4f} s self per pass, {100 * share / solve_s:.1f}% of solve time")
        tracers[-1].write(ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        level = tail_level(corpus.SOLVES_PER_PASS)
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "solve_s_p50": metric(percentile(solve_times, 50), "s"),
            "solve_s_tail": metric(percentile(solve_times, level), "s"),
            "solves_per_s": metric(untraced_rate, "1/s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "solved_ratio": metric((attempted - failed) / attempted, "ratio"),
        }
        print(f"solve_s_tail is p{level:g} over {len(solve_times)} solves in {len(untraced)} passes")
        for q in (50, level):
            near = {timed[int(q / 100 * (len(timed) - 1)) + k][1] for k in (0, 1)}
            print(f"p{q:g} falls on solves of {', '.join(sorted(near))}")
        raw = sorted(t for times, _ in raw_untraced for t in times)
        print(
            f"raw wall clock: setup_s {raw_setup_s!r}, solve_s_p50 {percentile(raw, 50)!r}, "
            f"solve_s_tail {percentile(raw, level)!r}, solves_per_s {solve_rate(raw_untraced)!r}; "
            f"host speed factor {sum(solve_times) / sum(raw):.4f}"
        )
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
