"""Benchmark of explanation latency, oracle cost and rule quality.

Run from the repository root:

    python3 bench/run.py --workload net-grid --seed 0 --seconds 30 --trace 0

It imports ``rulecf`` from this checkout's ``src``, checks its own checkers,
sets the workload's inputs up several times, then runs whole rounds of the
workload's explanation cases, single-threaded, in an order drawn from
``--seed``, until another round would pass ``--seconds``. Every explanation
is checked against the benchmark's own reference model. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``. A summary goes to
standard error.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0


def import_program():
    """Import ``rulecf`` from this checkout only."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import rulecf
    except ImportError as exc:
        raise SystemExit(f"cannot import rulecf from {src}: {exc}") from None
    if Path(rulecf.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"rulecf was imported from {rulecf.__file__}, not from {src}")
    return rulecf


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def signature(result):
    """Everything the checks and the count metrics read from a result."""
    top = result.top
    stats = result.stats
    if top is None:
        return None
    comps = tuple((c.feature, c.direction.value == "<=", c.bound) for c in top.rule.components)
    return (comps, top.level.level.name, top.level.vd, top.level.vs, top.cf_verified,
            stats.classifier_calls, stats.cf_calls, stats.iterations)


def check_all(checks, runs):
    """Verdicts for every distinct (case, output) pair among ``runs``.

    Pairs are checked grouped by reference model, so a reference that builds
    a large table does so once and frees it before the next.
    """
    pairs = {(r["case"].id, r["sig"]): r["case"] for r in runs}
    verdicts, histories = {}, {}
    for (case_id, sig), case in sorted(pairs.items(), key=lambda kv: id(kv[1].ref)):
        if sig is None:
            verdicts[case_id, sig] = checks.Verdict("no rule returned", False, False)
            continue
        key = (id(case.data), id(case.ref))
        if key not in histories:
            matrix = np.asarray(case.data.instances, dtype=np.float64)
            histories[key] = (matrix, case.ref.good(matrix))
        comps, _level, vd, _vs, cf_verified = sig[:5]
        verdicts[case_id, sig] = checks.check_explanation(
            case.ref, case.x, comps, vd, cf_verified, *histories[key])
        if getattr(case.ref, "release", None) is not None:
            case.ref.release()
    return verdicts


def set_up(build, workdir, tracer, null_tracer):
    """Build the inputs several times; return the last build, the set-up
    times and each traced set-up's layer times."""
    times, layers, cases = [], [], None
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        cases = None  # free the previous set before building the next
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        cases = build(workdir, tracer or null_tracer)
        times.append(time.perf_counter() - start)
        if tracer is not None:
            layers.append(dict(tracer.busy))
    return cases, times, layers


def explain(rulecf, tracing, tracer, case):
    fn = {"gen": rulecf.genetic_rule, "gen-cf": rulecf.genetic_rule_cf,
          "greedy-cf": rulecf.greedy_rule_cf}[case.algo]
    if tracer is not None and case.algo != "gen":
        oracle = tracing.oracle_for(tracer, case.model, case.data, case.params)
        return fn(case.x, case.model, case.data, case.params, oracle=oracle)
    return fn(case.x, case.model, case.data, case.params)


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end_metrics(runs, rounds, minimal, setup_times, peak_rss_mb):
    walls = [r["wall"] for r in runs if r["sig"] is not None]
    done = len(walls)
    # every case runs once per round, so the median over the cases of each
    # case's median keeps the weights of a plain median and drops the
    # slowest and fastest repeats of each case
    per_case = {}
    for r in runs:
        if r["sig"] is not None:
            per_case.setdefault(r["case"].id, []).append(r["wall"])
    return {
        "explain_p50_s": (statistics.median(map(statistics.median, per_case.values())), "s"),
        "explains_per_s": (ratio(done, sum(walls)), "1/s"),
        "classifier_calls_per_explain": (
            ratio(sum(r["sig"][5] for r in runs if r["sig"]), done), "calls"),
        "cf_calls_per_explain": (ratio(sum(r["sig"][6] for r in runs if r["sig"]), done),
                                 "calls"),
        "minimal_rules": (minimal / rounds, "rules"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer_metrics(tracer, runs, setup_layers):
    n = len(runs)
    busy, own, count = tracer.busy, tracer.own, tracer.count
    phase = {}
    for r in runs:
        for name, spent in r["phases"].items():
            phase[name] = phase.get(name, 0.0) + spent

    def per(value):
        return value / n

    def setup_median(name):
        return statistics.median(layer.get(name, 0.0) for layer in setup_layers)

    return {
        "classifiers.rows": (per(count["rows"]), "rows"),
        "classifiers.batches": (per(count["batches"]), "batches"),
        "classifiers.rows_per_batch": (ratio(count["rows"], count["batches"]), "rows"),
        "classifiers.busy_s": (per(busy["classifiers"]), "s"),
        "cf_engine.queries": (per(count["cf_queries"]), "queries"),
        "cf_engine.exhaustive_queries": (per(count["cf_exhaustive_queries"]), "queries"),
        "cf_engine.genetic_queries": (per(count["cf_genetic_queries"]), "queries"),
        "cf_engine.generations": (per(count["cf_generations"]), "generations"),
        "cf_engine.exhaustive_s": (per(busy["cf_exhaustive"]), "s"),
        "cf_engine.genetic_s": (per(busy["cf_genetic"]), "s"),
        "cf_engine.self_s": (per(own["cf_engine"]), "s"),
        "cf_engine.found_ratio": (ratio(count["cf_found"], count["cf_queries"]), "ratio"),
        "duality.oracle_lookups": (per(count["oracle_lookups"]), "lookups"),
        "duality.oracle_hits": (per(count["oracle_hits"]), "lookups"),
        "duality.oracle_hit_ratio": (
            ratio(count["oracle_hits"], count["oracle_lookups"]), "ratio"),
        "duality.cf_rules_self_s": (per(own["cf_rules"]), "s"),
        "duality.covers": (per(count["cover_sets"]), "covers"),
        "consistency.sampled_rules": (per(count["sample"]), "rules"),
        "consistency.sample_s": (per(busy["sample"]), "s"),
        "explainers.iterations": (per(sum(r["iterations"] for r in runs)), "iterations"),
        "explainers.children": (per(count["children"]), "rules"),
        "explainers.crossover_s": (per(phase.get("crossover", 0.0)), "s"),
        "explainers.mutate_s": (per(phase.get("mutate", 0.0)), "s"),
        "explainers.select_s": (per(phase.get("select", 0.0)), "s"),
        "explainers.cfrules_s": (per(phase.get("cfrules", 0.0)), "s"),
        "explainers.reduce_s": (per(phase.get("reduce", 0.0)), "s"),
        "schema.rules_built": (per(count["rules_built"]), "rules"),
        "schema.dataset_build_s": (setup_median("dataset"), "s"),
        "dataio.ingest_s": (setup_median("ingest"), "s"),
        "harness.generate_s": (setup_median("harness"), "s"),
    }


def main(argv=None):
    rulecf = import_program()
    import checks
    import selftest
    import tracing
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    selftest.run_all()
    workdir = ROOT / "bench" / ".work"
    workdir.mkdir(exist_ok=True)

    tracer = tracing.Tracer() if args.trace else None
    restore = tracing.install(tracer) if tracer is not None else None
    try:
        cases, setup_times, setup_layers = set_up(
            workloads.WORKLOADS[args.workload], workdir, tracer, tracing.NullTracer())
        if tracer is not None:
            for model in {id(c.model): c.model for c in cases}.values():
                tracing.instrument_model(tracer, model)
            tracer.reset()
        order = random.Random(args.seed)
        runs, rounds = [], 0
        started = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for case in order.sample(cases, len(cases)):
                t0 = time.perf_counter()
                try:
                    result = explain(rulecf, tracing, tracer, case)
                except Exception as exc:  # counted as a failed explanation
                    runs.append({"case": case, "wall": time.perf_counter() - t0, "sig": None,
                                 "phases": {}, "iterations": 0, "error": repr(exc)})
                    continue
                wall = time.perf_counter() - t0
                runs.append({"case": case, "wall": wall, "sig": signature(result),
                             "phases": result.stats.phase_times,
                             "iterations": result.stats.iterations})
            rounds += 1
            now = time.perf_counter()
            if now - started + (now - round_start) > args.seconds:
                break
    finally:
        if restore is not None:
            restore()
    # read before the checks, whose grid masks would otherwise set the peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdicts = check_all(checks, runs)
    failures, minimal, first = [], 0, {}
    for r in runs:
        verdict = verdicts[r["case"].id, r["sig"]]
        minimal += verdict.minimal
        if verdict.failure is not None:
            failures.append((r["case"].id, r.get("error", verdict.failure)))
        first.setdefault(r["case"].id, r["sig"])
    # a fixed seed must give the same output in every round
    nondeterministic = sorted({r["case"].id for r in runs if first[r["case"].id] != r["sig"]})
    correct = not nondeterministic
    if tracer is not None:
        calls = sum(r["sig"][5] for r in runs if r["sig"])
        if tracer.count["rows"] != calls:
            print(f"traced rows {tracer.count['rows']} != classifier calls {calls}",
                  file=sys.stderr)
            correct = False
        metrics = per_layer_metrics(tracer, runs, setup_layers)
    else:
        metrics = end_to_end_metrics(runs, rounds, minimal, setup_times, peak_rss_mb)

    explain_s = sum(r["wall"] for r in runs)
    print(f"{args.workload}: {rounds} rounds of {len(cases)} explanations, "
          f"{explain_s:.3f} s explaining, set-up x{len(setup_times)} "
          f"median {statistics.median(setup_times):.3f} s, trace={args.trace}",
          file=sys.stderr)
    for case_id in nondeterministic:
        print(f"  nondeterministic output: {case_id}", file=sys.stderr)
    for case_id, reason in sorted(set(failures)):
        print(f"  failed: {case_id}: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
