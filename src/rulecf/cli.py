"""Command-line surface: explain one instance, run synthetic experiments, or
verify a rule against a dataset and model.

Everything written to stdout or an output file is deterministic for fixed
flags and seed; wall-clock diagnostics go to stderr (or into the report only
when explicitly requested with --timings).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .classifiers import ModelFormatError, load_model
from .consistency import BruteForceOutcome, brute_force_global_consistent, violations_in_data
from .dataio import IngestError, format_component, format_rule, ingest_csv, load_rule_file
from .duality import CounterfactualOracle
from .explainers import SearchParams, consistency_level
from .harness import (
    ALGORITHMS, SyntheticSpec, default_experiment_schema, run_synthetic_experiment,
)
from .schema import SchemaError, SlotCodec, make_schema


# the SearchParams fields the command line sets, in flag order, with the
# --help text of their flags
SEARCH_FLAGS = {
    "q": "population kept per iteration",
    "k": "rules returned",
    "s": "consistency samples per rule",
    "m": "mutations per candidate",
    "c": "crossovers per pair",
    "cf_period": None,
    "max_iterations": None,
    "seed": None,
}


def _parse_groups(raw_groups):
    groups = {}
    for item in raw_groups or []:
        if "=" not in item:
            raise SchemaError(f"--group expects NAME=col1,col2,... got {item!r}")
        name, cols = item.split("=", 1)
        name = name.strip()
        if name in groups:
            raise SchemaError(f"--group {name!r} is given more than once")
        groups[name] = [c.strip() for c in cols.split(",") if c.strip()]
    return groups


def _search_params(args) -> SearchParams:
    return SearchParams(**{name: getattr(args, name) for name in SEARCH_FLAGS})


def _rule_payload(scored, schema):
    return {
        "components": [format_component(c, schema) for c in scored.rule.components],
        "cardinality": scored.rule.cardinality,
        "level": scored.level.level.name,
        "vd": scored.level.vd,
        "vs": scored.level.vs,
        "score": scored.score,
        "cf_verified": scored.cf_verified,
    }


def _anchor_row(data, instance: int):
    """The row ``--instance`` names; ``SchemaError`` when it is out of range."""
    if not (0 <= instance < data.m):
        raise SchemaError(f"--instance must be in 0..{data.m - 1}")
    return data.row(instance)


def cmd_explain(args) -> int:
    data = ingest_csv(args.data, groups=_parse_groups(args.group))
    model = load_model(args.model)
    anchor = _anchor_row(data, args.instance)
    params = _search_params(args)
    result = ALGORITHMS[args.algo](anchor, model, data, params)

    if not result.converged:
        print("warning: iteration cap reached, returning best rules found",
              file=sys.stderr)
    print(f"wall time: {result.stats.wall_time:.3f}s", file=sys.stderr)

    schema = data.schema
    if args.format == "json":
        payload = {
            "algorithm": args.algo,
            "instance": args.instance,
            "anchor": [[f.name, v] for f, v in zip(schema.features, anchor)],
            "converged": result.converged,
            "rules": [_rule_payload(sr, schema) for sr in result.rules],
            "stats": {
                "iterations": result.stats.iterations,
                "classifier_calls": result.stats.classifier_calls,
                "cf_calls": result.stats.cf_calls,
            },
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"instance {args.instance}: "
              + ", ".join(f"{f.name}={v:g}" for f, v in zip(schema.features, anchor)))
        for pos, sr in enumerate(result.rules, start=1):
            body = format_rule(sr.rule, schema).replace("\n", " AND ") or "(empty rule)"
            print(f"#{pos} [{sr.level.level.name}"
                  f"{' cf-verified' if sr.cf_verified else ''}] "
                  f"score={sr.score:.4f} card={sr.rule.cardinality}: {body}")
        print(f"iterations={result.stats.iterations} "
              f"classifier_calls={result.stats.classifier_calls} "
              f"cf_calls={result.stats.cf_calls} converged={result.converged}")
    return 0


def cmd_synthetic(args) -> int:
    if args.domain_size:
        schema = make_schema(
            [[float(v) for v in range(args.domain_size)] for _ in range(args.features)]
        )
    else:
        schema = default_experiment_schema(args.features)
    components = [int(tok) for tok in args.components.split(",") if tok]
    algos = [tok.strip() for tok in args.algos.split(",") if tok.strip()]
    params = _search_params(args)
    started = time.perf_counter()
    reports = [
        run_synthetic_experiment(
            SyntheticSpec(schema=schema, components=n, trials=args.trials, seed=args.seed),
            algorithms=algos, params=params, dataset_rows=args.rows,
        )
        for n in components
    ]
    print(f"experiment wall time: {time.perf_counter() - started:.1f}s", file=sys.stderr)

    payload = {
        "kind": "synthetic-experiment",
        "schema": {
            "features": schema.n,
            "domain_sizes": [len(f.domain) for f in schema.features],
        },
        "seed": args.seed,
        "trials": args.trials,
        "dataset_rows": args.rows,
        "params": {name: getattr(params, name) for name in SEARCH_FLAGS if name != "seed"},
        "results": [r.to_payload(include_timing=args.timings) for r in reports],
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"report written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    data = ingest_csv(args.data, groups=_parse_groups(args.group))
    model = load_model(args.model)
    rule = load_rule_file(args.rule, data.schema)

    if args.mode == "data":
        vd = violations_in_data(rule, data, model)
        print(f"vd={vd} data_consistent={str(vd == 0).lower()}")
    elif args.mode == "sample":
        level = consistency_level(rule, data, model, s=args.s, seed=args.seed)
        print(f"level={level.level.name} vd={level.vd} vs={level.vs}")
    elif args.mode == "cf":
        if args.instance is None:
            raise SchemaError("--instance is required for --mode cf")
        anchor = _anchor_row(data, args.instance)
        mask = SlotCodec(anchor).mask(rule)
        ok = CounterfactualOracle(model, data, seed=args.seed).consistent(mask, anchor)
        print(f"cf_consistent={str(ok).lower()}")
    else:
        outcome = brute_force_global_consistent(rule, model, data.schema)
        size = math.prod(len(r) for r in data.schema.box(rule))
        print(f"outcome={outcome.value} restricted_space={size}")
        if outcome is BruteForceOutcome.TOO_LARGE:
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rulecf",
        description="Rule-based explanations for black-box tabular classifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    d = SearchParams()

    def add_search_flags(p, flags=SEARCH_FLAGS):
        for name, text in flags.items():
            p.add_argument("--" + name.replace("_", "-"), type=int, default=getattr(d, name),
                           dest=name, help=text)

    p_explain = sub.add_parser("explain", help="explain one dataset instance")
    p_explain.add_argument("--data", required=True)
    p_explain.add_argument("--model", required=True)
    p_explain.add_argument("--instance", type=int, required=True)
    p_explain.add_argument("--algo", choices=sorted(ALGORITHMS), default="gen-cf")
    p_explain.add_argument("--format", choices=("text", "json"), default="text")
    p_explain.add_argument("--group", action="append", metavar="NAME=c1,c2,...")
    add_search_flags(p_explain)
    p_explain.set_defaults(func=cmd_explain)

    p_syn = sub.add_parser("synthetic", help="ground-truth recovery experiment")
    p_syn.add_argument("--features", type=int, default=12)
    p_syn.add_argument("--domain-size", type=int, default=0, dest="domain_size",
                       help="uniform domain size (default: varied 8..12)")
    p_syn.add_argument("--components", default="2,4,6,8",
                       help="comma-separated ground-truth cardinalities")
    p_syn.add_argument("--trials", type=int, default=100)
    p_syn.add_argument("--algos", default="gen,gen-cf,greedy-cf")
    p_syn.add_argument("--rows", type=int, default=1000, help="synthetic dataset rows")
    p_syn.add_argument("--out", default=None, help="report path (default: stdout)")
    p_syn.add_argument("--timings", action="store_true",
                       help="include wall-clock stats (not byte-reproducible)")
    add_search_flags(p_syn)
    p_syn.set_defaults(func=cmd_synthetic)

    p_verify = sub.add_parser("verify", help="check a rule file against data/model")
    p_verify.add_argument("--data", required=True)
    p_verify.add_argument("--model", required=True)
    p_verify.add_argument("--rule", required=True)
    p_verify.add_argument("--mode", choices=("data", "sample", "cf", "brute"),
                          default="sample")
    p_verify.add_argument("--instance", type=int, default=None,
                          help="anchor row (required for --mode cf)")
    # verify's two flags carry no help text
    add_search_flags(p_verify, dict.fromkeys(("s", "seed")))
    p_verify.add_argument("--group", action="append", metavar="NAME=c1,c2,...")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, IngestError, ModelFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
