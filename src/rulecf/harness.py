"""Synthetic-classifier experiments, explanation categorizers, and the
exhaustive minimal-rule search used to audit algorithm output."""

from __future__ import annotations

import enum
import itertools
import random
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .classifiers import Classifier, RuleClassifier, good_points
from .consistency import Level
from .duality import CounterfactualOracle, derive_seed
from .explainers import (
    ExplanationResult,
    SearchParams,
    _droppable_slot,
    consistency_level,
    genetic_rule,
    genetic_rule_cf,
    greedy_rule_cf,
)
from .schema import (
    EMPTY_RULE,
    Dataset,
    DatasetSchema,
    Direction,
    Instance,
    Rule,
    RuleComponent,
    SchemaError,
    SlotCodec,
    make_schema,
    mask_bits,
    mask_slots,
    rows_in_box,
)

ALGORITHMS = {
    "gen": genetic_rule,
    "gen-cf": genetic_rule_cf,
    "greedy-cf": greedy_rule_cf,
}


def default_experiment_schema(features: int = 12) -> DatasetSchema:
    """Desk-scale schema: integer-coded domains of 8..12 values per feature."""
    domains = []
    for j in range(features):
        size = 8 + (j % 5)
        domains.append([float(v) for v in range(size)])
    return make_schema(domains)


def synthetic_dataset(schema: DatasetSchema, rows: int, seed: int = 0) -> Dataset:
    """Rows drawn per feature uniformly from the schema domains."""
    rng = np.random.default_rng(derive_seed(seed, "dataset"))
    return _box_rows(schema, schema.box(EMPTY_RULE), rows, rng)


def box_dataset(schema: DatasetSchema, rule: Rule, rows: int, seed: int = 0) -> Dataset:
    """Rows drawn uniformly from a rule's satisfying box.

    Used as the per-trial history for synthetic experiments: like a database
    of past denials, every row satisfies the ground-truth rule.
    """
    rng = np.random.default_rng(derive_seed(seed, "box-dataset"))
    return _box_rows(schema, schema.box(rule), rows, rng)


def _box_rows(schema: DatasetSchema, box: Sequence[range], rows: int, rng) -> Dataset:
    """A dataset of ``rows`` instances of a box, one ``rng.integers`` column
    per feature."""
    if not all(box):
        raise SchemaError("rule admits no instance; nothing to sample")
    matrix = np.column_stack([
        values[rng.integers(r.start, r.stop, size=rows)]
        for values, r in zip(schema.domain_arrays, box)
    ])
    return Dataset(schema, tuple(map(tuple, matrix.tolist())))


@dataclass(frozen=True)
class SyntheticSpec:
    """One ground-truth-recovery experiment configuration."""

    schema: DatasetSchema
    components: int
    trials: int
    seed: int = 0

    def __post_init__(self):
        if not (1 <= self.components <= 2 * self.schema.n):
            raise SchemaError(
                f"components must be in 1..{2 * self.schema.n}, got {self.components}"
            )
        if self.trials < 1:
            raise SchemaError("trials must be positive")


def gen_synthetic_classifier(spec: SyntheticSpec, trial: int):
    """A rule-defined classifier plus a bad anchor satisfying its rule.

    Slots are distinct (feature, direction) pairs; bounds come from interior
    domain positions so every component excludes at least one value, and the
    anchor is drawn uniformly from the rule's satisfying set.
    """
    schema = spec.schema
    rng = random.Random(derive_seed(spec.seed, "classifier", trial))
    slots = [(j, d) for j in range(schema.n) for d in (Direction.LEQ, Direction.GEQ)]
    chosen = rng.sample(slots, spec.components)
    by_feature: dict = {}
    for j, d in chosen:
        by_feature.setdefault(j, set()).add(d)

    comps = []
    for j in sorted(by_feature):
        domain = schema.domain(j)
        if len(domain) < 3:
            raise SchemaError(
                f"feature {j} needs at least 3 domain values for an interior bound"
            )
        # central interior positions: every component excludes a sizable slice
        # of its domain, keeping the violation signal per missing component
        # well above sampling noise
        lo_pos = max(1, (len(domain) - 1) // 4)
        hi_pos = min(len(domain) - 2, (3 * (len(domain) - 1)) // 4)
        interior = domain[lo_pos: hi_pos + 1]
        dirs = by_feature[j]
        if dirs == {Direction.LEQ, Direction.GEQ}:
            lo, hi = sorted((rng.randrange(len(interior)), rng.randrange(len(interior))))
            comps.append(RuleComponent(j, Direction.GEQ, interior[lo]))
            comps.append(RuleComponent(j, Direction.LEQ, interior[hi]))
        elif dirs == {Direction.LEQ}:
            comps.append(RuleComponent(j, Direction.LEQ, rng.choice(interior)))
        else:
            comps.append(RuleComponent(j, Direction.GEQ, rng.choice(interior)))
    truth = Rule(tuple(comps))

    anchor = tuple(
        schema.domain(j)[rng.choice(r)] for j, r in enumerate(schema.box(truth))
    )
    return RuleClassifier(truth, schema.n), anchor


class SyntheticCategory(enum.Enum):
    CONSISTENT_MINIMAL = "consistent_minimal"
    CONSISTENT_REDUNDANT = "consistent_redundant"
    INCONSISTENT = "inconsistent"


def categorize_synthetic(returned: Rule, truth: Rule) -> SyntheticCategory:
    """Compare a returned rule against the anchored ground truth."""
    rset, tset = set(returned.components), set(truth.components)
    if rset == tset:
        return SyntheticCategory.CONSISTENT_MINIMAL
    if rset > tset:
        return SyntheticCategory.CONSISTENT_REDUNDANT
    return SyntheticCategory.INCONSISTENT


class RealCategory(enum.Enum):
    FDC = "failed_data_consistency"
    FGC = "failed_global_consistency"
    GC_REDUNDANT = "consistent_redundant"
    GC_NOT_MINIMAL = "consistent_not_minimal"
    GC_MINIMAL = "consistent_minimal"


@dataclass(frozen=True)
class MinimalRuleResult:
    cardinality: Optional[int]
    cap_reached: bool
    witnesses: tuple = ()


def minimal_rule_search(
    x: Instance,
    model: Classifier,
    data: Dataset,
    cap: int = 6,
    space_cap: int = 1_000_000,
    oracle: Optional[CounterfactualOracle] = None,
) -> MinimalRuleResult:
    """Smallest cardinality of a consistent rule relevant to ``x``.

    Candidate rules are enumerated by ascending cardinality. When the full
    instance space fits under ``space_cap`` consistency is decided exactly by
    enumeration (organized as per-slot bitsets over the good instances,
    ``SlotCodec.row_bits``); otherwise each candidate is checked through the
    counterfactual oracle. Returns a reached-cap marker instead of an answer
    when no consistent rule exists within ``cap`` components.
    """
    schema = data.schema
    codec = SlotCodec(x)
    slots = mask_bits(codec.full)
    cap = min(cap, len(slots))

    if schema.space_size() <= space_cap:
        good = np.concatenate(list(good_points(model, schema, schema.box(EMPTY_RULE))))
        slot_rows, all_good = codec.row_bits(good)

        def consistent(mask: int) -> bool:
            return not rows_in_box(mask_slots(mask), slot_rows, all_good)

        # a slot that admits every good instance can never appear in a
        # minimum-cardinality witness
        slots = [bit for bit in slots if slot_rows[bit.bit_length() - 1] != all_good]
    else:
        if oracle is None:
            oracle = CounterfactualOracle(model, data)

        def consistent(mask: int) -> bool:
            return oracle.consistent(mask, x)

    for size in range(0, cap + 1):
        witnesses = tuple(
            codec.rule(mask)
            for mask in map(sum, itertools.combinations(slots, size))
            if consistent(mask)
        )
        if witnesses:
            return MinimalRuleResult(size, False, witnesses)
    return MinimalRuleResult(None, True, ())


def categorize_real(
    returned: Rule,
    x: Instance,
    model: Classifier,
    data: Dataset,
    s: int = 1000,
    seed: int = 0,
    oracle: Optional[CounterfactualOracle] = None,
) -> RealCategory:
    """Five-way audit of a returned rule when no ground truth is known.

    ``returned`` must be anchored at ``x`` (``SchemaError`` otherwise).
    """
    mask = SlotCodec(x).mask(returned)
    level = consistency_level(returned, data, model, s=s, seed=seed)
    if level.level is Level.FDC:
        return RealCategory.FDC
    if oracle is None:
        oracle = CounterfactualOracle(model, data, seed=seed)
    if level.level is Level.FGC or not oracle.consistent(mask, x):
        return RealCategory.FGC
    if _droppable_slot(mask, x, oracle):
        return RealCategory.GC_REDUNDANT
    found = minimal_rule_search(x, model, data, oracle=oracle)
    if found.cardinality is not None and found.cardinality < returned.cardinality:
        return RealCategory.GC_NOT_MINIMAL
    return RealCategory.GC_MINIMAL


# -- experiment runner --------------------------------------------------------

@dataclass
class AlgorithmSummary:
    trials: int
    counts: dict = field(default_factory=dict)
    classifier_calls: int = 0
    cf_calls: int = 0
    errors: int = 0
    runtimes: list = field(default_factory=list)

    def record(self, category: SyntheticCategory, result: ExplanationResult):
        self.counts[category.value] = self.counts.get(category.value, 0) + 1
        self.classifier_calls += result.stats.classifier_calls
        self.cf_calls += result.stats.cf_calls
        self.runtimes.append(result.stats.wall_time)

    def buckets(self) -> dict:
        """The count of every synthetic category, then ``error``."""
        counts = {cat.value: self.counts.get(cat.value, 0) for cat in SyntheticCategory}
        return {**counts, "error": self.errors}

    def percentages(self) -> dict:
        return {name: 100.0 * count / self.trials for name, count in self.buckets().items()}

    def runtime_stats(self) -> dict:
        if not self.runtimes:
            return {"mean": 0.0, "p50": 0.0, "p90": 0.0}
        arr = sorted(self.runtimes)
        return {
            "mean": sum(arr) / len(arr),
            "p50": arr[int(0.5 * (len(arr) - 1))],
            "p90": arr[int(0.9 * (len(arr) - 1))],
        }


@dataclass
class ExperimentReport:
    components: int
    trials: int
    seed: int
    dataset_rows: int
    algorithms: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def to_payload(self, include_timing: bool = False) -> dict:
        algs = {}
        for name in sorted(self.algorithms):
            summary = self.algorithms[name]
            entry = {
                "trials": summary.trials,
                "counts": summary.buckets(),
                "percentages": summary.percentages(),
                "classifier_calls": summary.classifier_calls,
                "cf_calls": summary.cf_calls,
            }
            if include_timing:
                entry["runtime_seconds"] = summary.runtime_stats()
            algs[name] = entry
        payload = {
            "components": self.components,
            "trials": self.trials,
            "seed": self.seed,
            "dataset_rows": self.dataset_rows,
            "algorithms": algs,
        }
        if self.failures:
            payload["failures"] = sorted(self.failures)
        return payload


def run_synthetic_experiment(
    spec: SyntheticSpec,
    algorithms: Sequence[str] = ("gen", "gen-cf", "greedy-cf"),
    params: Optional[SearchParams] = None,
    dataset_rows: int = 1000,
) -> ExperimentReport:
    """Generate, explain, and categorize ``spec.trials`` classifiers.

    Each trial gets its own history of rows satisfying that trial's ground
    truth (all scored bad), so the database check carries no spurious signal
    at desk scale. Per-trial failures are recorded in the report rather than
    aborting the batch. Fully deterministic for a fixed spec seed.
    """
    params = params or SearchParams()
    for name in algorithms:
        if name not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {name!r}")
    report = ExperimentReport(
        components=spec.components,
        trials=spec.trials,
        seed=spec.seed,
        dataset_rows=dataset_rows,
        algorithms={name: AlgorithmSummary(trials=spec.trials) for name in algorithms},
    )
    for trial in range(spec.trials):
        model, anchor = gen_synthetic_classifier(spec, trial)
        truth = model.rule.anchored_to(anchor)
        trial_data = box_dataset(
            spec.schema, model.rule, dataset_rows,
            seed=derive_seed(spec.seed, "trial-data", trial),
        )
        for name in algorithms:
            summary = report.algorithms[name]
            run_params = replace(
                params, seed=derive_seed(spec.seed, "run", trial, name)
            )
            try:
                result = ALGORITHMS[name](anchor, model, trial_data, run_params)
            except Exception as exc:  # recorded, batch continues
                summary.errors += 1
                report.failures.append(f"trial {trial} {name}: {exc}")
                continue
            summary.record(categorize_synthetic(result.top.rule, truth), result)
    return report
