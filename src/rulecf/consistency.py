"""Consistency checks: over the database, over samples drawn from a rule's
box, and via exact enumeration of the box for test-scale spaces."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .classifiers import Classifier, good_mask
from .duality import derive_seed, _rule_digest
from .schema import Dataset, DatasetSchema, Rule, SchemaError


class Level(enum.IntEnum):
    """Consistency grades, ordered worst to best."""

    FDC = 0  # violated by the database
    FGC = 1  # database-clean, violated by sampled instances
    GC = 2   # clean on both


@dataclass(frozen=True)
class ConsistencyLevel:
    level: Level
    vd: int = 0
    vs: int = 0

    def __post_init__(self):
        ok = (
            (self.level is Level.FDC and self.vd >= 1)
            or (self.level is Level.FGC and self.vd == 0 and self.vs >= 1)
            or (self.level is Level.GC and self.vd == 0 and self.vs == 0)
        )
        if not ok:
            raise ValueError(
                f"level {self.level.name} inconsistent with VD={self.vd}, VS={self.vs}"
            )

    @classmethod
    def from_counts(cls, vd: int, vs: int) -> "ConsistencyLevel":
        if vd >= 1:
            return cls(Level.FDC, vd, 0)
        if vs >= 1:
            return cls(Level.FGC, 0, vs)
        return cls(Level.GC, 0, 0)


def sample_satisfying(
    schema: DatasetSchema, rule: Rule, s: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``s`` instances of the rule's satisfying set, uniform per feature."""
    box = schema.box(rule)
    if any(not r for r in box):
        raise SchemaError("rule admits no instance; nothing to sample")
    cols = [
        values[rng.integers(r.start, r.stop, size=s)]
        for values, r in zip(schema.domain_arrays, box)
    ]
    return np.column_stack(cols)


def violations_in_data(rule: Rule, data: Dataset, model: Classifier) -> int:
    """Number of database instances satisfying the rule with a good outcome."""
    if data.m == 0:
        return 0
    mask = rule.matrix_mask(data.matrix)
    if not mask.any():
        return 0
    scores = model.predict_batch(data.matrix[mask])
    return int(np.count_nonzero(good_mask(scores)))


def consistency_level(
    rule: Rule,
    data: Dataset,
    model: Classifier,
    s: int = 1000,
    seed: int = 0,
) -> ConsistencyLevel:
    """Grade a rule: database violations first, then ``s`` sampled instances.

    Sampling is seeded per rule (mixing ``seed`` with the rule itself), so the
    grade does not depend on how many other rules were checked first.
    """
    if s < 1:
        raise ValueError("sample count must be at least 1")
    vd = violations_in_data(rule, data, model)
    if vd > 0:
        return ConsistencyLevel.from_counts(vd, 0)
    rng = np.random.default_rng(derive_seed(seed, "vs", _rule_digest(rule)))
    samples = sample_satisfying(data.schema, rule, s, rng)
    scores = model.predict_batch(samples)
    vs = int(np.count_nonzero(good_mask(scores)))
    return ConsistencyLevel.from_counts(0, vs)


class BruteForceOutcome(enum.Enum):
    CONSISTENT = "consistent"
    INCONSISTENT = "inconsistent"
    TOO_LARGE = "too_large"


def brute_force_global_consistent(
    rule: Rule,
    model: Classifier,
    schema: DatasetSchema,
    cap: int = 1_000_000,
) -> BruteForceOutcome:
    """Exact consistency by enumerating the rule's satisfying set, if small."""
    box = schema.box(rule)
    if not all(box):
        return BruteForceOutcome.CONSISTENT  # an empty box holds no instance
    size = 1
    for r in box:
        size *= len(r)
        if size > cap:
            return BruteForceOutcome.TOO_LARGE
    for points in schema.box_points(box, 8192):
        if good_mask(model.predict_batch(points)).any():
            return BruteForceOutcome.INCONSISTENT
    return BruteForceOutcome.CONSISTENT
