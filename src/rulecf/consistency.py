"""Consistency checks: over the database, over samples drawn from a rule's
box, and via exact enumeration of the box for test-scale spaces. The grader
that combines the first two is ``explainers.consistency_level``."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classifiers import Classifier, good_mask, good_points
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
    schema: DatasetSchema, box: Sequence[range], s: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``s`` instances of a box (``DatasetSchema.box`` ranges of domain
    indices), uniform per feature."""
    if not all(box):
        raise SchemaError("rule admits no instance; nothing to sample")
    cols = [
        values[rng.integers(r.start, r.stop, size=s)]
        for values, r in zip(schema.domain_arrays, box)
    ]
    return np.column_stack(cols)


def violations_in_data(rule: Rule, data: Dataset, model: Classifier) -> int:
    """Number of database instances satisfying the rule with a good outcome."""
    mask = rule.matrix_mask(data.matrix)
    if not mask.any():
        return 0
    scores = model.predict_batch(data.matrix[mask])
    return int(np.count_nonzero(good_mask(scores)))


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
    if math.prod(len(r) for r in box) > cap:
        return BruteForceOutcome.TOO_LARGE
    if any(len(goods) for goods in good_points(model, schema, box)):
        return BruteForceOutcome.INCONSISTENT
    return BruteForceOutcome.CONSISTENT
