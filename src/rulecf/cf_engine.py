"""Counterfactual search inside a rule's box.

Given a bad-outcome anchor instance and a rule, the engine looks for
good-outcome instances inside the rule's box (:meth:`DatasetSchema.box`),
drawing candidate values only from the schema domains. Small boxes are
enumerated exhaustively, which makes a NotFound answer exact there; larger
boxes fall back to a seeded genetic search whose initial population contains
every admissible single-feature perturbation of the anchor, so any classifier
whose bad region is a single axis-aligned box is still decided exactly.

Returned counterfactuals are redundancy-reduced: no single changed feature
can be reverted to the anchor value without losing the good outcome.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .classifiers import Classifier, good_mask, is_bad_score
from .schema import EMPTY_RULE, Dataset, DatasetSchema, Instance, Rule, SchemaError


class GoodAnchorError(ValueError):
    """The instance to explain already has the good outcome."""


# effort of the genetic path: offspring per generation and survivors kept,
# the generation limit, the generations without a new counterfactual after
# which it stops (having found none, or some), and the most single-feature
# seeds it evaluates
POPULATION_SIZE = 100
MAX_GENERATIONS = 50
STALL_GENERATIONS = 10
GOOD_STALL = 2
SEED_CAP = 4096


@dataclass(frozen=True)
class CfBudget:
    """Search effort for one counterfactual query: boxes of at most
    ``exhaustive_cap`` points are enumerated, larger ones searched genetically."""

    exhaustive_cap: int = 20_000

    def __post_init__(self):
        if self.exhaustive_cap < 1:
            raise ValueError("exhaustive_cap must be positive")


@dataclass(frozen=True)
class CfQuery:
    """A request for up to ``k`` counterfactuals of ``anchor`` inside ``rule``'s box."""

    anchor: tuple
    rule: Rule = EMPTY_RULE
    k: int = 10
    budget: CfBudget = CfBudget()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "anchor", tuple(float(v) for v in self.anchor))
        if self.k < 1:
            raise ValueError("k must be at least 1")


@dataclass(frozen=True)
class Counterfactual:
    """A good-outcome instance, its changed features, and its distance."""

    instance: tuple
    changed: frozenset
    distance: float

    @classmethod
    def of(cls, anchor: Instance, x: tuple, schema: DatasetSchema) -> "Counterfactual":
        return cls(x, changed_features(anchor, x), distance(anchor, x, schema))

    @property
    def sort_key(self) -> tuple:
        return (self.distance, self.instance)


@dataclass(frozen=True)
class CfResult:
    """Either a non-empty distance-sorted list of counterfactuals, or nothing."""

    counterfactuals: tuple = ()

    @property
    def found(self) -> bool:
        return bool(self.counterfactuals)


NOT_FOUND = CfResult()


def changed_features(anchor: Instance, x: Instance) -> frozenset:
    return frozenset(j for j, (a, b) in enumerate(zip(anchor, x)) if a != b)


def distance(x: Instance, x_prime: Instance, schema: DatasetSchema) -> float:
    """Half the changed-feature fraction plus half the span-normalized shifts."""
    if len(x) != schema.n or len(x_prime) != schema.n:
        raise SchemaError("distance arguments must match the schema width")
    n = schema.n
    count = 0
    shift = 0.0
    for j, (a, b) in enumerate(zip(x, x_prime)):
        if a != b:
            count += 1
            span = schema.features[j].span
            if span > 0:
                shift += abs(a - b) / span
    return 0.5 * count / n + 0.5 * shift


def _revert_while_good(anchor: Instance, cand: tuple, good: Callable) -> tuple:
    """Revert changed features to the anchor one at a time while ``good``
    accepts the reverted instance.

    Reverts are attempted in ascending feature order and restarted after each
    success, so the result is deterministic. ``good`` answers False both for
    a bad outcome and for a revert the caller must skip.
    """
    current = cand
    while True:
        for j in sorted(changed_features(anchor, current)):
            reverted = current[:j] + (anchor[j],) + current[j + 1:]
            if good(reverted):
                current = reverted
                break
        else:
            return current


def reduce_changes(
    anchor: Instance,
    cand: Instance,
    model: Classifier,
    rule: Rule = EMPTY_RULE,
) -> tuple:
    """Revert changed features one at a time while the outcome stays good.

    A revert that would leave ``rule``'s box is skipped.
    """
    cand = tuple(float(v) for v in cand)
    anchor = tuple(float(v) for v in anchor)
    if is_bad_score(model.predict(cand)):
        raise ValueError("candidate must have a good outcome before reduction")
    return _revert_while_good(
        anchor, cand, lambda x: rule.evaluate(x) and not is_bad_score(model.predict(x))
    )


def _ranked(found: dict, k: int) -> CfResult:
    return CfResult(tuple(sorted(found.values(), key=lambda cf: cf.sort_key)[:k]))


class CounterfactualEngine:
    """Stateful search wrapper exposing query and generation counters."""

    def __init__(self):
        self.queries = 0
        self.generations = 0
        self.exhaustive_runs = 0

    def find_counterfactuals(self, model: Classifier, data: Dataset, query: CfQuery) -> CfResult:
        schema = data.schema
        schema.validate_instance(query.anchor)
        if not is_bad_score(model.predict(query.anchor)):
            raise GoodAnchorError("anchor instance already has the good outcome")
        self.queries += 1

        box = schema.box(query.rule)
        size = math.prod(len(r) for r in box)
        if size == 0:
            return NOT_FOUND
        if size <= query.budget.exhaustive_cap:
            return self._exhaustive(model, schema, query, box)
        return self._genetic(model, schema, query, box)

    # -- exhaustive path ----------------------------------------------------

    def _exhaustive(self, model, schema, query, box) -> CfResult:
        self.exhaustive_runs += 1
        anchor = query.anchor
        goods: list = []
        for points in schema.box_points(box, 4096):
            goods.extend(map(tuple, points[good_mask(model.predict_batch(points))].tolist()))
        # a revert is accepted iff it lands on a good point of the box
        good_set = set(goods)
        goods.sort(key=lambda inst: (distance(anchor, inst, schema), inst))

        found: dict = {}
        for inst in goods:
            reduced = _revert_while_good(anchor, inst, good_set.__contains__)
            if reduced not in found:
                found[reduced] = Counterfactual.of(anchor, reduced, schema)
            if len(found) >= query.k:
                break
        return _ranked(found, query.k)

    # -- genetic path -------------------------------------------------------

    def _genetic(self, model, schema, query, box) -> CfResult:
        anchor = query.anchor
        rng = random.Random(query.seed)
        domains = [schema.domain(j) for j in range(schema.n)]
        scores: dict = {}

        def evaluate(cands: Iterable[tuple]) -> None:
            fresh = [c for c in dict.fromkeys(cands) if c not in scores]
            if not fresh:
                return
            batch = model.predict_batch(np.asarray(fresh, dtype=np.float64))
            for inst, sc in zip(fresh, batch):
                scores[inst] = float(sc)

        anchor_pos = [int(np.searchsorted(v, a)) for v, a in zip(schema.domain_arrays, anchor)]
        # every candidate lies in the box, so reverting feature j leaves the
        # box iff the anchor's own value lies outside box[j]
        outside = [j for j, r in enumerate(box) if anchor_pos[j] not in r]

        def good(inst: tuple) -> bool:
            for j in outside:
                if inst[j] == anchor[j]:
                    return False
            if inst not in scores:
                evaluate([inst])
            return not is_bad_score(scores[inst])

        def replaced(inst: tuple, j: int, p: int) -> tuple:
            """``inst`` with feature ``j`` set to the ``p``-th value of its
            index range other than ``inst[j]`` (which lies in that range)."""
            i = box[j].start + p
            if domains[j][i] >= inst[j]:
                i += 1
            return inst[:j] + (domains[j][i],) + inst[j + 1:]

        # base point: the anchor projected into the box, i.e. its own value
        # or the nearer end of each index range
        base = tuple(
            domains[j][min(max(i, r.start), r.stop - 1)]
            for j, (i, r) in enumerate(zip(anchor_pos, box))
        )
        mutable = [j for j in range(schema.n) if len(box[j]) > 1]

        seeds = [base]
        single_total = sum(len(box[j]) - 1 for j in mutable)
        per_feature = max(1, SEED_CAP // max(1, len(mutable)))
        for j in mutable:
            count = len(box[j]) - 1
            if single_total <= SEED_CAP or count <= per_feature:
                picks = range(count)
            else:
                picks = sorted(rng.sample(range(count), per_feature))
            seeds.extend(replaced(base, j, p) for p in picks)
        evaluate(seeds)

        goods: dict = {}

        def absorb(cands: Iterable[tuple]) -> int:
            new = 0
            for inst in cands:
                if is_bad_score(scores[inst]):
                    continue
                reduced = _revert_while_good(anchor, inst, good)
                if reduced not in goods:
                    goods[reduced] = Counterfactual.of(anchor, reduced, schema)
                    new += 1
            return new

        def select(cands: Iterable[tuple]) -> list:
            uniq = list(dict.fromkeys(cands))
            good_part = sorted(
                (i for i in uniq if not is_bad_score(scores[i])),
                key=lambda i: (distance(anchor, i, schema), i),
            )
            bad_part = sorted(
                (i for i in uniq if is_bad_score(scores[i])),
                key=lambda i: (-scores[i], i),
            )
            return (good_part + bad_part)[:POPULATION_SIZE]

        absorb(seeds)
        pop = select(seeds)
        no_good_gens = 0
        good_stall = 0

        for _generation in range(MAX_GENERATIONS):
            if goods and good_stall >= GOOD_STALL:
                break
            if not goods and no_good_gens >= STALL_GENERATIONS:
                break
            offspring = []
            for _ in range(POPULATION_SIZE):
                if len(pop) >= 2 and rng.random() < 0.3:
                    a, b = rng.sample(pop, 2)
                    child = list(a)
                    for j in sorted(changed_features(anchor, b)):
                        if a[j] == anchor[j] or rng.random() < 0.5:
                            child[j] = b[j]
                    offspring.append(tuple(child))
                else:
                    parent = rng.choice(pop)
                    j = rng.choice(mutable)
                    offspring.append(replaced(parent, j, rng.randrange(len(box[j]) - 1)))
            evaluate(offspring)
            self.generations += 1
            new = absorb(offspring)
            if goods:
                good_stall = 0 if new else good_stall + 1
            else:
                no_good_gens += 1
            pop = select(pop + offspring)

        return _ranked(goods, query.k)
