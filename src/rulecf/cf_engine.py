"""Counterfactual search inside a rule's box.

Given a bad-outcome anchor instance and a rule, the engine looks for
good-outcome instances inside the rule's box (:meth:`DatasetSchema.box`),
drawing candidate values only from the schema domains. Small boxes are
enumerated exhaustively, which makes a NotFound answer exact there; larger
boxes fall back to a seeded genetic search. While the box admits at most
``SEED_CAP`` single-feature perturbations of the anchor (projected into the
box), its initial population holds every one, so a classifier whose bad
region is a single axis-aligned box is still decided exactly. Above the cap,
a feature with more alternatives than its share of the cap is seeded with a
random sample of them, and that exactness no longer holds.

Returned counterfactuals are redundancy-reduced: no single changed feature
can be reverted to the anchor value without losing the good outcome. One
kernel, :func:`_reduce_all`, reduces for both paths and for
:func:`reduce_changes`. It walks all candidates of a call in lock step, so
each round scores every revert the walks wait on in one ``predict_batch``,
and it memoises each visited point's reduced point for the whole query.
Each distinct point's :func:`distance` is computed once per query, in
vectorised form and bit for bit equal.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Collection, Iterable

import numpy as np

from .classifiers import Classifier, good_mask, good_points
from .draws import below, sample_picks
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
    """A request for up to ``k`` counterfactuals of ``anchor`` inside ``rule``'s
    box; ``rule`` is a ``Rule`` or a tuple of its components in canonical order."""

    anchor: tuple
    rule: Rule | tuple = EMPTY_RULE
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


class _Distances:
    """:func:`distance` from one anchor, computed once per distinct point.

    A point's terms ``|value - anchor| / span`` are the floats
    :func:`distance` computes, and ``np.add.accumulate`` adds them strictly
    left to right, in ascending feature order as :func:`distance` does, so
    every value matches it bit for bit: an unchanged feature adds an exact
    ``0.0``. (``np.sum`` adds pairwise and rounds differently.)
    """

    def __init__(self, schema: DatasetSchema, anchor: tuple):
        self.anchor = np.asarray(anchor, dtype=np.float64)
        # a one-value domain never changes, so its span never divides a shift
        self.spans = np.array([f.span or 1.0 for f in schema.features])
        self.cache: dict = {}

    def of_matrix(self, points: np.ndarray) -> np.ndarray:
        """The distance of each row of a (rows, n) matrix of domain values."""
        shift = np.add.accumulate(np.abs(points - self.anchor) / self.spans, axis=1)[:, -1]
        count = np.count_nonzero(points != self.anchor, axis=1)
        return 0.5 * count / len(self.spans) + 0.5 * shift

    def fill(self, points: list) -> None:
        """Enter each of the distinct ``points`` not yet cached into ``cache``."""
        missing = [p for p in points if p not in self.cache]
        if missing:
            dists = self.of_matrix(np.asarray(missing, dtype=np.float64))
            self.cache.update(zip(missing, dists.tolist()))

    def sort(self, points: np.ndarray) -> list:
        """The rows of ``points`` as tuples ordered by ``(distance, instance)``,
        with their distances cached."""
        dists = self.of_matrix(points)
        # the last key is the primary one; tuples compare feature 0 first
        order = np.lexsort([points[:, j] for j in reversed(range(points.shape[1]))] + [dists])
        ordered = list(map(tuple, points[order].tolist()))
        self.cache.update(zip(ordered, dists[order].tolist()))
        return ordered


def _reduce_all(
    anchor: tuple,
    cands: list,
    frozen: Collection[int],
    good: dict,
    score: Callable[[list], None],
    memo: dict,
) -> list:
    """The redundancy-reduced point of each good point of ``cands``.

    A point's walk reverts its changed features to the anchor one at a time,
    trying them in ascending order and restarting after each revert that
    keeps the outcome good, until no revert does. A revert of a feature in
    ``frozen`` is never accepted and never scored.

    ``good`` maps each scored point to whether its outcome is good. All walks
    advance in lock step: a walk goes on through scored points and stops at
    the first revert that has no score, and the round ends with one call
    ``score(points)`` for every revert the walks stop at, which must enter
    those points into ``good``. The walk from a point depends only on that
    point, so ``memo`` maps each point a walk passed to its reduced point,
    and a walk that reaches a memoised point stops there.
    """
    walks = [
        [c, [j for j, (a, v) in enumerate(zip(anchor, c)) if a != v and j not in frozen], 0, []]
        for c in dict.fromkeys(cands) if c not in memo
    ]
    while walks:
        waiting: list = []
        pending: dict = {}
        for walk in walks:
            current, features, pos, path = walk
            while current not in memo and pos < len(features):
                j = features[pos]
                reverted = current[:j] + (anchor[j],) + current[j + 1:]
                verdict = good.get(reverted)
                if verdict is None:
                    pending[reverted] = None
                    break
                if verdict:
                    path.append(current)
                    current = reverted
                    del features[pos]
                    pos = 0
                else:
                    pos += 1
            else:
                reduced = memo.get(current, current)
                memo[current] = reduced
                for state in path:
                    memo[state] = reduced
                continue
            walk[0], walk[2] = current, pos
            waiting.append(walk)
        if pending:
            score(list(pending))
        walks = waiting
    return [memo[c] for c in cands]


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
    if model.is_bad(cand):
        raise ValueError("candidate must have a good outcome before reduction")
    good = {cand: True}

    def score(points: list) -> None:
        inside = [p for p in points if rule.evaluate(p)]
        good.update(dict.fromkeys(points, False))
        if inside:
            good.update(zip(inside, good_mask(model.predict_batch(np.asarray(inside))).tolist()))

    return _reduce_all(anchor, [cand], (), good, score, {})[0]


def _ranked(anchor: tuple, points: Iterable[tuple], dists: _Distances, k: int) -> CfResult:
    """The ``k`` nearest of the distinct reduced ``points``, in
    ``Counterfactual.sort_key`` order: by distance (``dists.cache`` holds
    each), then by instance. A ``Counterfactual`` is built only for each of
    the at most ``k`` points returned."""
    cache = dists.cache
    nearest = sorted(points, key=lambda p: (cache[p], p))[:k]
    return CfResult(tuple(
        Counterfactual(p, changed_features(anchor, p), cache[p]) for p in nearest
    ))


class CounterfactualEngine:
    """Stateful search wrapper exposing query and generation counters."""

    def __init__(self):
        self.queries = 0
        self.generations = 0
        self.exhaustive_runs = 0

    def find_counterfactuals(self, model: Classifier, data: Dataset, query: CfQuery) -> CfResult:
        schema = data.schema
        schema.validate_instance(query.anchor)
        if not model.is_bad(query.anchor):
            raise GoodAnchorError("anchor instance already has the good outcome")
        self.queries += 1

        box = schema.box(query.rule)
        size = math.prod(len(r) for r in box)
        if size == 0:
            return CfResult()
        anchor = query.anchor
        anchor_pos = [int(np.searchsorted(v, a)) for v, a in zip(schema.domain_arrays, anchor)]
        # every walk stays in the box, so reverting feature j leaves the box
        # iff the anchor's own value lies outside box[j]
        outside = {j for j, r in enumerate(box) if anchor_pos[j] not in r}
        if size <= query.budget.exhaustive_cap:
            return self._exhaustive(model, schema, query, box, outside)
        return self._genetic(model, schema, query, box, anchor_pos, outside)

    # -- exhaustive path ----------------------------------------------------

    def _exhaustive(self, model, schema, query, box, outside) -> CfResult:
        self.exhaustive_runs += 1
        anchor = query.anchor
        points = np.concatenate(list(good_points(model, schema, box)))
        dists = _Distances(schema, anchor)
        goods = dists.sort(points)

        # a revert that stays in the box is good iff it lands on a good point
        good = dict.fromkeys(goods, True)

        def mark_bad(reverted: list) -> None:
            good.update(dict.fromkeys(reverted, False))

        # reduce the goods in distance order until k distinct counterfactuals
        # are found; a batch of k - len(found) cannot overshoot
        found: dict = {}
        memo: dict = {}
        done = 0
        while done < len(goods) and len(found) < query.k:
            batch = goods[done:done + query.k - len(found)]
            done += len(batch)
            found.update(dict.fromkeys(_reduce_all(anchor, batch, outside, good, mark_bad, memo)))
        return _ranked(anchor, found, dists, query.k)

    # -- genetic path -------------------------------------------------------

    def _genetic(self, model, schema, query, box, anchor_pos, outside) -> CfResult:
        anchor = query.anchor
        rng = random.Random(query.seed)
        domains = [schema.domain(j) for j in range(schema.n)]
        scores: dict = {}
        good: dict = {}

        def evaluate(cands: Iterable[tuple]) -> None:
            fresh = [c for c in dict.fromkeys(cands) if c not in scores]
            if not fresh:
                return
            batch = model.predict_batch(np.asarray(fresh, dtype=np.float64))
            scores.update(zip(fresh, batch.tolist()))
            good.update(zip(fresh, good_mask(batch).tolist()))

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
        memo: dict = {}
        dists = _Distances(schema, anchor)
        changed: dict = {}  # each crossover donor's changed features, ascending

        def absorb(cands: Iterable[tuple]) -> int:
            starts = [c for c in cands if good[c]]
            reduced = _reduce_all(anchor, starts, outside, good, evaluate, memo)
            new = [r for r in dict.fromkeys(reduced) if r not in goods]
            dists.fill(new)
            goods.update(dict.fromkeys(new))
            return len(new)

        def select(cands: Iterable[tuple]) -> list:
            uniq = list(dict.fromkeys(cands))
            good_part = [i for i in uniq if good[i]]
            dists.fill(good_part)
            good_part.sort(key=lambda i: (dists.cache[i], i))
            bad_part = sorted((i for i in uniq if not good[i]), key=lambda i: (-scores[i], i))
            return (good_part + bad_part)[:POPULATION_SIZE]

        absorb(seeds)
        pop = select(seeds)
        # generations since the last new counterfactual; while none is found
        # every generation counts, since finding one makes goods non-empty
        stall = 0

        getrandbits = rng.getrandbits
        for _generation in range(MAX_GENERATIONS):
            if stall >= (GOOD_STALL if goods else STALL_GENERATIONS):
                break
            offspring = []
            for _ in range(POPULATION_SIZE):
                if len(pop) >= 2 and rng.random() < 0.3:
                    a, b = sample_picks(getrandbits, pop, 2)
                    if b not in changed:
                        changed[b] = [j for j, (u, v) in enumerate(zip(anchor, b)) if u != v]
                    child = list(a)
                    for j in changed[b]:
                        if a[j] == anchor[j] or rng.random() < 0.5:
                            child[j] = b[j]
                    offspring.append(tuple(child))
                else:
                    parent = pop[below(getrandbits, len(pop))]
                    j = mutable[below(getrandbits, len(mutable))]
                    offspring.append(replaced(parent, j, below(getrandbits, len(box[j]) - 1)))
            evaluate(offspring)
            self.generations += 1
            stall = 0 if absorb(offspring) else stall + 1
            pop = select(pop + offspring)

        return _ranked(anchor, goods, dists, query.k)
