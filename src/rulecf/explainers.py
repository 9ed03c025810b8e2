"""Rule-explanation search: a genetic baseline, its counterfactual-guided
extension, and a greedy search driven entirely by the counterfactual oracle.

All three take a bad-outcome anchor instance, a black-box classifier, and the
historical dataset, and return ranked candidate rules with consistency grades,
fitness scores, call counters, and a per-phase runtime breakdown. Runs are
deterministic for a fixed seed.
"""

from __future__ import annotations

import heapq
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .cf_engine import CfBudget, GoodAnchorError
from .classifiers import Classifier, good_mask
from .consistency import ConsistencyLevel, Level, sample_satisfying, violations_in_data
from .draws import sample_picks
from .duality import CounterfactualOracle, cf_rules, derive_seed
from .schema import (
    Dataset,
    Instance,
    Rule,
    SlotCodec,
    mask_bits,
    mask_order,
    mask_slots,
    rows_in_box,
)


@dataclass(frozen=True)
class SearchParams:
    """Hyperparameters shared by the explanation algorithms."""

    q: int = 50                # rules kept per iteration
    k: int = 5                 # rules returned
    s: int = 1000              # consistency samples per rule
    m: int = 3                 # mutations per candidate
    c: int = 2                 # crossovers per pair
    seed: int = 0
    cf_period: int = 3         # iterations between counterfactual expansions
    max_iterations: int = 200
    cf_k: int = 10             # counterfactuals requested per query
    cf_budget: CfBudget = field(default_factory=CfBudget)

    def __post_init__(self):
        if not (1 <= self.k <= self.q):
            raise ValueError("need 1 <= k <= q")
        if self.s < 1 or self.m < 1 or self.c < 1:
            raise ValueError("s, m, and c must be positive")
        if self.cf_period < 1 or self.max_iterations < 1 or self.cf_k < 1:
            raise ValueError("cf_period, max_iterations, and cf_k must be positive")


@dataclass(frozen=True)
class ScoredRule:
    rule: Rule
    level: ConsistencyLevel
    score: float
    cf_verified: bool = False


@dataclass
class RunStats:
    iterations: int
    classifier_calls: int
    cf_calls: int
    wall_time: float
    phase_times: dict


@dataclass
class ExplanationResult:
    rules: list
    stats: RunStats
    converged: bool

    @property
    def top(self) -> Optional[ScoredRule]:
        return self.rules[0] if self.rules else None


def fitness(cardinality: int, n: int, level: ConsistencyLevel, m: int, s: int) -> float:
    """Interpretability share plus a consistency share depending on the grade."""
    if cardinality < 0 or cardinality > 2 * n:
        raise ValueError(f"cardinality {cardinality} outside 0..{2 * n}")
    if level.vd > m or level.vs > s:
        raise ValueError("violation counts exceed their denominators")
    base = 0.25 * (1.0 - cardinality / (2.0 * n))
    if level.level is Level.FDC:
        return base + 0.25 * (1.0 - level.vd / m)
    if level.level is Level.FGC:
        return base + 0.25 * (1.0 - level.vs / s) + 0.25
    return base + 0.75


def rank_key(scored: ScoredRule) -> tuple:
    """Selection order: grade first, then score, then smaller rules, then
    canonical component order. Grades never interleave. ``_Scorer.rank``
    keeps this order after dropping clones."""
    return (
        -int(scored.level.level),
        -scored.score,
        scored.rule.cardinality,
        tuple(c.sort_key for c in scored.rule.components),
    )


# The genetic operators work on slot masks (see ``schema.SlotCodec``). Slots
# ascend in canonical component order, so sampling a mask's bit list draws
# exactly the components a sample of the rule's sorted components would.

def mutate(pop: Iterable[int], universe: int, m: int, rng: random.Random) -> list:
    """Per parent mask, up to ``m`` children each adding one slot of
    ``universe`` the parent lacks."""
    getrandbits = rng.getrandbits
    children = []
    for parent in pop:
        complement = mask_bits(universe & ~parent)
        for bit in sample_picks(getrandbits, complement, min(m, len(complement))):
            children.append(parent | bit)
    return children


def crossover(pop: Iterable[int], c: int, rng: random.Random) -> list:
    """Per unordered pair of masks, ``c`` children sampled from their union.
    A pair whose child must hold every slot of the union draws nothing."""
    masks = list(pop)
    sizes = [mask.bit_count() for mask in masks]
    getrandbits = rng.getrandbits
    children = []
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            union = masks[i] | masks[j]
            size = union.bit_count()
            t = min(max(sizes[i], sizes[j]) + 1, size)
            if t == size:
                # most pairs of a converging population are such pairs
                children.extend([union] * c)
            else:
                bits = mask_bits(union)
                for _ in range(c):
                    children.append(sum(sample_picks(getrandbits, bits, t)))
    return children


class _Scorer:
    """Per-run consistency grading of slot masks anchored at ``x``.

    Database violations are counted through per-slot bitsets over the good
    rows of the dataset, so grading a rule needs no classifier calls unless
    it survives the database and requires sampling.

    Ranking grades a candidate that needs sampling only while it can still
    enter the top ``q``. A mask free of database violations ranks at best
    as a GC rule of its cardinality, which is exactly its key when none of
    its samples is good; once ``q`` graded masks rank above that bound, the
    mask cannot enter (Fagin, Lotem and Naor's Threshold Algorithm). A
    grade depends only on the box and the run's seed, never on what was
    graded before, so the kept list is the one a scorer grading every mask
    would keep, and a run's ``classifier_calls`` count only the rules it
    graded.

    Every sampled grade reads the same uniform matrix, drawn once per run
    (``_grading_uniforms``): sibling rules are compared on common random
    numbers. A component on a feature the model ignores then leaves ``vs``
    unchanged, so ranking drops such clones of a rule (``rank``).

    One memo holds each graded mask's rank key and grade; the fitness is the
    key's negated second entry.
    """

    def __init__(self, model: Classifier, data: Dataset, s: int, seed: int, x: Instance):
        self.model = model
        self.data = data
        self.s = s
        self.schema = data.schema
        self._u = _grading_uniforms(seed, s, self.schema.n)
        self.codec = SlotCodec(x)
        good_rows = data.matrix[good_mask(model.predict_batch(data.matrix))]
        self._slot_rows, self._all_good = self.codec.row_bits(good_rows)
        self._memo: dict = {}  # mask -> (rank key, grade)
        gc = ConsistencyLevel(Level.GC)
        n = self.schema.n
        # the negated fitness of a GC rule, by cardinality: a bound no grade beats
        self._gc_scores = [-fitness(card, n, gc, data.m, s) for card in range(2 * n + 1)]

    def _screen(self, mask: int) -> tuple:
        """The slots of ``mask`` and the good database rows in its box."""
        slots = mask_slots(mask)
        return slots, rows_in_box(slots, self._slot_rows, self._all_good).bit_count()

    def _grade(self, mask: int, screened: Optional[tuple] = None) -> tuple:
        """The rank key and grade of ``mask``, computed once; ``screened`` is
        its ``_screen``, used only when the mask is not yet graded."""
        entry = self._memo.get(mask)
        if entry is None:
            slots, vd = screened or self._screen(mask)
            components = self.codec.components_of(mask)
            level = _graded(vd, components, self.model, self.schema, self._u)
            score = fitness(len(slots), self.schema.n, level, self.data.m, self.s)
            # rank_key's order on masks: slots ascend like sorted components
            entry = self._memo[mask] = ((-int(level.level), -score, len(slots), slots), level)
        return entry

    def level(self, mask: int) -> ConsistencyLevel:
        """The grade of ``mask``, computed once."""
        return self._grade(mask)[1]

    def rank(self, masks: Iterable[int], q: int) -> list:
        """Deduplicate masks and drop clones (``_clone``); the best ``q`` of
        the rest in ``rank_key`` order.

        The heap holds ``(key, mask)`` entries, taken in ascending order of
        the best key each mask can reach: its key in the memo, else its GC
        key, which a mask free of database violations is graded for only
        when it is reached. A popped mask whose own key differs from its
        entry's goes back in at its own key. Taking stops at the ``q``-th
        mask kept; the masks not reached cannot enter. Every GC key lies
        before every sampled rule's key, so all masks of the pool are graded
        by the first clone test."""
        memo = self._memo
        pool = dict.fromkeys(masks)
        heap = []
        for mask in pool:
            if mask not in memo:
                slots, vd = screened = self._screen(mask)
                if not vd:
                    card = len(slots)
                    heap.append(((-int(Level.GC), self._gc_scores[card], card, slots), mask))
                    continue
                self._grade(mask, screened)
            heap.append((memo[mask][0], mask))
        heapq.heapify(heap)
        top = []
        while heap and len(top) < q:
            key, mask = heapq.heappop(heap)
            own, level = self._grade(mask, (key[3], 0))
            if own != key:  # a sampled rule: back in at its own key
                heapq.heappush(heap, (own, mask))
            elif level.level is not Level.FGC or not self._clone(mask, pool):
                top.append(mask)
        return top

    def _clone(self, mask: int, pool) -> bool:
        """A one-slot subset of the sampled rule ``mask`` in ``pool`` (all
        graded) has its grade. On common random numbers a component on a
        feature the model ignores leaves every sample's outcome and so ``vs``
        unchanged: such a superset tells the search nothing its subset does
        not, and kept, these copies of one rule would fill the population."""
        memo = self._memo
        level = memo[mask][1]
        return any(mask ^ bit in pool and memo[mask ^ bit][1] == level for bit in mask_bits(mask))

    def score(self, mask: int, oracle: Optional[CounterfactualOracle] = None) -> ScoredRule:
        key, level = self._grade(mask)
        score = -key[1]  # the rank key holds the negated fitness
        return ScoredRule(self.codec.rule(mask), level, score, _cf_verified(oracle, mask, level))


def consistency_level(
    rule: Rule, data: Dataset, model: Classifier, s: int = 1000, seed: int = 0
) -> ConsistencyLevel:
    """Grade a rule: database violations first, then ``s`` sampled instances.

    The samples come from ``_grading_uniforms(seed, s, n)``, so the grade
    depends only on the rule's box, ``seed`` and ``s``, not on which rules
    were checked first. The searches grade their candidate masks on the same
    matrix (``_Scorer.level``), so a rule grades the same here as there.
    """
    if s < 1:
        raise ValueError("sample count must be at least 1")
    u = _grading_uniforms(seed, s, data.schema.n)
    return _graded(violations_in_data(rule, data, model), rule, model, data.schema, u)


def _grading_uniforms(seed: int, s: int, n: int) -> np.ndarray:
    """The ``(s, n)`` uniforms in ``[0, 1)`` that every sampled grade under
    ``seed`` reads (``sample_satisfying``)."""
    return np.random.default_rng(derive_seed(seed, "vs")).random((s, n))


def _graded(vd, components, model, schema, u) -> ConsistencyLevel:
    """The grade of a rule with ``vd`` database violations: FDC if it has
    any, else by the good outcomes among the instances that the uniform
    matrix ``u`` picks from the box of ``components`` (a ``Rule`` or its
    components in canonical order), one per row. An empty box holds no
    instance: it grades GC, with nothing drawn and no classifier call."""
    if vd:
        return ConsistencyLevel.from_counts(vd, 0)
    box = schema.box(components)
    if not all(box):
        return ConsistencyLevel(Level.GC)
    # a module-level name here: bench/tracing.py counts sampled rules by rebinding it
    samples = sample_satisfying(schema, box, u)
    vs = int(np.count_nonzero(good_mask(model.predict_batch(samples))))
    return ConsistencyLevel.from_counts(0, vs)


def _cf_verified(oracle: Optional[CounterfactualOracle], mask: int, level) -> bool:
    """The oracle found no counterfactual in the rule's box and the database
    holds no good row there: a database violation proves inconsistency even
    where a heuristic counterfactual search missed it."""
    if oracle is None or level.vd:
        return False
    cached = oracle.cache.get(mask)
    return cached is not None and not cached.found


def cfrules_scheduled(iteration: int, cf_period: int, prev_levels) -> bool:
    """Counterfactual expansion runs on a fixed period (iterations 1,
    1 + period, ...) and additionally whenever the previous iteration's
    top rules (given by their consistency levels) were all free of database
    violations."""
    if (iteration - 1) % cf_period == 0:
        return True
    return prev_levels is not None and all(level.vd == 0 for level in prev_levels)


class _Run:
    """Everything one explanation does around its search: the anchor check,
    the classifier-call and counterfactual-query baselines, wall time per
    named phase, the scorer, the counterfactual oracle (when ``use_cf``;
    built from ``params`` unless one is handed in) and the assembled result."""

    def __init__(self, x, model, data, params, oracle=None, use_cf=True):
        self.t0 = time.perf_counter()
        self.phase_times: dict = {}
        self.model = model
        self.calls0 = model.calls
        self.params = params = params or SearchParams()
        self.x = x = tuple(float(v) for v in x)
        data.schema.validate_instance(x)
        if not model.is_bad(x):
            raise GoodAnchorError("cannot explain an instance with the good outcome")
        with self.phase("prep"):
            self.scorer = _Scorer(model, data, params.s, params.seed, x)
            if use_cf and oracle is None:
                oracle = CounterfactualOracle(
                    model, data, k=params.cf_k, budget=params.cf_budget, seed=params.seed
                )
            self.oracle = oracle
            self.cf0 = oracle.engine.queries if oracle is not None else 0

    @contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phase_times[name] = self.phase_times.get(name, 0.0) + time.perf_counter() - t0

    def result(self, masks, iterations: int, converged: bool) -> ExplanationResult:
        rules = [self.scorer.score(mask, self.oracle) for mask in masks]
        stats = RunStats(
            iterations=iterations,
            classifier_calls=self.model.calls - self.calls0,
            cf_calls=self.oracle.engine.queries - self.cf0 if self.oracle is not None else 0,
            wall_time=time.perf_counter() - self.t0,
            phase_times=dict(self.phase_times),
        )
        return ExplanationResult(rules=rules, stats=stats, converged=converged)


def _run_genetic(
    x: Instance,
    model: Classifier,
    data: Dataset,
    params: Optional[SearchParams],
    use_cf: bool,
    oracle: Optional[CounterfactualOracle] = None,
) -> ExplanationResult:
    run = _Run(x, model, data, params, oracle, use_cf)
    x, params, oracle, scorer = run.x, run.params, run.oracle, run.scorer
    rng_cross = random.Random(derive_seed(params.seed, "crossover"))
    rng_mut = random.Random(derive_seed(params.seed, "mutate"))

    # the search holds rules as slot masks; Rules are built only for the
    # returned top rules
    with run.phase("prep"):
        pop = mask_bits(scorer.codec.full)
        if use_cf:
            pop = list(dict.fromkeys(pop + cf_rules([0], x, oracle)))
        seen = set(pop)

    topk: list = []
    prev_levels: Optional[list] = None
    converged = False
    iteration = 0
    while iteration < params.max_iterations:
        iteration += 1
        with run.phase("crossover"):
            cand = crossover(pop, params.c, rng_cross)
        with run.phase("mutate"):
            cand.extend(mutate(pop, scorer.codec.full, params.m, rng_mut))
        if use_cf and cfrules_scheduled(iteration, params.cf_period, prev_levels):
            with run.phase("cfrules"):
                cand.extend(cf_rules(pop, x, oracle))
        new_rules = set(cand).difference(seen)
        seen.update(new_rules)

        with run.phase("select"):
            pop = scorer.rank(pop + cand, params.q)
        topk = pop[: params.k]
        prev_levels = [scorer.level(mask) for mask in topk]

        consistent_ok = all(level.level is Level.GC for level in prev_levels)
        if consistent_ok and use_cf:
            with run.phase("cfrules"):
                consistent_ok = all(oracle.consistent(mask, x) for mask in topk)
        stable = new_rules.isdisjoint(topk)
        if consistent_ok and stable:
            converged = True
            break

    if use_cf and topk and oracle.consistent(topk[0], x):
        with run.phase("reduce"):
            reduced = reduce_redundancy(topk[0], x, oracle)
        if reduced != topk[0]:
            topk = ([reduced] + [r for r in topk if r != reduced])[: params.k]

    return run.result(topk, iteration, converged)


def genetic_rule(
    x: Instance, model: Classifier, data: Dataset, params: Optional[SearchParams] = None
) -> ExplanationResult:
    """Genetic search graded by database and sampled consistency only."""
    return _run_genetic(x, model, data, params, use_cf=False)


def genetic_rule_cf(
    x: Instance,
    model: Classifier,
    data: Dataset,
    params: Optional[SearchParams] = None,
    oracle: Optional[CounterfactualOracle] = None,
) -> ExplanationResult:
    """Genetic search with counterfactual-driven candidates and verification."""
    return _run_genetic(x, model, data, params, use_cf=True, oracle=oracle)


def greedy_rule_cf(
    x: Instance,
    model: Classifier,
    data: Dataset,
    params: Optional[SearchParams] = None,
    oracle: Optional[CounterfactualOracle] = None,
) -> ExplanationResult:
    """Expand only the smallest candidate until it verifies consistent.

    The population holds counterfactual-derived candidate masks sorted by
    cardinality; children are strictly larger than the rule they replace, so
    popped cardinalities never decrease and termination is guaranteed.
    """
    run = _Run(x, model, data, params, oracle)
    x, params, oracle = run.x, run.params, run.oracle
    # children strictly contain their parent and the head is always a
    # smallest mask, so no head is popped twice
    iterations = 0
    with run.phase("cfrules"):
        pop = sorted(set(cf_rules([0], x, oracle)), key=mask_order)
        final: Optional[int] = 0 if oracle.consistent(0, x) else None
        while final is None and pop:
            head = pop.pop(0)
            if oracle.consistent(head, x):
                final = head
            elif iterations < params.max_iterations:
                iterations += 1
                pop = sorted(
                    set(pop).union(cf_rules([head], x, oracle)), key=mask_order
                )[: params.q]
            else:
                break

        converged = final is not None
        if final is None:
            # safety fallback: freezing every feature is always verifiable
            final = run.scorer.codec.full
            oracle.consistent(final, x)

    return run.result([final], iterations, converged)


def reduce_redundancy(mask: int, x: Instance, oracle: CounterfactualOracle) -> int:
    """Drop slots one at a time, lowest first, while the rule stays verified
    consistent."""
    if not oracle.consistent(mask, x):
        raise ValueError("rule must be verified consistent before reduction")
    while bit := _droppable_slot(mask, x, oracle):
        mask &= ~bit
    return mask


def _droppable_slot(mask: int, x: Instance, oracle: CounterfactualOracle) -> int:
    """The lowest slot of ``mask`` whose removal leaves the rule verified
    consistent, or 0 if there is none."""
    for bit in mask_bits(mask):
        if oracle.consistent(mask & ~bit, x):
            return bit
    return 0
