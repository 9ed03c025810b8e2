"""Rule-explanation search: a genetic baseline, its counterfactual-guided
extension, and a greedy search driven entirely by the counterfactual oracle.

All three take a bad-outcome anchor instance, a black-box classifier, and the
historical dataset, and return ranked candidate rules with consistency grades,
fitness scores, call counters, and a per-phase runtime breakdown. Runs are
deterministic for a fixed seed.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .cf_engine import CfBudget, GoodAnchorError
from .classifiers import Classifier, good_mask
from .consistency import ConsistencyLevel, Level, sample_satisfying
from .duality import (
    CfCache,
    CounterfactualOracle,
    _rule_digest,
    cf_rules,
    derive_seed,
)
from .schema import (
    Dataset,
    EMPTY_RULE,
    Instance,
    Rule,
    SchemaError,
    all_components,
    trivial_rule,
)


class PhaseTimer:
    """Accumulates wall time per named phase."""

    def __init__(self):
        self.records: dict = {}

    @contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.records[name] = self.records.get(name, 0.0) + time.perf_counter() - t0

    def as_dict(self) -> dict:
        return dict(self.records)


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
    cover_size_cap: int = 4
    max_candidates_per_parent: int = 32
    post_reduce: bool = True

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
    canonical component order. Grades never interleave."""
    return (
        -int(scored.level.level),
        -scored.score,
        scored.rule.cardinality,
        tuple(c.sort_key for c in scored.rule.components),
    )


def _as_rng(seed_or_rng) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def mutate(pop: Iterable[Rule], universe: Iterable, m: int, seed_or_rng=0) -> list:
    """Per parent, up to ``m`` children each adding one absent component."""
    rng = _as_rng(seed_or_rng)
    universe = tuple(universe)
    children = []
    for parent in pop:
        present = set(parent.components)
        complement = [c for c in universe if c not in present]
        for comp in rng.sample(complement, min(m, len(complement))):
            children.append(parent.union((comp,)))
    return children


def crossover(pop: Iterable[Rule], c: int, seed_or_rng=0) -> list:
    """Per unordered pair, ``c`` children sampled from the component union."""
    rng = _as_rng(seed_or_rng)
    rules = list(pop)
    children = []
    for i in range(len(rules)):
        for j in range(i + 1, len(rules)):
            a, b = rules[i], rules[j]
            union = sorted(
                set(a.components) | set(b.components), key=lambda comp: comp.sort_key
            )
            t = min(max(a.cardinality, b.cardinality) + 1, len(union))
            for _ in range(c):
                children.append(Rule(tuple(rng.sample(union, t))))
    return children


class _Scorer:
    """Per-run consistency grading with memoized database checks.

    Database violations are counted through per-component bitsets over the
    good rows of the dataset, so grading a rule needs no classifier calls
    unless it survives the database and requires sampling.
    """

    def __init__(self, model: Classifier, data: Dataset, s: int, seed: int):
        self.model = model
        self.data = data
        self.s = s
        self.seed = seed
        self.schema = data.schema
        if data.m:
            d_scores = model.predict_batch(data.matrix)
            self._good_rows = data.matrix[good_mask(d_scores)]
        else:
            self._good_rows = np.zeros((0, self.schema.n))
        g = len(self._good_rows)
        # build the all-rows mask through packbits too: it pads the final
        # byte with low zero bits, and positions must line up for the ANDs
        self._all_good = (
            int.from_bytes(np.packbits(np.ones(g, dtype=bool)).tobytes(), "big")
            if g else 0
        )
        self._comp_bits: dict = {}
        self._levels: dict = {}

    def _bits(self, comp) -> int:
        bits = self._comp_bits.get(comp)
        if bits is None:
            if len(self._good_rows) == 0:
                bits = 0
            else:
                col = self._good_rows[:, comp.feature]
                sat = col <= comp.bound if comp.direction.value == "<=" else col >= comp.bound
                bits = int.from_bytes(np.packbits(sat).tobytes(), "big")
            self._comp_bits[comp] = bits
        return bits

    def level(self, rule: Rule) -> ConsistencyLevel:
        cached = self._levels.get(rule)
        if cached is not None:
            return cached
        bits = self._all_good
        for comp in rule.components:
            bits &= self._bits(comp)
            if not bits:
                break
        vd = bits.bit_count()
        if vd:
            result = ConsistencyLevel.from_counts(vd, 0)
        else:
            rng = np.random.default_rng(derive_seed(self.seed, "vs", _rule_digest(rule)))
            samples = sample_satisfying(self.schema, rule, self.s, rng)
            vs = int(np.count_nonzero(good_mask(self.model.predict_batch(samples))))
            result = ConsistencyLevel.from_counts(0, vs)
        self._levels[rule] = result
        return result

    def score(self, rule: Rule, cf_verified: bool = False) -> ScoredRule:
        lv = self.level(rule)
        return ScoredRule(
            rule, lv, fitness(rule.cardinality, self.schema.n, lv, self.data.m, self.s),
            cf_verified,
        )


def _cf_verified(oracle: Optional[CounterfactualOracle], rule: Rule) -> bool:
    if oracle is None:
        return False
    cached = oracle.cache.get(rule)
    return cached is not None and not cached.found


def _rank(scorer: _Scorer, oracle, rules: Iterable[Rule], q: int) -> list:
    scored = [scorer.score(r, _cf_verified(oracle, r)) for r in dict.fromkeys(rules)]
    scored.sort(key=rank_key)
    return scored[:q]


def select_fittest(
    x: Instance,
    cands: Iterable[Rule],
    model: Classifier,
    data: Dataset,
    q: int,
    s: int,
    seed: int = 0,
    oracle: Optional[CounterfactualOracle] = None,
) -> list:
    """Deduplicate, grade, and rank candidates; keep the best ``q``."""
    cands = list(cands)
    for r in cands:
        if not r.is_relevant_to(x):
            raise SchemaError(f"candidate {r} is not relevant to the anchor")
    scorer = _Scorer(model, data, s, seed)
    return _rank(scorer, oracle, cands, q)


def _check_anchor(x: Instance, model: Classifier, data: Dataset) -> tuple:
    x = tuple(float(v) for v in x)
    data.schema.validate_instance(x)
    if not model.is_bad(x):
        raise GoodAnchorError("cannot explain an instance with the good outcome")
    return x


def cfrules_scheduled(iteration: int, cf_period: int, prev_topk) -> bool:
    """Counterfactual expansion runs on a fixed period (iterations 1,
    1 + period, ...) and additionally whenever the previous iteration's
    top rules were all free of database violations."""
    if (iteration - 1) % cf_period == 0:
        return True
    return prev_topk is not None and all(sr.level.vd == 0 for sr in prev_topk)


def _finish(topk, scorer, oracle, model, calls0, iterations, timer, t0, converged):
    rules = [
        ScoredRule(sr.rule, sr.level, sr.score, _cf_verified(oracle, sr.rule))
        for sr in topk
    ]
    stats = RunStats(
        iterations=iterations,
        classifier_calls=model.calls - calls0,
        cf_calls=oracle.engine.queries if oracle is not None else 0,
        wall_time=time.perf_counter() - t0,
        phase_times=timer.as_dict(),
    )
    return ExplanationResult(rules=rules, stats=stats, converged=converged)


def _run_genetic(
    x: Instance,
    model: Classifier,
    data: Dataset,
    params: SearchParams,
    use_cf: bool,
    oracle: Optional[CounterfactualOracle] = None,
) -> ExplanationResult:
    t0 = time.perf_counter()
    timer = PhaseTimer()
    calls0 = model.calls
    x = _check_anchor(x, model, data)
    rng_cross = random.Random(derive_seed(params.seed, "crossover"))
    rng_mut = random.Random(derive_seed(params.seed, "mutate"))

    with timer.phase("prep"):
        scorer = _Scorer(model, data, params.s, params.seed)
        if not use_cf:
            oracle = None
        elif oracle is None:
            oracle = CounterfactualOracle(
                model, data, k=params.cf_k, budget=params.cf_budget, seed=params.seed
            )
        universe = all_components(x)
        pop = [Rule((comp,)) for comp in universe]
        seen = set(pop)
        if use_cf:
            initial, _ = cf_rules(
                [EMPTY_RULE], x, oracle,
                cover_size_cap=params.cover_size_cap,
                max_candidates_per_parent=params.max_candidates_per_parent,
            )
            for r in initial:
                if r not in seen:
                    seen.add(r)
                    pop.append(r)

    topk: list = []
    prev_topk: Optional[list] = None
    converged = False
    iteration = 0
    while iteration < params.max_iterations:
        iteration += 1
        with timer.phase("crossover"):
            cand = crossover(pop, params.c, rng_cross)
        with timer.phase("mutate"):
            cand.extend(mutate(pop, universe, params.m, rng_mut))
        if use_cf and cfrules_scheduled(iteration, params.cf_period, prev_topk):
            with timer.phase("cfrules"):
                expansions, _ = cf_rules(
                    pop, x, oracle,
                    cover_size_cap=params.cover_size_cap,
                    max_candidates_per_parent=params.max_candidates_per_parent,
                )
            cand.extend(expansions)
        cand = list(dict.fromkeys(cand))
        new_rules = {r for r in cand if r not in seen}
        seen.update(new_rules)

        with timer.phase("select"):
            scored = _rank(scorer, oracle, pop + cand, params.q)
        pop = [sr.rule for sr in scored]
        topk = scored[: params.k]
        prev_topk = topk

        consistent_ok = all(sr.level.level is Level.GC for sr in topk)
        if consistent_ok and use_cf:
            with timer.phase("cfrules"):
                consistent_ok = all(oracle.consistent(sr.rule, x) for sr in topk)
        stable = not any(sr.rule in new_rules for sr in topk)
        if consistent_ok and stable:
            converged = True
            break

    if use_cf and params.post_reduce and topk and oracle.consistent(topk[0].rule, x):
        with timer.phase("reduce"):
            reduced = reduce_redundancy(topk[0].rule, x, oracle=oracle)
        if reduced != topk[0].rule:
            rest = [sr for sr in topk if sr.rule != reduced]
            topk = [scorer.score(reduced, True)] + rest
            topk = topk[: params.k]

    return _finish(topk, scorer, oracle, model, calls0, iteration, timer, t0, converged)


def genetic_rule(
    x: Instance, model: Classifier, data: Dataset, params: Optional[SearchParams] = None
) -> ExplanationResult:
    """Genetic search graded by database and sampled consistency only."""
    return _run_genetic(x, model, data, params or SearchParams(), use_cf=False)


def genetic_rule_cf(
    x: Instance,
    model: Classifier,
    data: Dataset,
    params: Optional[SearchParams] = None,
    oracle: Optional[CounterfactualOracle] = None,
) -> ExplanationResult:
    """Genetic search with counterfactual-driven candidates and verification."""
    return _run_genetic(x, model, data, params or SearchParams(), use_cf=True, oracle=oracle)


def greedy_rule_cf(
    x: Instance,
    model: Classifier,
    data: Dataset,
    params: Optional[SearchParams] = None,
    oracle: Optional[CounterfactualOracle] = None,
) -> ExplanationResult:
    """Expand only the smallest candidate until it verifies consistent.

    The population holds counterfactual-derived candidates sorted by
    cardinality; children are strictly larger than the rule they replace, so
    popped cardinalities never decrease and termination is guaranteed.
    """
    params = params or SearchParams()
    t0 = time.perf_counter()
    timer = PhaseTimer()
    calls0 = model.calls
    x = _check_anchor(x, model, data)

    def order(rule: Rule) -> tuple:
        return (rule.cardinality, tuple(c.sort_key for c in rule.components))

    with timer.phase("prep"):
        scorer = _Scorer(model, data, params.s, params.seed)
        if oracle is None:
            oracle = CounterfactualOracle(
                model, data, k=params.cf_k, budget=params.cf_budget, seed=params.seed
            )
    with timer.phase("cfrules"):
        cands, _ = cf_rules(
            [EMPTY_RULE], x, oracle,
            cover_size_cap=params.cover_size_cap,
            max_candidates_per_parent=params.max_candidates_per_parent,
        )
        empty_ok = oracle.consistent(EMPTY_RULE, x)

    final: Optional[Rule] = EMPTY_RULE if empty_ok else None
    iterations = 0
    if final is None:
        pop = sorted(set(cands), key=order)
        expanded = {EMPTY_RULE}
        while pop:
            head = pop[0]
            with timer.phase("cfrules"):
                head_ok = oracle.consistent(head, x)
            if head_ok:
                final = head
                break
            pop.pop(0)
            iterations += 1
            if iterations > params.max_iterations:
                break
            if head in expanded:
                continue
            expanded.add(head)
            with timer.phase("cfrules"):
                children, _ = cf_rules(
                    [head], x, oracle,
                    cover_size_cap=params.cover_size_cap,
                    max_candidates_per_parent=params.max_candidates_per_parent,
                )
            merged = set(pop) | {c for c in children if c not in expanded}
            pop = sorted(merged, key=order)[: params.q]

    converged = final is not None
    if final is None:
        # safety fallback: freezing every feature is always verifiable
        final = trivial_rule(x)
        with timer.phase("cfrules"):
            oracle.consistent(final, x)

    topk = [scorer.score(final, _cf_verified(oracle, final))]
    return _finish(topk, scorer, oracle, model, calls0, iterations, timer, t0, converged)


def reduce_redundancy(
    rule: Rule,
    x: Instance,
    model: Optional[Classifier] = None,
    data: Optional[Dataset] = None,
    cache: Optional[CfCache] = None,
    *,
    oracle: Optional[CounterfactualOracle] = None,
    k: int = 10,
    budget: Optional[CfBudget] = None,
    seed: int = 0,
) -> Rule:
    """Drop components one at a time while the rule stays verified consistent."""
    if oracle is None:
        if model is None or data is None:
            raise ValueError("reduce_redundancy needs either an oracle or model+data")
        oracle = CounterfactualOracle(model, data, k=k, budget=budget, seed=seed, cache=cache)
    if not oracle.consistent(rule, x):
        raise ValueError("rule must be verified consistent before reduction")
    current = rule
    progress = True
    while progress:
        progress = False
        for comp in current.components:
            cand = current.without(comp)
            if oracle.consistent(cand, x):
                current = cand
                progress = True
                break
    return current
