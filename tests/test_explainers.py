import random

import numpy as np
import pytest

from rulecf import (
    CfOutcome,
    ConsistencyLevel,
    CounterfactualOracle,
    Dataset,
    GoodAnchorError,
    Level,
    Rule,
    RuleClassifier,
    ScoredRule,
    SchemaError,
    SearchParams,
    crossover,
    fitness,
    genetic_rule,
    genetic_rule_cf,
    geq,
    greedy_rule_cf,
    leq,
    mutate,
    rank_key,
    reduce_redundancy,
    trivial_rule,
)
from rulecf.classifiers import TreeClassifier, TreeLeaf, TreeNode
from rulecf.explainers import _Scorer, cfrules_scheduled, consistency_level
from rulecf.schema import SlotCodec, mask_bits, mask_slots, rows_in_box
from rulecf.harness import box_dataset

from conftest import (
    all_instances,
    find_bad_anchor,
    random_rule_model,
    small_schema,
    uniform_dataset,
)


def lvl(name, vd=0, vs=0):
    return ConsistencyLevel(Level[name], vd=vd, vs=vs)


class TestFitness:
    def test_empty_gc_rule_scores_one(self):
        assert fitness(0, 4, lvl("GC"), m=10, s=100) == 1.0

    def test_gc_example_value(self):
        assert fitness(2, 4, lvl("GC"), m=10, s=100) == pytest.approx(0.9375)

    def test_floor_at_zero(self):
        level = lvl("FDC", vd=10)
        assert fitness(8, 4, level, m=10, s=100) == 0.0

    def test_fgc_uses_sample_violations(self):
        level = lvl("FGC", vs=25)
        expected = 0.25 * (1 - 2 / 8) + 0.25 * (1 - 25 / 100) + 0.25
        assert fitness(2, 4, level, m=10, s=100) == pytest.approx(expected)

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            fitness(2, 4, lvl("FDC", vd=11), m=10, s=100)
        with pytest.raises(ValueError):
            fitness(9, 4, lvl("GC"), m=10, s=100)


class TestRankKey:
    def test_level_dominates_score(self):
        gc = ScoredRule(Rule((leq(0, 1),) * 1), lvl("GC"), 0.7, False)
        fgc = ScoredRule(Rule((leq(1, 1),)), lvl("FGC", vs=1), 0.99, False)
        assert rank_key(gc) < rank_key(fgc)

    def test_cardinality_breaks_ties_within_gc(self):
        small = ScoredRule(Rule((leq(0, 1), geq(0, 1), leq(1, 2))), lvl("GC"), 0.8, False)
        smaller = ScoredRule(Rule((leq(0, 1), geq(0, 1))), lvl("GC"), 0.8, False)
        assert rank_key(smaller) < rank_key(small)

    def test_canonical_order_is_final_tiebreak(self):
        a = ScoredRule(Rule((leq(0, 1),)), lvl("GC"), 0.9, False)
        b = ScoredRule(Rule((leq(1, 1),)), lvl("GC"), 0.9, False)
        assert rank_key(a) < rank_key(b)


class TestMutate:
    def test_children_per_parent(self):
        x = tuple(float(v) for v in range(7))
        codec = SlotCodec(x)  # 14 slots
        parent = Rule((codec.components[0],))
        children = mutate([codec.mask(parent)], codec.full, 3, random.Random(5))
        children = [codec.rule(c) for c in children]
        assert len(children) == 3
        assert all(c.cardinality == 2 for c in children)
        assert all(set(parent.components) < set(c.components) for c in children)

    def test_full_parent_has_no_children(self):
        x = (1.0, 2.0)
        codec = SlotCodec(x)
        children = mutate([codec.mask(trivial_rule(x))], codec.full, 3, random.Random(5))
        assert children == []

    def test_no_duplicate_components(self):
        x = (1.0, 2.0, 3.0)
        codec = SlotCodec(x)
        parent = Rule(codec.components[:2])
        for child in mutate([codec.mask(parent)], codec.full, 4, random.Random(0)):
            child = codec.rule(child)
            assert len(set(child.components)) == child.cardinality


class TestCrossover:
    codec = SlotCodec((1.0, 2.0, 3.0, 4.0))

    def cross(self, rules, c, seed):
        children = crossover([self.codec.mask(r) for r in rules], c, random.Random(seed))
        return [self.codec.rule(child) for child in children]

    def test_union_sample_size(self):
        a, b, d = leq(0, 1), leq(1, 2), geq(3, 4)
        children = self.cross([Rule((a,)), Rule((b, d))], 1, 3)
        assert children == [Rule((a, b, d))]  # t = max(1, 2) + 1 = 3

    def test_degenerate_pair_capped(self):
        a = leq(0, 1)
        children = self.cross([Rule((a,)), Rule((a,))], 1, 3)
        assert children == [Rule((a,))]

    def test_two_children_per_pair(self):
        rules = [Rule((leq(0, 1),)), Rule((geq(1, 2),)), Rule((leq(2, 3),))]
        children = self.cross(rules, 2, 3)
        assert len(children) == 6  # 3 pairs x c=2


def select_fittest(x, rules, model, data, q, s, oracle=None):
    """The paper's SelectFittest step on anchored rules: grade, rank and keep
    the best ``q`` through ``_Scorer.rank`` and ``_Scorer.score``."""
    scorer = _Scorer(model, data, s, 0, x)
    masks = [scorer.codec.mask(rule) for rule in rules]
    return [scorer.score(mask, oracle) for mask in scorer.rank(masks, q)]


class TestSelectFittest:
    def setup_method(self):
        self.schema = small_schema((4, 4, 4))
        self.model = RuleClassifier(Rule((leq(0, 1), geq(1, 2))), 3)
        self.anchor = (0.0, 3.0, 2.0)
        self.data = box_dataset(self.schema, self.model.rule, 60, seed=4)

    def test_gc_ranks_first(self):
        truth = self.model.rule.anchored_to(self.anchor)
        loose = Rule((leq(2, 2),))
        ranked = select_fittest(
            self.anchor, [loose, truth], self.model, self.data, q=10, s=300
        )
        assert ranked[0].rule == truth
        assert ranked[0].level.level is Level.GC

    def test_truncates_to_q(self):
        codec = SlotCodec(self.anchor)
        cands = [Rule((c,)) for c in codec.components]
        cands += map(codec.rule, crossover(mask_bits(codec.full), 2, random.Random(1)))
        distinct = len(set(cands))
        assert distinct > 5
        ranked = select_fittest(
            self.anchor, cands, self.model, self.data, q=5, s=100
        )
        assert len(ranked) == 5

    def test_irrelevant_candidate_rejected(self):
        with pytest.raises(SchemaError):
            select_fittest(
                self.anchor, [Rule((leq(0, 3),))], self.model, self.data, q=5, s=100
            )

    def test_dedup(self):
        truth = self.model.rule.anchored_to(self.anchor)
        ranked = select_fittest(
            self.anchor, [truth, truth, truth], self.model, self.data, q=10, s=100
        )
        assert len(ranked) == 1


class TestSchedule:
    def test_periodic_iterations(self):
        hits = [it for it in range(1, 9) if cfrules_scheduled(it, 3, None)]
        assert hits == [1, 4, 7]

    def test_early_trigger_on_data_consistent_topk(self):
        assert cfrules_scheduled(2, 3, [lvl("FGC", vs=3)])

    def test_no_trigger_with_database_violations(self):
        assert not cfrules_scheduled(2, 3, [lvl("FDC", vd=3)])


def two_component_problem(seed=0):
    schema = small_schema((5, 5, 5, 5))
    truth = Rule((leq(0, 2), geq(2, 1)))
    model = RuleClassifier(truth, 4)
    anchor = (1.0, 3.0, 2.0, 0.0)
    data = box_dataset(schema, truth, 120, seed=seed)
    return schema, model, anchor, data


SEARCHES = [genetic_rule, genetic_rule_cf, greedy_rule_cf]


class TestGeneticRule:
    def test_recovers_two_component_truth(self):
        _, model, anchor, data = two_component_problem()
        params = SearchParams(q=30, k=3, s=300, seed=5, max_iterations=60)
        result = genetic_rule(anchor, model, data, params)
        assert result.converged
        assert result.top.rule == model.rule.anchored_to(anchor)

    @pytest.mark.parametrize("search", SEARCHES)
    def test_good_anchor_rejected(self, search):
        _, model, _, data = two_component_problem()
        with pytest.raises(GoodAnchorError):
            search((4.0, 0.0, 0.0, 0.0), model, data, SearchParams())

    def test_returned_rules_pass_both_checks_on_convergence(self):
        _, model, anchor, data = two_component_problem()
        params = SearchParams(q=30, k=3, s=300, seed=5, max_iterations=60)
        result = genetic_rule(anchor, model, data, params)
        assert result.converged
        for sr in result.rules:
            assert sr.level.vd == 0 and sr.level.vs == 0

    def test_deterministic(self):
        _, model, anchor, data = two_component_problem()
        params = SearchParams(q=20, k=3, s=200, seed=8, max_iterations=60)
        r1 = genetic_rule(anchor, model, data, params)
        r2 = genetic_rule(anchor, model, data, params)
        assert [sr.rule for sr in r1.rules] == [sr.rule for sr in r2.rules]
        assert [sr.score for sr in r1.rules] == [sr.score for sr in r2.rules]
        assert r1.stats.iterations == r2.stats.iterations
        assert r1.stats.classifier_calls == r2.stats.classifier_calls

    @pytest.mark.parametrize("search", SEARCHES)
    def test_stats_track_model_counter(self, search):
        _, model, anchor, data = two_component_problem()
        params = SearchParams(q=20, k=3, s=200, seed=8)
        before = model.calls
        if search is genetic_rule:
            result = search(anchor, model, data, params)
            assert result.stats.cf_calls == 0
        else:
            oracle = CounterfactualOracle(model, data, seed=8)
            result = search(anchor, model, data, params, oracle=oracle)
            assert result.stats.cf_calls == oracle.engine.queries > 0
        assert result.stats.classifier_calls == model.calls - before
        phases = set(result.stats.phase_times)
        if search is greedy_rule_cf:
            assert phases >= {"prep", "cfrules"}
        else:
            assert phases >= {"prep", "crossover", "mutate", "select"}


class TestGeneticRuleCf:
    def test_recovers_truth_and_verifies(self):
        _, model, anchor, data = two_component_problem()
        params = SearchParams(q=30, k=3, s=300, seed=5, max_iterations=60)
        result = genetic_rule_cf(anchor, model, data, params)
        assert result.converged
        assert result.top.rule == model.rule.anchored_to(anchor)
        assert result.top.cf_verified

    def test_one_query_per_distinct_candidate(self):
        _, model, anchor, data = two_component_problem()
        oracle = CounterfactualOracle(model, data, seed=5)
        params = SearchParams(q=30, k=3, s=300, seed=5, max_iterations=60)
        genetic_rule_cf(anchor, model, data, params, oracle=oracle)
        assert oracle.engine.queries == len(oracle.cache)

    def test_post_reduction_strips_redundancy(self):
        _, model, anchor, data = two_component_problem()
        params = SearchParams(q=30, k=3, s=300, seed=5, max_iterations=60)
        result = genetic_rule_cf(anchor, model, data, params)
        truth = model.rule.anchored_to(anchor)
        # no component of the top rule is removable
        oracle = CounterfactualOracle(model, data, seed=5)
        top = SlotCodec(anchor).mask(result.top.rule)
        for bit in mask_bits(top):
            assert not oracle.consistent(top & ~bit, anchor)
        assert result.top.rule == truth

    def test_deterministic(self):
        _, model, anchor, data = two_component_problem()
        params = SearchParams(q=20, k=3, s=200, seed=8, max_iterations=60)
        r1 = genetic_rule_cf(anchor, model, data, params)
        r2 = genetic_rule_cf(anchor, model, data, params)
        assert [sr.rule for sr in r1.rules] == [sr.rule for sr in r2.rules]
        assert r1.stats.cf_calls == r2.stats.cf_calls


class RecordingOracle(CounterfactualOracle):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.query_cards = []

    def outcome(self, mask, anchor):
        fresh = mask not in self.cache
        out = super().outcome(mask, anchor)
        if fresh:
            self.query_cards.append(mask.bit_count())
        return out


class TestGreedyRuleCf:
    def test_recovers_truth_exactly(self):
        _, model, anchor, data = two_component_problem()
        result = greedy_rule_cf(anchor, model, data, SearchParams(seed=5))
        assert result.converged
        assert result.top.rule == model.rule.anchored_to(anchor)
        assert result.top.cf_verified
        assert len(result.rules) == 1

    def test_empty_rule_when_everything_is_bad(self):
        schema = small_schema((3, 3))
        model = RuleClassifier(Rule(()), 2)  # empty rule holds everywhere
        data = uniform_dataset(schema, 10, seed=1)
        result = greedy_rule_cf((0.0, 0.0), model, data, SearchParams(seed=1))
        assert result.converged
        assert result.top.rule == Rule(())

    def test_popped_cardinalities_non_decreasing(self):
        schema = small_schema((5, 5, 5, 5))
        truth = Rule((leq(0, 2), geq(2, 1), leq(3, 3)))
        model = RuleClassifier(truth, 4)
        anchor = (1.0, 3.0, 2.0, 0.0)
        data = box_dataset(schema, truth, 60, seed=9)
        oracle = RecordingOracle(model, data, seed=9)
        greedy_rule_cf(anchor, model, data, SearchParams(seed=9), oracle=oracle)
        # first query is the empty rule; afterwards, the head of the
        # population is queried in pop order
        heads = oracle.query_cards[1:]
        assert heads == sorted(heads)

    def test_equal_size_ties_go_to_canonical_order(self):
        # bad when f0 <= 1 or f1 <= 1: both "f0 <= 0" and "f1 <= 0" are
        # consistent, and the one first in component order wins
        nodes = {0: TreeNode(0, 1.0, 1, 2), 1: TreeLeaf(0.1), 2: TreeNode(1, 1.0, 3, 4),
                 3: TreeLeaf(0.1), 4: TreeLeaf(0.9)}
        model = TreeClassifier(nodes, 2)
        data = uniform_dataset(small_schema((4, 4)), 20, seed=2)
        result = greedy_rule_cf((0.0, 0.0), model, data, SearchParams(seed=2))
        assert result.converged
        assert result.top.rule == Rule((leq(0, 0.0),))

    def test_output_survives_zero_removal_test(self):
        _, model, anchor, data = two_component_problem()
        oracle = CounterfactualOracle(model, data, seed=5)
        result = greedy_rule_cf(anchor, model, data, SearchParams(seed=5), oracle=oracle)
        top = SlotCodec(anchor).mask(result.top.rule)
        for bit in mask_bits(top):
            assert not oracle.consistent(top & ~bit, anchor)

    def test_cf_calls_count_this_run_only(self):
        _, model, anchor, data = two_component_problem()
        oracle = CounterfactualOracle(model, data, seed=5)
        first = greedy_rule_cf(anchor, model, data, SearchParams(seed=5), oracle=oracle)
        # the second run finds every answer in the shared oracle's cache
        second = greedy_rule_cf(anchor, model, data, SearchParams(seed=5), oracle=oracle)
        assert (first.stats.cf_calls, second.stats.cf_calls) == (2, 0)
        assert oracle.engine.queries == 2

    @pytest.mark.parametrize("cap, iterations, converged", [
        (1, 1, False), (2, 2, False), (3, 3, False), (4, 4, True), (5, 4, True),
    ])
    def test_iterations_never_exceed_the_cap(self, cap, iterations, converged):
        # five components over seven 3-value features: with one
        # counterfactual per query the search expands four heads
        schema = small_schema((3,) * 7)
        truth = Rule((leq(0, 0), leq(3, 1), geq(3, 1), geq(4, 1), geq(6, 2)))
        model = RuleClassifier(truth, 7)
        anchor = (0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 2.0)
        data = box_dataset(schema, truth, 20, seed=10)
        params = SearchParams(seed=10, cf_k=1, max_iterations=cap)
        result = greedy_rule_cf(anchor, model, data, params)
        assert (result.stats.iterations, result.converged) == (iterations, converged)
        assert result.top.rule == (truth if converged else trivial_rule(anchor))


class TestCfVerifiedStamp:
    """A rule is stamped ``cf_verified`` only if the database does not
    contradict the oracle: a good history row in the box proves the rule
    inconsistent even when a heuristic counterfactual search missed it."""

    def setup_method(self):
        _, self.model, self.anchor, _ = two_component_problem()
        schema = small_schema((5, 5, 5, 5))
        self.data = uniform_dataset(schema, 60, seed=2)  # mostly good rows
        self.oracle = CounterfactualOracle(self.model, self.data)

    def test_database_violation_overrides_a_cached_no_counterfactual(self):
        # a cache entry claiming the empty rule has no counterfactual, as a
        # missed heuristic search would leave it
        self.oracle.cache[0] = CfOutcome(found=False)
        result = greedy_rule_cf(self.anchor, self.model, self.data, oracle=self.oracle)
        assert result.top.rule == Rule(())
        assert result.top.level.level is Level.FDC
        assert not result.top.cf_verified

    def test_clean_verified_rule_is_stamped(self):
        truth = self.model.rule.anchored_to(self.anchor)
        assert self.oracle.consistent(SlotCodec(self.anchor).mask(truth), self.anchor)
        ranked = select_fittest(
            self.anchor, [truth, Rule(())], self.model, self.data, q=2, s=100,
            oracle=self.oracle,
        )
        assert ranked[0].rule == truth and ranked[0].cf_verified
        assert ranked[1].level.level is Level.FDC and not ranked[1].cf_verified


class TestOutputRelevance:
    def test_all_returned_rules_anchored_at_x(self):
        _, model, anchor, data = two_component_problem()
        params = SearchParams(q=20, k=3, s=200, seed=2, max_iterations=60)
        for algo in (genetic_rule, genetic_rule_cf, greedy_rule_cf):
            result = algo(anchor, model, data, params)
            for sr in result.rules:
                SlotCodec(anchor).mask(sr.rule)  # raises unless anchored at x

    @pytest.mark.parametrize("search", SEARCHES)
    def test_a_rule_is_built_only_per_returned_rule(self, search, monkeypatch):
        _, model, anchor, data = two_component_problem()
        params = SearchParams(q=20, k=3, s=200, seed=2, max_iterations=60)
        built = []
        init = Rule.__post_init__

        def counted(rule):
            built.append(rule)
            init(rule)

        monkeypatch.setattr(Rule, "__post_init__", counted)
        result = search(anchor, model, data, params)
        assert result.rules
        assert built == [sr.rule for sr in result.rules]


class TestReduceRedundancy:
    def test_strips_vacuous_component(self):
        schema, model, anchor, data = two_component_problem()
        codec = SlotCodec(anchor)
        truth = model.rule.anchored_to(anchor)
        # add a component at the domain edge: satisfied by every instance
        padded = codec.mask(Rule(truth.components + (geq(3, 0.0),)))
        reduced = reduce_redundancy(padded, anchor, CounterfactualOracle(model, data))
        assert codec.rule(reduced) == truth

    def test_minimal_rule_unchanged(self):
        _, model, anchor, data = two_component_problem()
        truth = SlotCodec(anchor).mask(model.rule.anchored_to(anchor))
        assert reduce_redundancy(truth, anchor, CounterfactualOracle(model, data)) == truth

    def test_requires_verified_rule(self):
        _, model, anchor, data = two_component_problem()
        with pytest.raises(ValueError):
            reduce_redundancy(0, anchor, CounterfactualOracle(model, data))

    def test_fixpoint_under_repeat(self):
        _, model, anchor, data = two_component_problem()
        padded = SlotCodec(anchor).full
        once = reduce_redundancy(padded, anchor, CounterfactualOracle(model, data, seed=3))
        twice = reduce_redundancy(once, anchor, CounterfactualOracle(model, data, seed=3))
        assert once == twice


class TestParams:
    def test_invariants(self):
        with pytest.raises(ValueError):
            SearchParams(q=5, k=6)
        with pytest.raises(ValueError):
            SearchParams(s=0)
        with pytest.raises(ValueError):
            SearchParams(cf_period=0)

    def test_defaults(self):
        p = SearchParams()
        assert (p.q, p.k, p.s, p.m, p.c) == (50, 5, 1000, 3, 2)
        assert p.cf_period == 3


class TestScorerMatchesConsistencyLevel:
    @pytest.mark.parametrize("rows", [7, 8, 9, 13, 16, 21])
    def test_database_violations_agree_for_any_row_count(self, rows):
        """Bit packing must not drop rows when the good-row count is not a
        multiple of eight."""
        schema = small_schema((5, 5, 5))
        model = RuleClassifier(Rule((leq(0, 2), geq(1, 2))), 3)
        data = uniform_dataset(schema, rows, seed=rows)
        anchor = (1.0, 3.0, 2.0)
        scorer = _Scorer(model, data, s=200, seed=4, x=anchor)
        for comps in [(), (leq(0, 1),), (leq(0, 1), geq(1, 3)), (geq(2, 2),),
                      (leq(0, 1), geq(1, 3), geq(2, 2))]:
            rule = Rule(comps)
            expected = consistency_level(rule, data, model, s=200, seed=4)
            got = scorer.level(scorer.codec.mask(rule))
            assert got == expected, (rows, str(rule))

    @staticmethod
    def random_case(seed):
        """A seeded rule model on a grid with a one-value feature, a bad
        anchor (on domain ends for even seeds) and a history of bad rows,
        plus uniform rows for odd seeds."""
        rng = random.Random(seed)
        schema = small_schema((1, 3, 4, 2))
        points = all_instances(schema)
        while True:
            model = random_rule_model(schema, rng, max_components=3)
            bad = [x for x in points if model.is_bad(x)]
            if len(bad) == len(points):
                continue
            if seed % 2 == 0:
                bad = [x for x in bad if all(
                    v in (schema.domain(j)[0], schema.domain(j)[-1]) for j, v in enumerate(x)
                )]
            if bad:
                break
        rows = [rng.choice(bad) for _ in range(rng.randint(1, 6))]
        if seed % 2:
            rows += uniform_dataset(schema, rng.randint(1, 8), seed=seed).instances
        return model, rng.choice(bad), Dataset(schema, rows)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_anchored_rules_agree(self, seed):
        model, anchor, data = self.random_case(seed)
        scorer = _Scorer(model, data, s=100, seed=seed, x=anchor)
        seen = set()
        for mask in range(scorer.codec.full + 1):
            expected = consistency_level(scorer.codec.rule(mask), data, model, s=100, seed=seed)
            assert scorer.level(mask) == expected, (seed, mask)
            seen.add(expected.level)
        # the full mask admits only the bad anchor; with only bad rows in the
        # history, the empty mask's box holds good points and no violation
        assert Level.GC in seen
        if seed % 2 == 0:
            assert Level.FGC in seen

    def test_grading_every_mask_builds_no_rule(self, monkeypatch):
        model, anchor, data = self.random_case(0)
        scorer = _Scorer(model, data, s=100, seed=0, x=anchor)
        built = []
        init = Rule.__post_init__

        def counted(rule):
            built.append(rule)
            init(rule)

        monkeypatch.setattr(Rule, "__post_init__", counted)
        levels = {scorer.level(mask).level for mask in range(scorer.codec.full + 1)}
        assert Level.FGC in levels  # sampled grades ran
        assert built == []

    def test_empty_history_grades_by_sampling_alone(self):
        schema = small_schema((5, 5, 5))
        model = RuleClassifier(Rule((leq(0, 2), geq(1, 2))), 3)
        data = Dataset(schema, ())
        assert data.matrix.shape == (0, 3)
        anchor = (1.0, 3.0, 2.0)
        before = model.calls
        scorer = _Scorer(model, data, s=100, seed=3, x=anchor)
        assert model.calls == before  # no rows, no classifier calls
        for mask in range(scorer.codec.full + 1):
            expected = consistency_level(scorer.codec.rule(mask), data, model, s=100, seed=3)
            assert scorer.level(mask) == expected
            assert expected.vd == 0

    def test_violating_first_row_is_counted(self):
        # the first rows map to the padded end of the packed bitset; a
        # misaligned mask silently ignores them
        schema = small_schema((5, 5, 5))
        model = RuleClassifier(Rule((leq(0, 2),)), 3)  # bad iff F0 <= 2

        rows = ((3.0, 0.0, 0.0),) + tuple((0.0, float(i % 5), 1.0) for i in range(8))
        data = Dataset(schema, rows)  # exactly one good row, listed first
        scorer = _Scorer(model, data, s=100, seed=0, x=(3.0, 0.0, 1.0))
        # the good row satisfies the rule
        level = scorer.level(scorer.codec.mask(Rule((geq(0, 3),))))
        assert level.level is Level.FDC
        assert level.vd == 1


# -- slot-mask operators against the Rule-based ones they replaced ------------

def rule_mutate(pop, universe, m, rng):
    """Reference: mutation on Rules, as written before the search used masks."""
    universe = tuple(universe)
    children = []
    for parent in pop:
        present = set(parent.components)
        complement = [c for c in universe if c not in present]
        for comp in rng.sample(complement, min(m, len(complement))):
            children.append(Rule(parent.components + (comp,)))
    return children


def rule_crossover(pop, c, rng):
    """Reference: crossover on Rules, as written before the search used masks,
    except that a pair whose child must take its whole union draws nothing."""
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
                picks = union if t == len(union) else rng.sample(union, t)
                children.append(Rule(tuple(picks)))
    return children


def random_anchor_population(n, seed, size=12):
    """A random anchor (repeated values included) and a population holding
    the empty rule, the full rule and random anchored rules."""
    rng = random.Random(seed)
    x = tuple(float(rng.randrange(4)) for _ in range(n))
    codec = SlotCodec(x)
    pop = [Rule(()), trivial_rule(x)]
    for _ in range(size):
        comps = rng.sample(codec.components, rng.randint(1, 2 * n))
        pop.append(Rule(tuple(comps)))
    rng.shuffle(pop)
    return codec, pop


class TestMaskOperatorsMatchRuleReference:
    @pytest.mark.parametrize("n", [2, 7, 12])
    @pytest.mark.parametrize("seed", range(4))
    def test_crossover_same_children_and_rng_state(self, n, seed):
        codec, pop = random_anchor_population(n, seed)
        for c in (1, 2):
            ref_rng, rng = random.Random(seed), random.Random(seed)
            expected = rule_crossover(pop, c, ref_rng)
            got = crossover([codec.mask(r) for r in pop], c, rng)
            assert [codec.rule(child) for child in got] == expected
            assert rng.getstate() == ref_rng.getstate()

    @pytest.mark.parametrize("c", [1, 2, 5])
    def test_forced_children_draw_nothing(self, c):
        # over three slots no union exceeds the larger parent by two slots,
        # so every pair's child is its union
        pop = list(range(8))
        rng = random.Random(c)
        state = rng.getstate()
        expected = [a | b for i, a in enumerate(pop) for b in pop[i + 1:] for _ in range(c)]
        assert crossover(pop, c, rng) == expected
        assert rng.getstate() == state

    @pytest.mark.parametrize("n", [2, 7, 12])
    @pytest.mark.parametrize("seed", range(4))
    def test_mutate_same_children_and_rng_state(self, n, seed):
        codec, pop = random_anchor_population(n, seed)
        for m in (1, 3, 2 * n + 1):
            ref_rng, rng = random.Random(seed), random.Random(seed)
            expected = rule_mutate(pop, codec.components, m, ref_rng)
            got = mutate([codec.mask(r) for r in pop], codec.full, m, rng)
            assert [codec.rule(child) for child in got] == expected
            assert rng.getstate() == ref_rng.getstate()

    @pytest.mark.parametrize("seed", range(3))
    def test_mask_ranking_matches_rank_key(self, seed):
        rng = random.Random(seed)
        schema = small_schema((3, 4, 3, 4))
        model = random_rule_model(schema, rng)
        data = uniform_dataset(schema, 30, seed=seed)
        x = find_bad_anchor(model, schema)
        scorer = _Scorer(model, data, s=50, seed=seed, x=x)
        masks = list(range(scorer.codec.full + 1))  # every rule anchored at x
        rng.shuffle(masks)
        ref = _Scorer(model, data, s=50, seed=seed, x=x)
        expected = rank_order(ref, masks)
        got = scorer.rank(masks + masks[:20], len(masks))
        assert [scorer.codec.rule(m) for m in got] == [ref.codec.rule(m) for m in expected]

    @pytest.mark.parametrize("seed", range(4))
    def test_rank_keeps_the_sorted_prefix(self, seed):
        """``rank`` takes its best ``q`` without a full sort; it equals the
        dedupe-sort-slice it replaced, duplicates and equal fitness included."""
        rng = random.Random(seed)
        schema = small_schema((3, 4, 3, 4))
        model = random_rule_model(schema, rng)
        data = uniform_dataset(schema, 30, seed=seed)
        x = find_bad_anchor(model, schema)
        ref = _Scorer(model, data, s=50, seed=seed, x=x)
        masks = [rng.randrange(ref.codec.full + 1) for _ in range(120)]
        unique = list(dict.fromkeys(masks))
        expected = rank_order(ref, masks)
        # masks of one cardinality and grade tie on fitness; the slots decide
        assert len({ref._memo[m][0][:2] for m in unique}) < len(unique)
        for q in (1, 50, len(unique) + 5):
            # a fresh scorer: nothing graded before this rank
            scorer = _Scorer(model, data, s=50, seed=seed, x=x)
            assert scorer.rank(masks, q) == expected[:q]
            assert scorer.rank(masks[::-1], q) == expected[:q]

    def test_codec_round_trip_and_anchor_check(self):
        codec, pop = random_anchor_population(7, 0)
        for rule in pop:
            assert codec.rule(codec.mask(rule)) == rule
        with pytest.raises(SchemaError):
            codec.mask(Rule((leq(0, codec.components[0].bound + 1),)))
        with pytest.raises(SchemaError):
            codec.mask(Rule((leq(7, 0.0),)))

    @pytest.mark.parametrize("rows", [0, 1, 7, 8, 9, 16, 17])
    def test_row_bits_count_the_rows_in_each_box(self, rows):
        codec, pop = random_anchor_population(4, rows)
        X = np.random.default_rng(rows).integers(0, 4, size=(rows, 4)).astype(float)
        slot_rows, all_rows = codec.row_bits(X)
        for rule in pop:
            inside = rows_in_box(mask_slots(codec.mask(rule)), slot_rows, all_rows)
            assert inside.bit_count() == np.count_nonzero(rule.matrix_mask(X))

    def test_mask_bits_ascending_single_bits(self):
        for mask in (0, 1, 0b1011, (1 << 70) | (1 << 9) | 4, (1 << 200) - 1):
            bits = mask_bits(mask)
            assert bits == [1 << k for k in range(mask.bit_length()) if mask >> k & 1]
            assert mask_slots(mask) == tuple(k for k in range(mask.bit_length()) if mask >> k & 1)


def rank_order(scorer, pool):
    """``pool`` in ``_Scorer.rank`` order, every mask graded: deduplicated,
    without the sampled rules that have the grade of a one-slot subset in
    the pool (clones), in ``rank_key`` order."""
    unique = set(pool)

    def clone(mask):
        level = scorer.level(mask)
        return level.level is Level.FGC and any(
            mask ^ bit in unique and scorer.level(mask ^ bit) == level for bit in mask_bits(mask)
        )

    return sorted((m for m in unique if not clone(m)), key=lambda m: rank_key(scorer.score(m)))


def graded_in_full(model, data, x, s, seed):
    """A scorer that has graded every mask anchored at ``x``, its
    classifier calls for that, and those masks in ``rank_key`` order."""
    scorer = _Scorer(model, data, s=s, seed=seed, x=x)
    calls = model.calls
    masks = list(range(scorer.codec.full + 1))
    for mask in masks:
        scorer.level(mask)
    return scorer, model.calls - calls, sorted(masks, key=lambda m: scorer._memo[m][0])


class TestRankBound:
    """``rank`` stops grading sampled masks once their GC keys cannot enter
    the top ``q``; what it returns is the prefix a full grading gives."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("history", ["uniform", "all-bad"])
    def test_rank_equals_the_fully_graded_prefix(self, seed, history):
        rng = random.Random(seed)
        schema = small_schema((3, 4, 3, 4))
        model = random_rule_model(schema, rng)
        x = find_bad_anchor(model, schema)
        if history == "uniform":
            data = uniform_dataset(schema, 30, seed=seed)
        else:
            data = box_dataset(schema, model.rule, 30, seed=seed)
        ref, _, order = graded_in_full(model, data, x, 40, seed)
        pools = [[rng.randrange(ref.codec.full + 1) for _ in range(50)] for _ in range(3)]
        for q in range(1, len(set(pools[0])) + 2):
            # one scorer for all pools: masks graded for an earlier pool
            # compete with masks not graded yet
            scorer = _Scorer(model, data, s=40, seed=seed, x=x)
            for pool in pools + pools[:1]:
                assert scorer.rank(pool, q) == rank_order(ref, pool)[:q]
            assert all(level == ref.level(m) for m, (_key, level) in scorer._memo.items())

    def setup_method(self):
        self.schema = small_schema((4, 4, 4))
        self.model = RuleClassifier(Rule((leq(0, 1), geq(1, 2))), 3)
        self.anchor = (0.0, 3.0, 2.0)
        # every row lies in the rule's box: no mask has a database violation
        self.data = box_dataset(self.schema, self.model.rule, 60, seed=4)

    def test_an_all_bad_history_grades_fewer_masks(self):
        ref, full_calls, order = graded_in_full(self.model, self.data, self.anchor, 100, 0)
        assert all(ref.level(m).vd == 0 for m in order)
        scorer = _Scorer(self.model, self.data, s=100, seed=0, x=self.anchor)
        calls = self.model.calls
        assert scorer.rank(order[::-1], 3) == rank_order(ref, order)[:3]
        assert self.model.calls - calls < full_calls
        assert len(scorer._memo) < len(order)

    def test_a_pruned_mask_is_graded_once_a_later_pool_needs_it(self):
        ref, _, order = graded_in_full(self.model, self.data, self.anchor, 100, 0)
        scorer = _Scorer(self.model, self.data, s=100, seed=0, x=self.anchor)
        top = scorer.rank(order[::-1], 3)
        pruned = [m for m in order if m not in scorer._memo]
        assert pruned
        # the same pool again grades nothing more
        calls = self.model.calls
        assert scorer.rank(order, 3) == top
        assert self.model.calls == calls
        # without the top, the masks next in line enter and are graded
        rest = rank_order(ref, order[3:])
        assert scorer.rank(order[3:], 3) == rest[:3]
        assert any(m in pruned for m in rest[:3])
        # alone in a pool, a pruned mask is graded as a full grading grades it
        for mask in pruned:
            pool = [mask, order[0]]
            assert scorer.rank(pool, 2) == rank_order(ref, pool)
            assert scorer.level(mask) == ref.level(mask)

    def test_clones_are_dropped(self):
        """Features 2-5 do not enter the model: a component on one changes no
        sample's outcome, so the superset grades exactly as its subset and
        is dropped, though by fitness it would outrank other sampled rules;
        lazily graded pools still rank as fully graded ones."""
        schema = small_schema((4,) * 6)
        model = RuleClassifier(Rule((leq(0, 1), geq(1, 2))), 6)
        anchor = (0.0, 3.0, 2.0, 2.0, 2.0, 2.0)
        data = box_dataset(schema, model.rule, 60, seed=4)
        ref = _Scorer(model, data, s=100, seed=0, x=anchor)
        pool = [m for m in range(ref.codec.full + 1) if m.bit_count() <= 3]
        ignored = [bit for bit in mask_bits(ref.codec.full)
                   if ref.codec.rule(bit).components[0].feature >= 2]
        sampled = [m for m in pool if ref.level(m).level is Level.FGC]
        clones = {m for m in sampled for bit in ignored if m & bit and m ^ bit in sampled}
        assert all(ref.level(m) == ref.level(m ^ bit)
                   for m in clones for bit in ignored if m & bit and m ^ bit in sampled)
        ranked = _Scorer(model, data, s=100, seed=0, x=anchor).rank(sampled, len(sampled))
        assert clones and ranked and clones.isdisjoint(ranked)
        # by fitness alone some clones would rank above some kept rules
        assert max(ref.score(m).score for m in clones) > min(ref.score(m).score for m in ranked)
        for q in (1, 5, 50, len(pool)):
            scorer = _Scorer(model, data, s=100, seed=0, x=anchor)
            assert scorer.rank(pool, q) == rank_order(ref, pool)[:q]
            assert scorer.rank(pool[::-1], q) == rank_order(ref, pool)[:q]
