import math
import random

import numpy as np
import pytest

from rulecf import (
    BruteForceOutcome,
    ConsistencyLevel,
    CounterfactualOracle,
    Dataset,
    Level,
    Rule,
    RuleClassifier,
    SchemaError,
    brute_force_global_consistent,
    consistency_level,
    geq,
    leq,
    make_schema,
    trivial_rule,
)
from rulecf.classifiers import GOOD_CHUNK
from rulecf.consistency import sample_satisfying, violations_in_data
from rulecf.schema import SlotCodec

from conftest import (
    all_instances,
    find_bad_anchor,
    find_good_instance,
    random_rule_model,
    random_tree,
    small_schema,
    uniform_dataset,
)


class TestLevelType:
    def test_level_invariants(self):
        assert ConsistencyLevel.from_counts(3, 0).level is Level.FDC
        assert ConsistencyLevel.from_counts(0, 2).level is Level.FGC
        assert ConsistencyLevel.from_counts(0, 0).level is Level.GC

    def test_invalid_combination_rejected(self):
        with pytest.raises(ValueError):
            ConsistencyLevel(Level.GC, vd=1, vs=0)
        with pytest.raises(ValueError):
            ConsistencyLevel(Level.FGC, vd=2, vs=2)

    def test_ordering(self):
        assert Level.GC > Level.FGC > Level.FDC


class TestConsistencyLevel:
    def setup_method(self):
        self.schema = small_schema((4, 4, 4))
        self.model = RuleClassifier(Rule((leq(0, 1), geq(1, 2))), 3)

    def test_dataset_violation_detected(self):
        # (0, 0, 0) satisfies the candidate rule below but is good
        data = Dataset(self.schema, ((0.0, 0.0, 0.0), (0.0, 3.0, 0.0)))
        rule = Rule((leq(0, 1),))
        level = consistency_level(rule, data, self.model, s=50, seed=0)
        assert level.level is Level.FDC
        assert level.vd == 1

    def test_sample_violation_detected(self):
        # dataset rows all bad, but the rule's box holds good instances
        data = Dataset(self.schema, ((0.0, 3.0, 0.0), (1.0, 2.0, 1.0)))
        rule = Rule((leq(0, 1),))
        level = consistency_level(rule, data, self.model, s=400, seed=0)
        assert level.level is Level.FGC
        assert level.vd == 0 and level.vs > 0

    def test_ground_truth_rule_is_gc(self):
        data = Dataset(self.schema, ((0.0, 3.0, 0.0),))
        truth = self.model.rule
        level = consistency_level(truth, data, self.model, s=500, seed=1)
        assert level.level is Level.GC
        # cross-check by full enumeration
        assert brute_force_global_consistent(
            truth, self.model, self.schema
        ) is BruteForceOutcome.CONSISTENT

    def test_vd_counts_match_direct_scan(self, rng):
        schema = small_schema((4, 4))
        data = uniform_dataset(schema, 60, seed=5)
        for _ in range(10):
            model = random_tree(schema, rng)
            anchor = find_bad_anchor(model, schema)
            if anchor is None:
                continue
            rule = Rule((leq(0, anchor[0]),))
            direct = sum(
                1 for row in data.instances
                if rule.evaluate(row) and model.predict(row) > 0.5
            )
            assert violations_in_data(rule, data, model) == direct

    def test_sampling_stays_inside_rule_box(self):
        rule = Rule((leq(0, 1), geq(2, 2)))
        u = np.random.default_rng(7).random((200, 3))
        samples = sample_satisfying(self.schema, self.schema.box(rule), u)
        assert samples.shape == (200, 3)
        assert (samples[:, 0] <= 1).all()
        assert (samples[:, 2] >= 2).all()
        for j in range(3):
            assert set(samples[:, j]) <= set(self.schema.domain(j))

    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53])
    def test_gather_stays_inside_every_range_length(self, u):
        """``floor(u * len)`` at the extreme uniforms stays in ``[0, len)``
        for every range length up to 4,096, so no pick leaves its box."""
        lengths = np.arange(1, 4097)
        schema = make_schema([[float(v) for v in range(5000)]])
        values, _ = schema.domain_table
        for start in (0, 3, 903):
            got = np.array([
                sample_satisfying(schema, (range(start, start + n),), np.full((1, 1), u))[0, 0]
                for n in lengths
            ])
            expected = start + (lengths - 1) * (u > 0.0)
            assert np.array_equal(got, values[expected])

    @pytest.mark.parametrize("s", [1, 7, 1000])
    @pytest.mark.parametrize("seed", range(3))
    def test_gather_matches_per_column_reference(self, s, seed):
        """One gather from the flat domain table equals picking each column
        on its own, ``domain_j[start_j + floor(u_ij * len_j)]`` in Python
        integers, one-value ranges and full domains included."""
        schema = small_schema((1, 5, 9, 2, 7))
        pick = random.Random(seed)
        u = np.random.default_rng([seed, s]).random((s, schema.n))
        for _ in range(12):
            box = []
            for f in schema.features:
                size = len(f.domain)
                lo = pick.randrange(size)
                hi = pick.choice((lo, size - 1, pick.randrange(lo, size)))
                box.append(range(0, size) if pick.random() < 0.2 else range(lo, hi + 1))
            expected = np.array([
                [f.domain[r.start + math.floor(float(u[i, j]) * len(r))]
                 for j, (f, r) in enumerate(zip(schema.features, box))]
                for i in range(s)
            ])
            got = sample_satisfying(schema, tuple(box), u)
            assert np.array_equal(got, expected)
            assert got.dtype == np.float64 and got.shape == (s, schema.n)

    def test_deterministic_per_seed(self):
        data = Dataset(self.schema, ((0.0, 3.0, 0.0),))
        rule = Rule((leq(0, 1),))
        a = consistency_level(rule, data, self.model, s=300, seed=9)
        b = consistency_level(rule, data, self.model, s=300, seed=9)
        assert a == b

    def test_empty_box_grades_gc_without_drawing(self, monkeypatch):
        import rulecf.explainers as explainers

        def no_draw(*args):
            raise AssertionError("an empty box has nothing to sample")

        monkeypatch.setattr(explainers, "sample_satisfying", no_draw)
        data = Dataset(self.schema, ((0.0, 3.0, 0.0),))
        rule = Rule((geq(0, 3), leq(0, 1)))  # admits no instance
        calls = self.model.calls
        level = consistency_level(rule, data, self.model, s=300, seed=9)
        assert level == ConsistencyLevel(Level.GC)
        assert self.model.calls == calls

    def test_sampling_an_empty_box_still_raises(self):
        rule = Rule((geq(0, 3), leq(0, 1)))
        with pytest.raises(SchemaError, match="admits no instance"):
            sample_satisfying(self.schema, self.schema.box(rule), np.zeros((10, 3)))


class TestBruteForce:
    def test_ground_truth_consistent_on_enumerable_space(self):
        schema = small_schema((4, 4, 4))
        model = RuleClassifier(Rule((leq(0, 1), geq(2, 2))), 3)
        assert brute_force_global_consistent(
            model.rule, model, schema
        ) is BruteForceOutcome.CONSISTENT

    def test_empty_rule_inconsistent_when_goods_exist(self):
        schema = small_schema((4, 4, 4))
        model = RuleClassifier(Rule((leq(0, 1),)), 3)
        assert brute_force_global_consistent(
            Rule(), model, schema
        ) is BruteForceOutcome.INCONSISTENT

    def test_cap_triggers_too_large(self):
        schema = make_schema([[float(v) for v in range(10)]] * 20)
        model = RuleClassifier(Rule((leq(0, 5),)), 20)
        assert brute_force_global_consistent(
            Rule(), model, schema, cap=10 ** 6
        ) is BruteForceOutcome.TOO_LARGE

    def test_restriction_shrinks_enumeration(self):
        schema = make_schema([[float(v) for v in range(10)]] * 6)
        model = RuleClassifier(Rule((leq(0, 4),)), 6)
        rule = trivial_rule((0.0,) * 6)
        # fully frozen rule enumerates exactly one instance
        assert brute_force_global_consistent(
            rule, model, schema, cap=10
        ) is BruteForceOutcome.CONSISTENT

    @pytest.mark.parametrize("bound", [0, 3, 4, 9, 28])
    def test_stops_within_one_chunk_of_the_first_good_point(self, bound):
        # a 30^3 grid enumerated in product order, good iff F0 > bound: the
        # first good point has flat index (bound + 1) * 900
        schema = make_schema([[float(v) for v in range(30)]] * 3)
        model = RuleClassifier(Rule((leq(0, bound),)), 3)
        first_good = (bound + 1) * 900
        assert brute_force_global_consistent(
            Rule(), model, schema
        ) is BruteForceOutcome.INCONSISTENT
        assert first_good < model.calls <= first_good + GOOD_CHUNK

    @pytest.mark.parametrize("feature", [0, 3])
    def test_empty_box_is_consistent_whichever_feature_is_empty(self, feature):
        # 100^3 points on the other features exceed the cap; the verdict must
        # not depend on whether the empty feature is multiplied in first
        schema = make_schema([[float(v) for v in range(100)]] * 4)
        model = RuleClassifier(Rule((leq(0, 50),)), 4)
        rule = Rule((geq(feature, 60), leq(feature, 10)))
        assert brute_force_global_consistent(
            rule, model, schema, cap=1000
        ) is BruteForceOutcome.CONSISTENT


class TestConsistentCf:
    def setup_method(self):
        self.schema = small_schema((4, 4, 4))
        self.data = uniform_dataset(self.schema, 30, seed=2)

    def test_trivial_rule_always_consistent(self):
        model = RuleClassifier(Rule((leq(0, 2),)), 3)
        anchor = (0.0, 1.0, 1.0)
        full = SlotCodec(anchor).mask(trivial_rule(anchor))
        assert CounterfactualOracle(model, self.data).consistent(full, anchor)

    def test_empty_rule_inconsistent_with_goods(self):
        model = RuleClassifier(Rule((leq(0, 2),)), 3)
        anchor = (0.0, 1.0, 1.0)
        assert find_good_instance(model, self.schema) is not None
        assert not CounterfactualOracle(model, self.data).consistent(0, anchor)

    def test_ground_truth_rule_verified(self):
        model = RuleClassifier(Rule((leq(0, 2), geq(1, 1))), 3)
        anchor = (0.0, 1.0, 1.0)
        truth_anchored = SlotCodec(anchor).mask(model.rule.anchored_to(anchor))
        assert CounterfactualOracle(model, self.data).consistent(truth_anchored, anchor)

    def test_cache_reuse(self):
        from rulecf.cf_engine import CounterfactualEngine

        model = RuleClassifier(Rule((leq(0, 2),)), 3)
        anchor = (0.0, 1.0, 1.0)
        engine = CounterfactualEngine()
        oracle = CounterfactualOracle(model, self.data, engine=engine)
        rule = SlotCodec(anchor).mask(Rule((leq(0, 0),)))
        for _ in range(2):
            oracle.consistent(rule, anchor)
        assert engine.queries == 1

    def test_agreement_with_brute_force(self, rng):
        """The binding contract: counterfactual answers match enumeration."""
        checked = 0
        for trial in range(40):
            model = random_rule_model(self.schema, rng)
            anchor = find_bad_anchor(model, self.schema)
            if anchor is None:
                continue
            comps = trivial_rule(anchor).components
            for r in (0, 1, 2):
                combo = tuple(
                    c for c in comps if rng.random() < (r + 1) / 6
                )
                rule = Rule(combo)
                expected = brute_force_global_consistent(rule, model, self.schema)
                oracle = CounterfactualOracle(model, self.data, seed=trial)
                got = oracle.consistent(SlotCodec(anchor).mask(rule), anchor)
                assert got == (expected is BruteForceOutcome.CONSISTENT)
                checked += 1
        assert checked > 30


class TestMonotoneEvidence:
    def test_sampling_catches_dense_violations(self, rng):
        """With 1000 samples, violation densities over 1% are essentially
        always caught."""
        schema = small_schema((5, 5, 5))
        data = Dataset(schema, ((0.0, 4.0, 0.0),))
        caught = 0
        total = 0
        for trial in range(20):
            model = random_rule_model(schema, rng, max_components=2)
            anchor = find_bad_anchor(model, schema)
            if anchor is None:
                continue
            rule = Rule(())  # widest box: all of the instance space
            instances = all_instances(schema)
            goods = sum(1 for x in instances if model.predict(x) > 0.5)
            density = goods / len(instances)
            if density < 0.01:
                continue
            if violations_in_data(rule, data, model) > 0:
                continue
            level = consistency_level(rule, data, model, s=1000, seed=trial)
            total += 1
            if level.level is Level.FGC:
                caught += 1
        if total:
            assert caught == total

    def test_brute_force_consistent_implies_zero_sample_violations(self, rng):
        schema = small_schema((4, 4))
        data = uniform_dataset(schema, 10, seed=3)
        for trial in range(30):
            model = random_rule_model(schema, rng)
            anchor = find_bad_anchor(model, schema)
            if anchor is None:
                continue
            rule = model.rule.anchored_to(anchor)
            if brute_force_global_consistent(rule, model, schema) is not BruteForceOutcome.CONSISTENT:
                continue
            if violations_in_data(rule, data, model) > 0:
                continue
            level = consistency_level(rule, data, model, s=500, seed=trial)
            assert level.vs == 0
