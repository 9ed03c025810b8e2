import random

import pytest

from rulecf import (
    CfBudget,
    CfQuery,
    CounterfactualEngine,
    Dataset,
    GoodAnchorError,
    Rule,
    RuleClassifier,
    SchemaError,
    distance,
    geq,
    leq,
    make_schema,
    reduce_changes,
    trivial_rule,
)

from conftest import (
    all_instances,
    find_bad_anchor,
    random_net,
    random_rule_model,
    random_tree,
    small_schema,
    uniform_dataset,
)


def brute_force_goods(model, schema, rule):
    return [
        x for x in all_instances(schema)
        if rule.evaluate(x) and model.predict(x) > 0.5
    ]


def find_counterfactuals(model, data, query):
    return CounterfactualEngine().find_counterfactuals(model, data, query)


class TestDistance:
    def test_identity_is_zero(self):
        schema = small_schema((4, 4))
        assert distance((1.0, 2.0), (1.0, 2.0), schema) == 0.0

    def test_single_full_range_change(self):
        schema = make_schema([[0.0, 10.0]] * 4)
        x = (0.0, 0.0, 0.0, 0.0)
        y = (10.0, 0.0, 0.0, 0.0)
        assert distance(x, y, schema) == pytest.approx(0.625)

    def test_two_changes_cost_more_than_one(self):
        schema = make_schema([[0.0, 10.0]] * 4)
        x = (0.0, 0.0, 0.0, 0.0)
        one = (10.0, 0.0, 0.0, 0.0)
        two = (10.0, 10.0, 0.0, 0.0)
        assert distance(x, one, schema) < distance(x, two, schema)

    def test_partial_shift_scales_with_span(self):
        schema = make_schema([[0.0, 5.0, 10.0]] * 2)
        x = (0.0, 0.0)
        half = (5.0, 0.0)
        full = (10.0, 0.0)
        assert distance(x, half, schema) < distance(x, full, schema)


class TestReduceChanges:
    def test_reverts_useless_change(self):
        # bad iff F0 <= 2; the F1 change is irrelevant
        model = RuleClassifier(Rule((leq(0, 2),)), 2)
        anchor = (1.0, 1.0)
        cand = (5.0, 9.0)
        assert reduce_changes(anchor, cand, model) == (5.0, 1.0)

    def test_single_change_kept(self):
        model = RuleClassifier(Rule((leq(0, 2),)), 2)
        reduced = reduce_changes((1.0, 1.0), (5.0, 1.0), model)
        assert reduced == (5.0, 1.0)

    def test_jointly_necessary_changes_kept(self):
        # bad iff F0 <= 2 OR F1 <= 2 (complement is good only if both exceed)
        model = RuleClassifier(Rule((geq(0, 3), geq(1, 3))), 2)
        # model is bad when rule holds: bad iff F0>=3 and F1>=3; anchor (3,3)
        anchor = (3.0, 3.0)
        cand = (0.0, 0.0)
        assert reduce_changes(anchor, cand, model) in [(0.0, 3.0), (3.0, 0.0)]

    def test_revert_leaving_rule_box_skipped(self):
        model = RuleClassifier(Rule((leq(0, 2),)), 2)
        calls = model.calls
        # reverting F1 to 1 would leave the box of F1 >= 5: kept, never scored
        reduced = reduce_changes((1.0, 1.0), (5.0, 9.0), model, rule=Rule((geq(1, 5),)))
        assert reduced == (5.0, 9.0)
        assert model.calls - calls == 2  # the candidate and the F0 revert

    @pytest.mark.parametrize("anchor", [(0.0,), (0.0, 0.0, 0.0)])
    def test_anchor_of_another_width_rejected(self, anchor):
        model = RuleClassifier(Rule((leq(0, 1),)), 2)
        with pytest.raises(SchemaError, match="same width"):
            reduce_changes(anchor, (2.0, 2.0), model)

    def test_requires_good_candidate(self):
        model = RuleClassifier(Rule((leq(0, 2),)), 1)
        with pytest.raises(ValueError):
            reduce_changes((1.0,), (2.0,), model)

    def test_every_revert_test_holds_after_reduction(self, rng):
        schema = small_schema((4, 4, 4))
        data = uniform_dataset(schema, 30)
        for _ in range(20):
            model = random_tree(schema, rng)
            anchor = find_bad_anchor(model, schema)
            good = [x for x in all_instances(schema) if model.predict(x) > 0.5]
            if anchor is None or not good:
                continue
            cand = good[rng.randrange(len(good))]
            reduced = reduce_changes(anchor, cand, model)
            assert model.predict(reduced) > 0.5
            for j, (a, v) in enumerate(zip(anchor, reduced)):
                if a != v:
                    reverted = reduced[:j] + (a,) + reduced[j + 1:]
                    assert model.predict(reverted) <= 0.5


class TestFindCounterfactuals:
    def test_single_feature_escape(self):
        schema = make_schema([[float(v) for v in range(16)]] * 3)
        model = RuleClassifier(Rule((leq(0, 10),)), 3)
        data = uniform_dataset(schema, 20)
        anchor = (5.0, 3.0, 7.0)
        result = find_counterfactuals(model, data, CfQuery(anchor=anchor, k=5, seed=3))
        assert result.found
        for cf in result.counterfactuals:
            assert cf.changed == frozenset({0})
            assert cf.instance[0] > 10

    def test_frozen_feature_blocks_escape(self):
        schema = make_schema([[float(v) for v in range(16)]] * 3)
        model = RuleClassifier(Rule((leq(0, 10),)), 3)
        data = uniform_dataset(schema, 20)
        anchor = (5.0, 3.0, 7.0)
        rule = Rule((leq(0, 5), geq(0, 5)))
        result = find_counterfactuals(
            model, data, CfQuery(anchor=anchor, rule=rule, k=5, seed=3)
        )
        assert not result.found

    def test_good_anchor_rejected(self):
        schema = small_schema((4, 4))
        model = RuleClassifier(Rule((leq(0, 1),)), 2)
        data = uniform_dataset(schema, 10)
        with pytest.raises(GoodAnchorError):
            find_counterfactuals(model, data, CfQuery(anchor=(3.0, 0.0)))

    def test_results_sorted_and_bounded(self, rng):
        schema = small_schema((5, 5, 5))
        data = uniform_dataset(schema, 20)
        found_any = False
        for _ in range(10):
            model = random_tree(schema, rng)
            anchor = find_bad_anchor(model, schema)
            if anchor is None:
                continue
            result = find_counterfactuals(model, data, CfQuery(anchor=anchor, k=4, seed=9))
            if not result.found:
                continue
            found_any = True
            cfs = result.counterfactuals
            assert 1 <= len(cfs) <= 4
            distances = [cf.distance for cf in cfs]
            assert distances == sorted(distances)
        assert found_any

    def test_determinism(self, rng):
        schema = small_schema((6, 6, 6, 6))
        data = uniform_dataset(schema, 30)
        model = random_net(schema, rng)
        anchor = find_bad_anchor(model, schema)
        if anchor is None:
            pytest.skip("net with no bad region")
        query = CfQuery(anchor=anchor, k=6, seed=42)
        r1 = find_counterfactuals(model, data, query)
        r2 = find_counterfactuals(model, data, query)
        assert r1 == r2

    def test_counterfactual_invariants(self, rng):
        schema = small_schema((4, 4, 4))
        data = uniform_dataset(schema, 30)
        checked = 0
        for trial in range(30):
            model = random_rule_model(schema, rng)
            anchor = find_bad_anchor(model, schema)
            if anchor is None:
                continue
            comps = [c for c in trivial_rule(anchor).components if rng.random() < 0.3]
            rule = Rule(tuple(comps))
            result = find_counterfactuals(
                model, data, CfQuery(anchor=anchor, rule=rule, k=5, seed=trial)
            )
            for cf in result.counterfactuals:
                checked += 1
                assert rule.evaluate(cf.instance)
                assert model.predict(cf.instance) > 0.5
                assert cf.changed == frozenset(
                    j for j in range(3) if cf.instance[j] != anchor[j]
                )
                assert cf.distance == pytest.approx(
                    distance(anchor, cf.instance, schema)
                )
        assert checked > 10


class TestExhaustiveClosedForm:
    """On an enumerated box the engine returns the k nearest good points of
    the box none of whose single reverts lands on a good point of the box."""

    @staticmethod
    def _random_rule(anchor, schema, rng):
        comps = [c for c in trivial_rule(anchor).components if rng.random() < 0.3]
        if rng.random() < 0.5:
            # a bound on feature j that the anchor's own value breaks
            j = rng.randrange(schema.n)
            domain = schema.domain(j)
            comps = [c for c in comps if c.feature != j]
            if anchor[j] < domain[-1]:
                comps.append(geq(j, rng.choice([v for v in domain if v > anchor[j]])))
            else:
                comps.append(leq(j, rng.choice([v for v in domain if v < anchor[j]])))
        return Rule(tuple(comps))

    @pytest.mark.parametrize("k", [1, 3, 10])
    @pytest.mark.parametrize("builder", [random_rule_model, random_tree, random_net])
    def test_k_nearest_irreducible_good_points(self, builder, k):
        rng = random.Random(f"{builder.__name__}-{k}")
        schema = small_schema((3, 4, 5))
        space = all_instances(schema)
        data = uniform_dataset(schema, 20)
        budget = CfBudget(exhaustive_cap=len(space))
        engine = CounterfactualEngine()
        compared = excluded = 0
        for trial in range(40):
            model = builder(schema, rng)
            bad = [x for x in space if model.predict(x) <= 0.5]
            if not bad:
                continue
            anchor = rng.choice(bad)
            rule = self._random_rule(anchor, schema, rng)
            good = {x for x in space if rule.evaluate(x) and model.predict(x) > 0.5}
            irreducible = [
                p for p in good
                if not any(p[j] != a and p[:j] + (a,) + p[j + 1:] in good
                           for j, a in enumerate(anchor))
            ]
            want = sorted(irreducible, key=lambda p: (distance(anchor, p, schema), p))[:k]
            result = engine.find_counterfactuals(
                model, data, CfQuery(anchor=anchor, rule=rule, k=k, budget=budget, seed=trial)
            )
            assert [cf.instance for cf in result.counterfactuals] == want
            compared += bool(want)
            excluded += not rule.evaluate(anchor)
        assert engine.exhaustive_runs == engine.queries
        assert compared > 10 and excluded > 5


class TestBoxComplianceSweep:
    def test_thousand_queries_zero_violations(self):
        """Across 1000 seeded (rule, anchor) queries, every returned
        counterfactual lies inside the rule's box."""
        rng = random.Random(77)
        schema = small_schema((4, 4, 4))
        data = uniform_dataset(schema, 25)
        engine = CounterfactualEngine()
        builders = [random_rule_model, random_tree, random_net]
        queries = 0
        returned = 0
        while queries < 1000:
            model = builders[queries % 3](schema, rng)
            anchor = find_bad_anchor(model, schema)
            if anchor is None:
                continue
            comps = [c for c in trivial_rule(anchor).components if rng.random() < 0.3]
            rule = Rule(tuple(comps))
            result = engine.find_counterfactuals(
                model, data, CfQuery(anchor=anchor, rule=rule, k=3, seed=queries)
            )
            queries += 1
            for cf in result.counterfactuals:
                returned += 1
                assert rule.evaluate(cf.instance)
        assert returned > 300


class TestOracleAgreement:
    """Found/NotFound must match exhaustive existence on enumerable spaces."""

    def _sweep(self, model_builder, seed, trials=25):
        rng = random.Random(seed)
        schema = small_schema((4, 4, 4))
        data = uniform_dataset(schema, 25)
        engine = CounterfactualEngine()
        agreements = 0
        for trial in range(trials):
            model = model_builder(schema, rng)
            anchor = find_bad_anchor(model, schema)
            if anchor is None:
                continue
            comps = [c for c in trivial_rule(anchor).components if rng.random() < 0.35]
            rule = Rule(tuple(comps))
            result = engine.find_counterfactuals(
                model, data, CfQuery(anchor=anchor, rule=rule, k=3, seed=trial)
            )
            exists = bool(brute_force_goods(model, schema, rule))
            assert result.found == exists
            agreements += 1
        assert agreements > 5

    def test_rule_models(self):
        self._sweep(random_rule_model, seed=7)

    def test_tree_models(self):
        self._sweep(random_tree, seed=8)

    def test_net_models(self):
        self._sweep(random_net, seed=9)

    def test_genetic_path_box_models(self):
        # space too large to enumerate: single-perturbation seeding still
        # decides box classifiers exactly
        rng = random.Random(5)
        schema = make_schema([[float(v) for v in range(8)]] * 8)
        data = uniform_dataset(schema, 40)
        budget = CfBudget(exhaustive_cap=100)  # force the genetic path
        engine = CounterfactualEngine()
        for trial in range(15):
            model = random_rule_model(schema, rng)
            bad_box = schema.box(model.rule)
            if any(not r for r in bad_box):
                continue  # unsatisfiable ground truth, no bad anchor exists
            anchor = tuple(schema.domain(j)[r[0]] for j, r in enumerate(bad_box))
            if model.predict(anchor) > 0.5:
                continue
            comps = [c for c in trivial_rule(anchor).components if rng.random() < 0.2]
            rule = Rule(tuple(comps))
            result = engine.find_counterfactuals(
                model, data,
                CfQuery(anchor=anchor, rule=rule, k=3, budget=budget, seed=trial),
            )
            # existence oracle: a good instance exists iff some feature can
            # escape its ground-truth bound within the rule's box
            exists = False
            for j, r in enumerate(schema.box(rule)):
                for v in schema.domain(j)[r.start:r.stop]:
                    y = anchor[:j] + (v,) + anchor[j + 1:]
                    if model.predict(y) > 0.5:
                        exists = True
            assert result.found == exists
        assert engine.generations > 0

    @pytest.mark.parametrize("cap", [100, 20_000])
    def test_reverts_stay_in_a_box_that_excludes_the_anchor(self, cap):
        # the model ignores F1, so reverting F1 to the anchor's 0 keeps the
        # outcome good but leaves the box F1 >= 2: both paths must skip it
        schema = make_schema([[float(v) for v in range(8)]] * 4)
        data = uniform_dataset(schema, 20)
        model = RuleClassifier(Rule((leq(0, 3),)), 4)
        rule = Rule((geq(1, 2.0),))
        engine = CounterfactualEngine()
        result = engine.find_counterfactuals(
            model, data,
            CfQuery(anchor=(0.0,) * 4, rule=rule, k=5, budget=CfBudget(exhaustive_cap=cap)),
        )
        assert engine.exhaustive_runs == (cap > 8 * 6 * 8 * 8)
        assert result.found
        for cf in result.counterfactuals:
            assert rule.evaluate(cf.instance)
            assert cf.instance[0] > 3

    def test_exhaustive_cap_switches_paths(self):
        schema = small_schema((4, 4))
        data = uniform_dataset(schema, 10)
        model = RuleClassifier(Rule((leq(0, 2),)), 2)
        engine = CounterfactualEngine()
        engine.find_counterfactuals(
            model, data, CfQuery(anchor=(0.0, 0.0), budget=CfBudget(exhaustive_cap=100))
        )
        assert engine.exhaustive_runs == 1
        engine.find_counterfactuals(
            model, data, CfQuery(anchor=(0.0, 0.0), budget=CfBudget(exhaustive_cap=2))
        )
        assert engine.exhaustive_runs == 1
        assert engine.queries == 2
