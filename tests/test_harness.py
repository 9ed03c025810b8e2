import itertools
import math
import random

import numpy as np
import pytest

from rulecf import (
    Dataset,
    Rule,
    RuleClassifier,
    SchemaError,
    SearchParams,
    SyntheticSpec,
    categorize_real,
    categorize_synthetic,
    gen_synthetic_classifier,
    geq,
    leq,
    make_schema,
    minimal_rule_search,
    run_synthetic_experiment,
    trivial_rule,
)
from rulecf.harness import (
    RealCategory,
    SyntheticCategory,
    box_dataset,
    default_experiment_schema,
    synthetic_dataset,
)
from rulecf.duality import derive_seed

from conftest import (
    all_instances,
    find_bad_anchor,
    random_net,
    random_rule_model,
    random_tree,
    small_schema,
    uniform_dataset,
)


class TestGenerator:
    def setup_method(self):
        self.schema = default_experiment_schema(8)

    def test_component_count_and_slots(self):
        spec = SyntheticSpec(schema=self.schema, components=4, trials=1, seed=3)
        model, anchor = gen_synthetic_classifier(spec, 0)
        assert model.rule.cardinality == 4
        slots = {(c.feature, c.direction) for c in model.rule.components}
        assert len(slots) == 4

    def test_anchor_satisfies_truth(self):
        spec = SyntheticSpec(schema=self.schema, components=5, trials=1, seed=3)
        for trial in range(20):
            model, anchor = gen_synthetic_classifier(spec, trial)
            assert model.rule.evaluate(anchor)
            assert model.predict(anchor) == 0.0

    def test_bounds_interior_and_non_vacuous(self):
        spec = SyntheticSpec(schema=self.schema, components=6, trials=1, seed=9)
        for trial in range(20):
            model, _ = gen_synthetic_classifier(spec, trial)
            for c in model.rule.components:
                domain = self.schema.domain(c.feature)
                assert domain[0] < c.bound < domain[-1]

    def test_deterministic_per_seed_and_trial(self):
        spec = SyntheticSpec(schema=self.schema, components=4, trials=1, seed=7)
        a = gen_synthetic_classifier(spec, 5)
        b = gen_synthetic_classifier(spec, 5)
        assert a[0].rule == b[0].rule and a[1] == b[1]
        c = gen_synthetic_classifier(spec, 6)
        assert (c[0].rule, c[1]) != (a[0].rule, a[1])

    def test_requested_cardinality_validated(self):
        with pytest.raises(SchemaError):
            SyntheticSpec(schema=self.schema, components=17, trials=1)

    def test_tiny_domains_rejected(self):
        schema = make_schema([[0.0, 1.0]] * 3)
        spec = SyntheticSpec(schema=schema, components=2, trials=1, seed=0)
        with pytest.raises(SchemaError):
            gen_synthetic_classifier(spec, 0)


class TestCategorizeSynthetic:
    def test_exact_match(self):
        truth = Rule((leq(0, 3), geq(1, 2)))
        assert categorize_synthetic(truth, truth) is SyntheticCategory.CONSISTENT_MINIMAL

    def test_strict_superset(self):
        truth = Rule((leq(0, 3), geq(1, 2)))
        bigger = Rule(truth.components + (leq(2, 5),))
        assert categorize_synthetic(bigger, truth) is SyntheticCategory.CONSISTENT_REDUNDANT

    def test_missing_component(self):
        truth = Rule((leq(0, 3), geq(1, 2)))
        part = Rule((leq(0, 3), leq(2, 5)))
        assert categorize_synthetic(part, truth) is SyntheticCategory.INCONSISTENT

    def test_truth_always_minimal_for_generated_classifiers(self):
        schema = default_experiment_schema(8)
        for comp in (2, 5, 8):
            spec = SyntheticSpec(schema=schema, components=comp, trials=1, seed=1)
            for trial in range(10):
                model, anchor = gen_synthetic_classifier(spec, trial)
                truth = model.rule.anchored_to(anchor)
                assert categorize_synthetic(truth, truth) is SyntheticCategory.CONSISTENT_MINIMAL


class TestMinimalRuleSearch:
    def test_two_component_truth(self):
        schema = small_schema((5, 5, 5))
        truth = Rule((leq(0, 2), geq(1, 3)))
        model = RuleClassifier(truth, 3)
        anchor = (1.0, 4.0, 0.0)
        data = uniform_dataset(schema, 20, seed=1)
        found = minimal_rule_search(anchor, model, data, cap=4)
        assert found.cardinality == 2
        assert not found.cap_reached
        assert truth.anchored_to(anchor) in found.witnesses

    def test_matches_exhaustive_enumeration(self):
        schema = small_schema((4, 4, 4))
        truth = Rule((leq(0, 1), geq(2, 2)))
        model = RuleClassifier(truth, 3)
        anchor = (0.0, 2.0, 3.0)
        data = uniform_dataset(schema, 20, seed=2)
        found = minimal_rule_search(anchor, model, data, cap=6)

        # independent oracle: try every anchored rule by ascending size
        instances = all_instances(schema)
        comps = trivial_rule(anchor).components
        expected = None
        for size in range(0, len(comps) + 1):
            ok = [
                combo for combo in itertools.combinations(comps, size)
                if all(model.predict(x) <= 0.5 for x in instances if Rule(combo).evaluate(x))
            ]
            if ok:
                expected = size
                break
        assert found.cardinality == expected

    def test_cap_reported(self):
        schema = small_schema((4, 4, 4))
        model = RuleClassifier(Rule((leq(0, 1), geq(0, 1), leq(1, 2), geq(1, 2))), 3)
        anchor = (1.0, 2.0, 0.0)
        data = uniform_dataset(schema, 20, seed=3)
        found = minimal_rule_search(anchor, model, data, cap=1)
        assert found.cap_reached
        assert found.cardinality is None

    def test_never_exceeds_trivial_cardinality(self):
        schema = small_schema((3, 3))
        model = RuleClassifier(Rule((leq(0, 0), geq(0, 0), leq(1, 1), geq(1, 1))), 2)
        anchor = (0.0, 1.0)
        data = uniform_dataset(schema, 10, seed=4)
        found = minimal_rule_search(anchor, model, data, cap=2 * schema.n)
        assert found.cardinality is not None
        assert found.cardinality <= 2 * schema.n

    def test_single_good_instance_first_in_enumeration_order(self):
        # one good instance at the origin: the packed-bitset path must not
        # lose it to final-byte padding
        from rulecf import TreeClassifier
        from rulecf.classifiers import TreeLeaf, TreeNode

        schema = small_schema((3, 3, 3))
        model = TreeClassifier(
            {
                0: TreeNode(0, 0.0, 1, 6),
                1: TreeNode(1, 0.0, 2, 6),
                2: TreeNode(2, 0.0, 5, 6),
                5: TreeLeaf(0.9),
                6: TreeLeaf(0.1),
            },
            3,
        )
        good = sum(1 for x in all_instances(schema) if model.predict(x) > 0.5)
        assert good == 1  # only (0, 0, 0)
        anchor = (2.0, 2.0, 2.0)
        data = Dataset(schema, (anchor,))
        found = minimal_rule_search(anchor, model, data, cap=4)
        assert found.cardinality == 1  # any single "feature >= 2" bound


class TestMinimalRuleSearchPaths:
    """The bitset path (the whole space enumerated) and the oracle path
    (forced with ``space_cap=0``) give the same answer."""

    @staticmethod
    def assert_paths_agree(model, schema, anchor, cap):
        data = uniform_dataset(schema, 12, seed=0)
        bits = minimal_rule_search(anchor, model, data, cap=cap)
        cf = minimal_rule_search(anchor, model, data, cap=cap, space_cap=0)
        assert (bits.cardinality, bits.witnesses, bits.cap_reached) == (
            cf.cardinality, cf.witnesses, cf.cap_reached)
        return bits

    @pytest.mark.parametrize("make_model", [random_rule_model, random_tree, random_net])
    def test_random_models(self, make_model):
        rng = random.Random(17)
        checked = 0
        for _ in range(12):
            schema = small_schema(tuple(rng.randint(2, 4) for _ in range(3)))
            model = make_model(schema, rng)
            anchor = find_bad_anchor(model, schema)
            if anchor is None:
                continue
            self.assert_paths_agree(model, schema, anchor, cap=rng.choice((1, 2, 6)))
            checked += 1
        assert checked >= 6

    @pytest.mark.parametrize("make_model", [random_tree, random_net])
    def test_good_counts_multiple_of_eight(self, make_model):
        # packbits fills whole bytes here, with no padding bits
        rng = random.Random(5)
        schema = small_schema((4, 4, 4))
        checked = 0
        while checked < 4:
            model = make_model(schema, rng)
            goods = sum(model.predict(x) > 0.5 for x in all_instances(schema))
            anchor = find_bad_anchor(model, schema)
            if goods and goods % 8 == 0 and anchor is not None:
                self.assert_paths_agree(model, schema, anchor, cap=6)
                checked += 1


class TestCategorizeReal:
    def setup_method(self):
        self.schema = small_schema((5, 5, 5))
        self.truth = Rule((leq(0, 2), geq(1, 3)))
        self.model = RuleClassifier(self.truth, 3)
        self.anchor = (1.0, 4.0, 0.0)
        self.anchored = self.truth.anchored_to(self.anchor)

    def test_fdc(self):
        data = Dataset(self.schema, ((1.0, 0.0, 0.0),))  # good row
        rule = Rule((leq(0, 1),))  # that row satisfies it
        cat = categorize_real(rule, self.anchor, self.model, data, s=100, seed=0)
        assert cat is RealCategory.FDC

    def test_fgc(self):
        data = box_dataset(self.schema, self.truth, 40, seed=1)
        rule = Rule((leq(0, 1),))  # misses the second bound
        cat = categorize_real(rule, self.anchor, self.model, data, s=400, seed=0)
        assert cat is RealCategory.FGC

    def test_gc_redundant(self):
        data = box_dataset(self.schema, self.truth, 40, seed=1)
        padded = Rule(self.anchored.components + (leq(2, 0),))
        cat = categorize_real(padded, self.anchor, self.model, data, s=400, seed=0)
        assert cat is RealCategory.GC_REDUNDANT

    def test_gc_minimal(self):
        data = box_dataset(self.schema, self.truth, 40, seed=1)
        cat = categorize_real(self.anchored, self.anchor, self.model, data, s=400, seed=0)
        assert cat is RealCategory.GC_MINIMAL

    def test_rule_not_anchored_at_x_rejected(self):
        # the audit checks the rule's anchored slots through the oracle, so
        # a rule with bounds off the anchor is refused before any grading
        data = box_dataset(self.schema, self.truth, 40, seed=1)
        with pytest.raises(SchemaError, match="not anchored"):
            categorize_real(self.truth, self.anchor, self.model, data, s=100, seed=0)

    def test_gc_not_minimal(self):
        # good outcomes only at (0,0,0) and (4,4,0); the pair
        # {F0<=2, F1>=2} excludes one corner each (irredundant), but the
        # single bound F2>=4 excludes both, so the minimum cardinality is 1
        from rulecf import TreeClassifier
        from rulecf.classifiers import TreeLeaf, TreeNode

        model = TreeClassifier(
            {
                0: TreeNode(2, 0.0, 1, 9),
                1: TreeNode(0, 0.0, 2, 3),
                2: TreeNode(1, 0.0, 5, 6),
                3: TreeNode(0, 3.0, 7, 4),
                4: TreeNode(1, 3.0, 8, 10),
                5: TreeLeaf(0.9), 6: TreeLeaf(0.1), 7: TreeLeaf(0.1),
                8: TreeLeaf(0.1), 9: TreeLeaf(0.1), 10: TreeLeaf(0.9),
            },
            3,
        )
        anchor = (2.0, 2.0, 4.0)
        assert model.predict(anchor) <= 0.5
        data = Dataset(self.schema, ((2.0, 2.0, 4.0), (1.0, 3.0, 2.0)))
        pair = Rule((leq(0, 2), geq(1, 2)))
        cat = categorize_real(pair, anchor, model, data, s=400, seed=0)
        assert cat is RealCategory.GC_NOT_MINIMAL


class TestExperimentRunner:
    def test_report_structure_and_percentages(self):
        schema = default_experiment_schema(8)
        spec = SyntheticSpec(schema=schema, components=2, trials=6, seed=21)
        params = SearchParams(q=20, k=3, s=200, seed=0, max_iterations=60)
        report = run_synthetic_experiment(
            spec, algorithms=("gen-cf", "greedy-cf"), params=params, dataset_rows=200
        )
        for name in ("gen-cf", "greedy-cf"):
            summary = report.algorithms[name]
            assert sum(summary.counts.values()) + summary.errors == 6
            assert math.isclose(sum(summary.percentages().values()), 100.0)
            assert summary.classifier_calls > 0
        payload = report.to_payload()
        assert payload["components"] == 2
        assert "runtime_seconds" not in payload["algorithms"]["gen-cf"]
        timed = report.to_payload(include_timing=True)
        assert "runtime_seconds" in timed["algorithms"]["gen-cf"]

    def test_deterministic_payload(self):
        schema = default_experiment_schema(8)
        spec = SyntheticSpec(schema=schema, components=2, trials=4, seed=33)
        params = SearchParams(q=20, k=3, s=200, seed=0, max_iterations=60)
        a = run_synthetic_experiment(spec, ("greedy-cf",), params, dataset_rows=150)
        b = run_synthetic_experiment(spec, ("greedy-cf",), params, dataset_rows=150)
        assert a.to_payload() == b.to_payload()

    def test_unknown_algorithm_rejected(self):
        schema = default_experiment_schema(8)
        spec = SyntheticSpec(schema=schema, components=2, trials=1, seed=0)
        with pytest.raises(ValueError):
            run_synthetic_experiment(spec, algorithms=("nope",))

    def test_per_trial_failures_recorded_not_raised(self, monkeypatch):
        import rulecf.harness as hm

        schema = default_experiment_schema(8)
        spec = SyntheticSpec(schema=schema, components=2, trials=3, seed=5)

        calls = {"n": 0}

        def flaky(x, model, data, params):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("boom")
            return hm.ALGORITHMS["greedy-cf"].__wrapped__(x, model, data, params) if hasattr(
                hm.ALGORITHMS["greedy-cf"], "__wrapped__"
            ) else _real(x, model, data, params)

        _real = hm.ALGORITHMS["greedy-cf"]
        monkeypatch.setitem(hm.ALGORITHMS, "greedy-cf", flaky)
        report = run_synthetic_experiment(spec, ("greedy-cf",), SearchParams(q=10, k=2, s=100), dataset_rows=100)
        summary = report.algorithms["greedy-cf"]
        assert summary.errors == 1
        assert sum(summary.counts.values()) == 2
        assert len(report.failures) == 1

    def test_dataset_builders(self):
        schema = small_schema((4, 4))
        ds = synthetic_dataset(schema, 25, seed=1)
        assert ds.m == 25
        truth = Rule((leq(0, 2),))
        box = box_dataset(schema, truth, 25, seed=1)
        assert all(truth.evaluate(row) for row in box.instances)


def column_stack_rows(schema, box, rows, rng):
    """Reference: one ``rng.integers`` column per feature, stacked."""
    return np.column_stack([
        values[rng.integers(r.start, r.stop, size=rows)]
        for values, r in zip(schema.domain_arrays, box)
    ])


class TestDatasetDraws:
    """Histories keep their per-column ``rng.integers`` stream: the sampled
    grader reads uniforms instead, and the benchmark builds its inputs with
    these functions."""

    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_builders_keep_the_column_stream(self, seed):
        schema = default_experiment_schema(12)
        truth = Rule((leq(0, 3), geq(4, 2), leq(7, 0), geq(11, 5)))
        for data, tag, box in (
            (synthetic_dataset(schema, 300, seed=seed), "dataset", schema.box(())),
            (box_dataset(schema, truth, 300, seed=seed), "box-dataset", schema.box(truth)),
        ):
            rng = np.random.default_rng(derive_seed(seed, tag))
            assert np.array_equal(data.matrix, column_stack_rows(schema, box, 300, rng))

    def test_an_empty_box_has_no_rows(self):
        schema = small_schema((4, 4))
        with pytest.raises(SchemaError, match="admits no instance"):
            box_dataset(schema, Rule((geq(0, 3), leq(0, 1))), 5)
