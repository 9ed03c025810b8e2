import itertools
import random

import pytest
from hypothesis import given, strategies as st

from rulecf import (
    CfCache,
    CfOutcome,
    CounterfactualOracle,
    Direction,
    DualClause,
    Rule,
    RuleComponent,
    SchemaError,
    cf_rules,
    dual_of,
    geq,
    leq,
    minimal_set_covers,
    trivial_rule,
)
from rulecf.duality import _covers_for_expansion, _minimal_hitting_sets

from conftest import (
    all_instances,
    find_bad_anchor,
    random_rule_model,
    small_schema,
    uniform_dataset,
)


class TestDualOf:
    def test_three_feature_example(self):
        anchor = (10.0, 20.0, 30.0)
        x = (5.0, 90.0, 30.0)
        clause = dual_of(anchor, x)
        assert set(clause.components) == {geq(0, 10), leq(1, 20)}

    def test_identical_instance_gives_empty_clause(self):
        anchor = (1.0, 2.0, 3.0)
        assert dual_of(anchor, anchor).components == ()

    def test_all_features_differ(self):
        anchor = (1.0, 2.0, 3.0)
        x = (0.0, 5.0, 1.0)
        assert len(dual_of(anchor, x)) == 3

    def test_components_conflict_with_generator(self):
        schema = small_schema((4, 4, 4))
        anchor = (2.0, 1.0, 3.0)
        for x in all_instances(schema):
            clause = dual_of(anchor, x)
            for comp in clause.components:
                assert not comp.holds(x)
                assert comp.bound == anchor[comp.feature]

    def test_dual_components_exactly_the_violated_ones(self):
        schema = small_schema((3, 3, 3))
        anchor = (1.0, 1.0, 1.0)
        for x in all_instances(schema):
            clause = set(dual_of(anchor, x).components)
            violated = {c for c in trivial_rule(anchor).components if not c.holds(x)}
            assert clause == violated

    def test_width_mismatch(self):
        with pytest.raises(SchemaError):
            dual_of((1.0, 2.0), (1.0,))


def oracle_hitting_sets(clauses, universe):
    """Exhaustive subset enumeration over the component universe."""
    hitters = [
        frozenset(sub)
        for r in range(len(universe) + 1)
        for sub in itertools.combinations(universe, r)
        if all(set(sub) & set(c) for c in clauses)
    ]
    return sorted(
        (h for h in hitters if not any(o < h for o in hitters)),
        key=lambda h: (len(h), tuple(sorted(c.sort_key for c in h))),
    )


def components(n):
    return [RuleComponent(j, d, 1.0) for j in range(n) for d in (Direction.LEQ, Direction.GEQ)]


class TestMinimalSetCovers:
    def test_worked_bank_example(self):
        acc_leq = leq(1, 4)
        inc_leq = leq(2, 500)
        debt_geq = geq(3, 10000)
        family = [DualClause((acc_leq, inc_leq)), DualClause((inc_leq, debt_geq))]
        covers = minimal_set_covers(family)
        assert covers == [(inc_leq,), (acc_leq, debt_geq)]

    def test_empty_family(self):
        assert minimal_set_covers([]) == [()]

    def test_singleton_family(self):
        a, b = leq(0, 1), geq(1, 2)
        covers = minimal_set_covers([DualClause((a, b))])
        assert covers == [(a,), (b,)]

    def test_matches_oracle_on_exhaustive_small_families(self):
        universe = components(2)  # 4 distinct components
        clauses = [frozenset(c) for r in (1, 2) for c in itertools.combinations(universe, r)]
        count = 0
        for size in (1, 2, 3):
            for family in itertools.combinations(clauses, size):
                got = _minimal_hitting_sets([set(c) for c in family])
                want = oracle_hitting_sets(family, universe)
                assert sorted(got, key=lambda h: (len(h), tuple(sorted(c.sort_key for c in h)))) == want
                count += 1
        assert count == 175  # every family of <= 3 clauses over this universe

    def test_matches_oracle_on_random_bounded_families(self):
        rng = random.Random(99)
        universe = components(4)  # 8 distinct components
        for _ in range(300):
            n_clauses = rng.randint(1, 6)
            family = [
                frozenset(rng.sample(universe, rng.randint(1, 4)))
                for _ in range(n_clauses)
            ]
            got = _minimal_hitting_sets([set(c) for c in family])
            want = oracle_hitting_sets(family, universe)
            assert sorted(got, key=lambda h: (len(h), tuple(sorted(c.sort_key for c in h)))) == want

    def test_disjoint_singletons_force_union(self):
        comps = components(4)[:4]
        family = [DualClause((c,)) for c in comps]
        covers = minimal_set_covers(family)
        assert covers == [tuple(sorted(comps, key=lambda c: c.sort_key))]

    def test_empty_clause_rejected(self):
        with pytest.raises(SchemaError):
            minimal_set_covers([DualClause(())])


class TestCoverExpansionCaps:
    def test_size_cap_applies_to_residual(self):
        # six forced singletons plus one free pair: every cover has >= 7
        # components but only 1 residual choice
        comps = components(6)
        singles = [DualClause((c,)) for c in comps[:6]]
        pair = DualClause((comps[6], comps[7]))
        covers = _covers_for_expansion(tuple(singles + [pair]))
        assert len(covers) == 2
        assert all(len(c) == 7 for c in covers)

    def test_smallest_cover_survives_aggressive_cap(self):
        # five disjoint pairs: every minimal cover has 5 components, above
        # the residual size cap of 4
        comps = components(5)
        family = tuple(DualClause(tuple(comps[i:i + 2])) for i in range(0, 10, 2))
        covers = _covers_for_expansion(family)
        assert covers  # never starves expansion
        assert covers == minimal_set_covers(family)[:1]

    def test_count_cap(self):
        # four disjoint 3-component clauses: 3**4 = 81 minimal covers of size 4
        comps = components(6)
        family = tuple(DualClause(tuple(comps[i:i + 3])) for i in range(0, 12, 3))
        assert len(minimal_set_covers(family)) == 81
        covers = _covers_for_expansion(family)
        assert covers == minimal_set_covers(family)[:32]


class StubOracle:
    """Cached oracle whose counterfactuals are injected per rule."""

    def __init__(self, outcomes):
        self.cache = CfCache()
        self._outcomes = outcomes

    def outcome(self, rule, anchor):
        cached = self.cache.get(rule)
        if cached is not None:
            return cached
        instances = self._outcomes.get(rule)
        if instances is None:
            out = CfOutcome(found=False)
        else:
            duals = tuple(dict.fromkeys(dual_of(anchor, x) for x in instances))
            out = CfOutcome(found=True, duals=duals)
        self.cache.put(rule, out)
        return out

    def consistent(self, rule, anchor):
        return not self.outcome(rule, anchor).found


class TestCfRules:
    def test_worked_example_extension(self):
        anchor = (50.0, 4.0, 500.0, 10000.0)
        parent = Rule((leq(0, 50), geq(1, 4)))
        oracle = StubOracle({
            parent: [(50.0, 5.0, 900.0, 10000.0), (50.0, 4.0, 600.0, 2000.0)],
        })
        candidates = cf_rules([parent], anchor, oracle)
        assert not oracle.consistent(parent, anchor)
        r1 = Rule((leq(0, 50), geq(1, 4), leq(2, 500)))
        r2 = Rule((leq(0, 50), leq(1, 4), geq(1, 4), geq(3, 10000)))
        assert candidates == [r1, r2]
        assert r1.cardinality == 3 and r2.cardinality == 4

    def test_not_found_marks_verified(self):
        anchor = (1.0, 2.0)
        rule = Rule((leq(0, 1),))
        oracle = StubOracle({})
        candidates = cf_rules([rule], anchor, oracle)
        assert candidates == []
        assert oracle.consistent(rule, anchor)

    def test_cached_rules_not_re_verified(self):
        anchor = (1.0, 2.0)
        rule = Rule((leq(0, 1),))
        oracle = StubOracle({})
        cf_rules([rule], anchor, oracle)
        entries = len(oracle.cache)
        assert cf_rules([rule], anchor, oracle) == []
        assert len(oracle.cache) == entries

    def test_candidates_strictly_grow(self):
        anchor = (3.0, 3.0, 3.0)
        parent = Rule((leq(0, 3),))
        oracle = StubOracle({parent: [(2.0, 0.0, 3.0), (3.0, 3.0, 0.0)]})
        candidates = cf_rules([parent], anchor, oracle)
        assert candidates
        for child in candidates:
            assert set(child.components) > set(parent.components)

    def test_real_oracle_duals_disjoint_from_rule(self, rng):
        schema = small_schema((4, 4, 4))
        data = uniform_dataset(schema, 25)
        checked = 0
        for trial in range(25):
            model = random_rule_model(schema, rng)
            anchor = find_bad_anchor(model, schema)
            if anchor is None:
                continue
            oracle = CounterfactualOracle(model, data, k=5, seed=trial)
            comps = [c for c in trivial_rule(anchor).components if rng.random() < 0.3]
            rule = Rule(tuple(comps))
            outcome = oracle.outcome(rule, anchor)
            for clause in outcome.duals:
                checked += 1
                assert not set(clause.components) & set(rule.components)
        assert checked > 5

    def test_one_query_per_distinct_rule(self):
        schema = small_schema((4, 4))
        data = uniform_dataset(schema, 25)
        model = random_rule_model(schema, random.Random(3))
        anchor = find_bad_anchor(model, schema)
        oracle = CounterfactualOracle(model, data, k=3, seed=0)
        rules = [Rule(()), Rule((leq(0, anchor[0]),)), Rule(())]
        cf_rules(rules, anchor, oracle)
        cf_rules(rules, anchor, oracle)
        oracle.consistent(Rule(()), anchor)
        assert oracle.engine.queries == 2  # one per distinct rule


class TestDualityTheorem:
    def test_consistent_rules_hit_every_dual(self, rng):
        """Brute-force duality check on enumerable schemas."""
        schema = small_schema((3, 3, 3))
        triples = 0
        for trial in range(40):
            model = random_rule_model(schema, rng, max_components=3)
            anchor = find_bad_anchor(model, schema)
            if anchor is None:
                continue
            instances = all_instances(schema)
            goods = [x for x in instances if model.predict(x) > 0.5]
            if not goods:
                continue
            comps = trivial_rule(anchor).components
            for r in (1, 2, 3):
                for combo in itertools.combinations(comps, r):
                    rule = Rule(tuple(combo))
                    consistent = all(
                        model.predict(x) <= 0.5
                        for x in instances
                        if rule.evaluate(x)
                    )
                    if not consistent:
                        continue
                    triples += 1
                    for x_cf in goods:
                        assert not rule.evaluate(x_cf)  # exclusion
                        clause = dual_of(anchor, x_cf)
                        assert set(clause.components) & set(rule.components)
        assert triples > 50


@given(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=4), min_size=0, max_size=5))
def test_hitting_sets_hit_and_are_minimal(clause_indices):
    universe = components(3)
    clauses = [{universe[i] for i in idxs} for idxs in clause_indices]
    result = _minimal_hitting_sets(clauses)
    for hs in result:
        assert all(hs & c for c in clauses)
        for comp in hs:
            smaller = hs - {comp}
            assert not all(smaller & c for c in clauses)
