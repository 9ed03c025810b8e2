import itertools
import random

import pytest
from hypothesis import given, strategies as st

from rulecf import (
    CfResult,
    Counterfactual,
    CounterfactualOracle,
    Rule,
    RuleClassifier,
    SchemaError,
    SearchParams,
    cf_rules,
    dual_of,
    geq,
    greedy_rule_cf,
    leq,
    minimal_set_covers,
    trivial_rule,
)
from rulecf.duality import COVER_SIZE_CAP, MAX_COVERS_PER_PARENT, _covers_for_expansion
from rulecf.schema import SlotCodec, mask_slots

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
        assert clause == SlotCodec(anchor).mask(Rule((geq(0, 10), leq(1, 20))))
        assert mask_slots(clause) == (1, 2)

    def test_identical_instance_gives_empty_clause(self):
        anchor = (1.0, 2.0, 3.0)
        assert dual_of(anchor, anchor) == 0

    def test_all_features_differ(self):
        anchor = (1.0, 2.0, 3.0)
        x = (0.0, 5.0, 1.0)
        assert dual_of(anchor, x).bit_count() == 3

    def test_components_conflict_with_generator(self):
        schema = small_schema((4, 4, 4))
        anchor = (2.0, 1.0, 3.0)
        codec = SlotCodec(anchor)
        for x in all_instances(schema):
            for comp in codec.rule(dual_of(anchor, x)).components:
                assert not comp.holds(x)
                assert comp.bound == anchor[comp.feature]

    def test_dual_components_exactly_the_violated_ones(self):
        schema = small_schema((3, 3, 3))
        anchor = (1.0, 1.0, 1.0)
        codec = SlotCodec(anchor)
        for x in all_instances(schema):
            violated = Rule(tuple(c for c in codec.components if not c.holds(x)))
            assert dual_of(anchor, x) == codec.mask(violated)

    def test_width_mismatch(self):
        with pytest.raises(SchemaError):
            dual_of((1.0, 2.0), (1.0,))


def cover_order(mask):
    return (mask.bit_count(), tuple(k for k in range(mask.bit_length()) if mask >> k & 1))


def oracle_hitting_sets(clauses, universe):
    """Exhaustive subset enumeration over a universe of ``universe`` slots."""
    hitters = {sub for sub in range(1 << universe) if all(sub & c for c in clauses)}
    minimal = [
        h for h in hitters
        if not any(h >> k & 1 and h & ~(1 << k) in hitters for k in range(universe))
    ]
    return sorted(minimal, key=cover_order)


def mask(*slots):
    return sum(1 << k for k in set(slots))


class TestMinimalSetCovers:
    def test_worked_bank_example(self):
        anchor = (50.0, 4.0, 500.0, 10000.0)
        codec = SlotCodec(anchor)
        acc_leq, inc_leq, debt_geq = (
            codec.mask(Rule((c,))) for c in (leq(1, 4), leq(2, 500), geq(3, 10000))
        )
        family = [acc_leq | inc_leq, inc_leq | debt_geq]
        covers = minimal_set_covers(family)
        assert covers == [inc_leq, acc_leq | debt_geq]

    def test_empty_family(self):
        assert minimal_set_covers([]) == [0]

    def test_singleton_family(self):
        covers = minimal_set_covers([mask(0, 3)])
        assert covers == [mask(0), mask(3)]

    def test_matches_oracle_on_exhaustive_small_families(self):
        # every non-empty clause of at most 2 of 4 slots
        clauses = [c for c in range(1, 16) if c.bit_count() <= 2]
        count = 0
        for size in (1, 2, 3):
            for family in itertools.combinations(clauses, size):
                assert minimal_set_covers(family) == oracle_hitting_sets(family, 4)
                count += 1
        assert count == 175  # every family of <= 3 clauses over this universe

    def test_matches_oracle_on_random_bounded_families(self):
        rng = random.Random(99)
        for _ in range(300):
            family = [
                mask(*rng.sample(range(8), rng.randint(1, 4)))
                for _ in range(rng.randint(1, 6))
            ]
            assert minimal_set_covers(family) == oracle_hitting_sets(family, 8)

    def test_disjoint_singletons_force_union(self):
        family = [mask(k) for k in range(4)]
        assert minimal_set_covers(family) == [mask(0, 1, 2, 3)]

    def test_empty_clause_rejected(self):
        with pytest.raises(SchemaError):
            minimal_set_covers([0])


class TestCoverExpansionCaps:
    def test_size_cap_applies_to_residual(self):
        # six forced singletons plus one free pair: every cover has >= 7
        # slots but only 1 residual choice
        singles = [mask(k) for k in range(6)]
        covers = _covers_for_expansion(tuple(singles + [mask(6, 7)]))
        assert len(covers) == 2
        assert all(c.bit_count() == 7 for c in covers)

    def test_smallest_cover_survives_aggressive_cap(self):
        # five disjoint pairs: every minimal cover has 5 slots, above the
        # residual size cap of 4
        family = tuple(mask(i, i + 1) for i in range(0, 10, 2))
        covers = _covers_for_expansion(family)
        assert covers  # never starves expansion
        assert covers == minimal_set_covers(family)[:1]
        # six disjoint 4-slot clauses: 4**6 minimal covers of 6 slots, too
        # many for a pairwise subset filter to finish quickly
        family = tuple(mask(*range(i, i + 4)) for i in range(0, 24, 4))
        assert len(minimal_set_covers(family)) == 4**6
        assert _covers_for_expansion(family) == minimal_set_covers(family)[:1]

    def test_count_cap(self):
        # four disjoint 3-slot clauses: 3**4 = 81 minimal covers of size 4
        family = tuple(mask(i, i + 1, i + 2) for i in range(0, 12, 3))
        assert len(minimal_set_covers(family)) == 81
        covers = _covers_for_expansion(family)
        assert covers == minimal_set_covers(family)[:32]

    def test_caps_match_the_subset_oracle_on_random_families(self):
        rng = random.Random(2024)
        capped = starved = cut = 0
        for _ in range(2000):
            universe, family = random_family(rng)
            covers = oracle_hitting_sets(family, universe)
            singletons = {c for c in family if c.bit_count() == 1}
            eligible = [c for c in covers if c.bit_count() - len(singletons) <= COVER_SIZE_CAP]
            want = (eligible or covers[:1])[:MAX_COVERS_PER_PARENT]
            assert _covers_for_expansion(tuple(family)) == want
            capped += len(eligible) < len(covers)
            starved += not eligible
            cut += len(eligible) > MAX_COVERS_PER_PARENT
        # each cap decides some of these families
        assert capped > starved >= 10 and cut >= 10


def random_family(rng):
    """At most 6 clauses over at most 10 slots. Half the families start with
    disjoint blocks of a shuffled universe of 8 to 10 slots, which give many
    covers or none within the size cap; random clauses follow."""
    blocks = rng.random() < 0.5
    universe = rng.randint(8, 10) if blocks else rng.randint(1, 10)
    family = []
    if blocks:
        slots = rng.sample(range(universe), universe)
        while slots and len(family) < 6:
            size = rng.choice((1, 2, 2, 3))
            family.append(mask(*slots[:size]))
            del slots[:size]
    while not family or (len(family) < 6 and rng.random() < 0.5):
        family.append(mask(*rng.sample(range(universe), rng.randint(1, min(4, universe)))))
    return universe, family


class StubEngine:
    """Counterfactual engine whose counterfactuals are injected per rule."""

    def __init__(self, outcomes):
        self.outcomes = outcomes
        self.queries = 0

    def find_counterfactuals(self, model, data, query):
        self.queries += 1
        return CfResult(tuple(
            Counterfactual(x, frozenset(), 0.0) for x in self.outcomes.get(Rule(query.rule), ())
        ))


def StubOracle(outcomes):
    """A real oracle (mask-keyed cache, cover memo) over a stub engine."""
    return CounterfactualOracle(None, None, engine=StubEngine(outcomes))


class TestCfRules:
    def test_worked_example_extension(self):
        anchor = (50.0, 4.0, 500.0, 10000.0)
        codec = SlotCodec(anchor)
        parent = Rule((leq(0, 50), geq(1, 4)))
        oracle = StubOracle({
            parent: [(50.0, 5.0, 900.0, 10000.0), (50.0, 4.0, 600.0, 2000.0)],
        })
        candidates = cf_rules([codec.mask(parent)], anchor, oracle)
        assert not oracle.consistent(codec.mask(parent), anchor)
        r1 = Rule((leq(0, 50), geq(1, 4), leq(2, 500)))
        r2 = Rule((leq(0, 50), leq(1, 4), geq(1, 4), geq(3, 10000)))
        assert candidates == [codec.mask(r1), codec.mask(r2)]
        assert r1.cardinality == 3 and r2.cardinality == 4

    def test_not_found_marks_verified(self):
        anchor = (1.0, 2.0)
        rule = SlotCodec(anchor).mask(Rule((leq(0, 1),)))
        oracle = StubOracle({})
        candidates = cf_rules([rule], anchor, oracle)
        assert candidates == []
        assert oracle.consistent(rule, anchor)

    def test_cached_rules_not_re_verified(self):
        anchor = (1.0, 2.0)
        parent = SlotCodec(anchor).mask(Rule((leq(0, 1),)))
        oracle = StubOracle({})
        cf_rules([parent], anchor, oracle)
        entries = len(oracle.cache)
        assert cf_rules([parent], anchor, oracle) == []
        assert len(oracle.cache) == entries

    def test_candidates_strictly_grow(self):
        anchor = (3.0, 3.0, 3.0)
        parent = Rule((leq(0, 3),))
        oracle = StubOracle({parent: [(2.0, 0.0, 3.0), (3.0, 3.0, 0.0)]})
        parent_mask = SlotCodec(anchor).mask(parent)
        candidates = cf_rules([parent_mask], anchor, oracle)
        assert candidates
        for child in candidates:
            assert child & parent_mask == parent_mask and child != parent_mask

    def test_parents_expand_in_slot_order(self):
        # parents given out of order and repeated come back in slot order,
        # each queried once
        anchor = (1.0, 1.0)
        queried = []

        class Recording(CounterfactualOracle):
            def outcome(self, mask, anchor):
                queried.append(mask)
                return super().outcome(mask, anchor)

        oracle = Recording(None, None, engine=StubEngine({}))
        cf_rules([mask(2), mask(0, 3), mask(1), mask(2)], anchor, oracle)
        assert queried == [mask(0, 3), mask(1), mask(2)]

    def test_clause_hitting_the_parent_is_rejected(self):
        anchor = (1.0, 1.0)
        parent = Rule((leq(0, 1),))
        # (2, 1) violates the parent's own component: the engine broke its box
        oracle = StubOracle({parent: [(2.0, 1.0)]})
        with pytest.raises(RuntimeError):
            cf_rules([SlotCodec(anchor).mask(parent)], anchor, oracle)

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
            rule = SlotCodec(anchor).mask(Rule(tuple(comps)))
            outcome = oracle.outcome(rule, anchor)
            for clause in outcome.duals:
                checked += 1
                assert not clause & rule
        assert checked > 5

    def test_one_query_per_distinct_rule(self):
        schema = small_schema((4, 4))
        data = uniform_dataset(schema, 25)
        model = random_rule_model(schema, random.Random(3))
        anchor = find_bad_anchor(model, schema)
        oracle = CounterfactualOracle(model, data, k=3, seed=0)
        masks = [0, SlotCodec(anchor).mask(Rule((leq(0, anchor[0]),))), 0]
        cf_rules(masks, anchor, oracle)
        cf_rules(masks, anchor, oracle)
        oracle.consistent(0, anchor)
        assert oracle.engine.queries == 2  # one per distinct rule


class TestOracleAnchor:
    """Dual clauses are masks over one anchor's slots, so an oracle serves
    one anchor only."""

    def test_second_anchor_rejected(self):
        schema = small_schema((4, 4))
        data = uniform_dataset(schema, 25)
        model = RuleClassifier(Rule((leq(0, 1),)), 2)
        oracle = CounterfactualOracle(model, data, k=3, seed=0)
        assert not oracle.consistent(0, (0.0, 0.0))
        assert not oracle.consistent(0, [0, 0])  # the same anchor
        with pytest.raises(ValueError, match="answers for anchor"):
            oracle.outcome(0, (1.0, 0.0))

    def test_shared_oracle_across_greedy_runs(self):
        schema = small_schema((4, 4, 4))
        data = uniform_dataset(schema, 25)
        rng = random.Random(5)
        params = SearchParams(seed=0)
        runs = 0
        while runs < 20:
            model = random_rule_model(schema, rng)
            bad = [x for x in all_instances(schema) if model.is_bad(x)]
            if len(bad) < 2:
                continue
            first, second = rng.sample(bad, 2)
            oracle = CounterfactualOracle(model, data, k=params.cf_k, seed=params.seed)
            greedy_rule_cf(first, model, data, params, oracle=oracle)
            with pytest.raises(ValueError, match="answers for anchor"):
                greedy_rule_cf(second, model, data, params, oracle=oracle)
            runs += 1


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
            codec = SlotCodec(anchor)
            for r in (1, 2, 3):
                for combo in itertools.combinations(codec.components, r):
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
                        assert dual_of(anchor, x_cf) & codec.mask(rule)
        assert triples > 50


@given(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=4), min_size=0, max_size=5))
def test_hitting_sets_hit_and_are_minimal(clause_indices):
    clauses = [mask(*idxs) for idxs in clause_indices]
    result = minimal_set_covers(clauses)
    for hs in result:
        assert all(hs & c for c in clauses)
        for slot in mask_slots(hs):
            smaller = hs & ~(1 << slot)
            assert not all(smaller & c for c in clauses)
