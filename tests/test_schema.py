import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rulecf import (
    Dataset,
    DatasetSchema,
    Direction,
    FeatureSchema,
    Rule,
    RuleComponent,
    SchemaError,
    all_components,
    geq,
    leq,
    make_schema,
    trivial_rule,
)
from rulecf.schema import SlotCodec

from conftest import all_instances, small_schema


# bank-style schema: Age, AccNum, Income, Debt
AGE, ACC, INC, DEBT = 0, 1, 2, 3


def bank_rule():
    return Rule((leq(AGE, 50), geq(ACC, 4)))


def bank_schema():
    return make_schema([
        [30.0, 41.0, 50.0, 60.0],
        [2.0, 3.0, 4.0, 5.0],
        [500.0, 600.0, 900.0],
        [0.0, 2000.0, 10000.0],
    ])


class TestRuleEval:
    def test_satisfying_instance(self):
        x = (50.0, 5.0, 900.0, 10000.0)
        assert bank_rule().evaluate(x) is True

    def test_rule_holds_on_its_anchor(self):
        anchor = (50.0, 4.0, 500.0, 10000.0)
        rule = Rule((leq(AGE, 50), geq(ACC, 4), leq(INC, 500)))
        SlotCodec(anchor).mask(rule)  # raises unless anchored at the anchor
        assert rule.evaluate(anchor)

    def test_violated_bound(self):
        rule = Rule((leq(0, 10),))
        assert rule.evaluate((11.0,)) is False

    def test_empty_rule_is_true(self):
        assert Rule().evaluate((1.0, 2.0)) is True

    def test_narrow_instance_rejected(self):
        with pytest.raises(SchemaError):
            Rule((leq(3, 1.0),)).evaluate((0.0, 0.0))

    def test_eval_matches_componentwise_conjunction(self):
        schema = small_schema((3, 3, 3))
        anchor = (1.0, 2.0, 0.0)
        comps = all_components(anchor)
        for r in range(3):
            for combo in itertools.combinations(comps, r):
                rule = Rule(tuple(combo))
                for x in all_instances(schema):
                    assert rule.evaluate(x) == all(c.holds(x) for c in combo)


class TestCardinality:
    def test_equality_counts_two(self):
        rule = Rule((leq(AGE, 50), leq(ACC, 4), geq(ACC, 4), geq(DEBT, 10000)))
        assert rule.cardinality == 4

    def test_three_components(self):
        rule = Rule((leq(AGE, 50), geq(ACC, 4), leq(INC, 500)))
        assert rule.cardinality == 3

    def test_trivial_rule_is_2n(self):
        x = (1.0, 2.0, 3.0, 4.0, 5.0)
        assert trivial_rule(x).cardinality == 2 * len(x)


class TestTrivialRule:
    def test_component_count(self):
        assert len(trivial_rule((0.0, 1.0, 2.0)).components) == 6

    def test_holds_on_anchor(self):
        x = (3.0, 1.0, 2.0)
        assert trivial_rule(x).evaluate(x)

    def test_false_on_any_single_deviation(self):
        schema = small_schema((4, 4, 4))
        x = (1.0, 2.0, 3.0)
        triv = trivial_rule(x)
        for j in range(3):
            for v in schema.domain(j):
                if v == x[j]:
                    continue
                y = x[:j] + (v,) + x[j + 1:]
                assert not triv.evaluate(y)


class TestBox:
    def test_bounds_from_rule(self):
        schema = bank_schema()
        box = schema.box(bank_rule())
        assert box[AGE] == range(0, 3)  # 30, 41, 50
        assert box[ACC] == range(2, 4)  # 4, 5
        assert box[INC] == range(3) and box[DEBT] == range(3)

    def test_empty_rule_unconstrained(self):
        schema = bank_schema()
        assert schema.box(Rule()) == tuple(range(len(f.domain)) for f in schema.features)
        assert schema.space_size() == 144

    def test_equality_pair_freezes_feature(self):
        schema = make_schema([[0.0], [0.0], [10.0, 20.0, 30.0]])
        rule = Rule((leq(2, 20), geq(2, 20)))
        assert schema.box(rule) == (range(1), range(1), range(1, 2))

    def test_box_matches_rule_on_every_instance(self):
        schema = small_schema((3, 3, 3))
        anchor = (2.0, 0.0, 1.0)
        comps = all_components(anchor)
        for r in range(3):
            for combo in itertools.combinations(comps, r):
                rule = Rule(tuple(combo))
                box = schema.box(rule)
                for x in all_instances(schema):
                    inside = all(
                        schema.domain(j).index(v) in box[j] for j, v in enumerate(x)
                    )
                    assert inside == rule.evaluate(x)


def reference_box_values(schema, rule):
    """Per-feature domain values admitted by the rule, by filtering tuples."""
    values = []
    for j in range(schema.n):
        comps = [c for c in rule.components if c.feature == j]
        values.append(tuple(
            v for v in schema.domain(j) if all(c.direction.holds(v, c.bound) for c in comps)
        ))
    return values


class TestBoxKernel:
    """``box`` and ``box_points`` against a tuple filter plus ``itertools.product``."""

    def check(self, schema, rule, chunk):
        box = schema.box(rule)
        # a plain list of the components, in any order, gives the same box
        assert schema.box(list(rule.components)) == box
        assert schema.box(list(reversed(rule.components))) == box
        want = reference_box_values(schema, rule)
        assert [schema.domain(j)[r.start:r.stop] for j, r in enumerate(box)] == want
        chunks = list(schema.box_points(box, chunk))
        assert all(0 < len(c) <= chunk and c.dtype == np.float64 for c in chunks)
        points = [tuple(row) for c in chunks for row in c.tolist()]
        assert points == list(itertools.product(*want))

    def test_leq_and_geq_on_one_feature(self):
        schema = make_schema([[1.0, 2.5, 4.0, 7.0], [0.0, 1.0], [-3.0, 3.0]])
        for lo, hi in ((2.5, 4.0), (1.0, 7.0), (4.0, 4.0), (2.0, 5.0)):
            self.check(schema, Rule((geq(0, lo), leq(0, hi))), chunk=3)

    def test_bounds_between_and_outside_domain_values(self):
        schema = make_schema([[1.0, 2.5, 4.0, 7.0], [0.0, 1.0], [-3.0, 3.0]])
        for bound in (-10.0, 0.5, 1.0, 3.0, 6.99, 7.0, 50.0):
            self.check(schema, Rule((leq(0, bound),)), chunk=5)
            self.check(schema, Rule((geq(0, bound), leq(2, 0.0))), chunk=5)

    def test_empty_boxes(self):
        schema = make_schema([[1.0, 2.5, 4.0, 7.0], [0.0, 1.0], [-3.0, 3.0]])
        for rule in (
            Rule((geq(0, 5.0), leq(0, 4.5))),  # crossed bounds between values
            Rule((geq(0, 4.0), leq(0, 2.5))),  # crossed bounds on values
            Rule((geq(1, 2.0),)),              # above the whole domain
            Rule((leq(2, -5.0), geq(0, 1.0))),  # below the whole domain
        ):
            box = schema.box(rule)
            assert any(not r for r in box)
            assert list(schema.box_points(box, 4)) == []
            self.check(schema, rule, chunk=4)

    def test_random_rules_on_irregular_domains(self):
        rng = random.Random(21)
        domains = [
            sorted(rng.sample([round(0.1 * v, 1) for v in range(-40, 40)], size))
            for size in (1, 2, 5, 9, 4)
        ]
        schema = make_schema(domains)
        for trial in range(200):
            comps = []
            for j, d in rng.sample(
                [(j, d) for j in range(schema.n) for d in (Direction.LEQ, Direction.GEQ)],
                rng.randint(0, 6),
            ):
                dom = schema.domain(j)
                bound = rng.choice(dom + (dom[0] - 1.0, dom[-1] + 1.0, dom[0] + 0.05))
                comps.append(RuleComponent(j, d, bound))
            self.check(schema, Rule(tuple(comps)), chunk=rng.choice((1, 7, 64, 4096)))

    def test_rule_outside_schema_rejected(self):
        with pytest.raises(SchemaError):
            small_schema((3, 3)).box(Rule((leq(2, 1.0),)))


class TestRuleConstruction:
    def test_relevance_enforced(self):
        anchor = (50.0, 4.0, 500.0, 10000.0)
        with pytest.raises(SchemaError, match="not anchored"):
            SlotCodec(anchor).mask(Rule((leq(AGE, 49),)))

    def test_conflicting_slot_bounds_rejected(self):
        with pytest.raises(SchemaError):
            Rule((leq(0, 5), leq(0, 9)))

    def test_duplicates_collapse(self):
        rule = Rule((leq(0, 5), leq(0, 5.0)))
        assert rule.cardinality == 1

    def test_canonical_order(self):
        a = Rule((geq(1, 3), leq(0, 2), leq(1, 3)))
        b = Rule((leq(0, 2), leq(1, 3), geq(1, 3)))
        assert a == b
        assert hash(a) == hash(b)
        assert [c.sort_key for c in a.components] == sorted(c.sort_key for c in a.components)

    def test_anchored_version_keeps_slots(self):
        rule = Rule((leq(0, 7), geq(2, 1)))
        anchored = rule.anchored_to((5.0, 9.0, 3.0))
        assert anchored == Rule((leq(0, 5), geq(2, 3)))

    def test_anchoring_outside_the_instance_rejected(self):
        with pytest.raises(SchemaError):
            Rule((leq(0, 7), geq(3, 1))).anchored_to((5.0, 9.0, 3.0))

    def test_codec_components_of_a_mask_are_canonical(self):
        x = (5.0, 9.0, 3.0)
        codec = SlotCodec(x)
        rule = Rule((geq(2, 3), leq(0, 5), geq(0, 5)))
        mask = codec.mask(rule)
        assert codec.components_of(mask) == rule.components
        assert codec.rule(mask) == rule
        assert [codec.slot(c) for c in rule] == [0, 1, 5]

    @pytest.mark.parametrize("mask", [1 << 4, 1 << 5, -1, -4])
    def test_codec_rejects_a_mask_beyond_the_anchor(self, mask):
        # two features make four slots: bits 0-3
        codec = SlotCodec((0.0, 1.0))
        with pytest.raises(SchemaError, match="slots"):
            codec.components_of(mask)
        with pytest.raises(SchemaError, match="slots"):
            codec.rule(mask)
        assert codec.rule(codec.full).cardinality == 4


class TestSchemaTypes:
    def test_domain_must_ascend(self):
        with pytest.raises(SchemaError):
            FeatureSchema(0, "f", (3.0, 1.0))

    def test_domain_must_be_nonempty(self):
        with pytest.raises(SchemaError):
            FeatureSchema(0, "f", ())

    def test_indices_must_be_contiguous(self):
        f0 = FeatureSchema(0, "a", (1.0,))
        f2 = FeatureSchema(2, "b", (1.0,))
        with pytest.raises(SchemaError):
            DatasetSchema((f0, f2))

    def test_feature_names_must_be_unique(self):
        f0 = FeatureSchema(0, "age", (1.0,))
        f1 = FeatureSchema(1, "age", (1.0, 2.0))
        with pytest.raises(SchemaError, match="duplicate feature name 'age'"):
            DatasetSchema((f0, f1))
        with pytest.raises(SchemaError, match="duplicate feature name"):
            make_schema([[0.0], [0.0]], names=["x", "x"])

    def test_dataset_rejects_off_domain_values(self):
        schema = small_schema((3, 3))
        with pytest.raises(SchemaError):
            Dataset(schema, ((0.0, 9.0),))

    def test_space_size(self):
        assert small_schema((3, 4, 5)).space_size() == 60


def test_dataset_validation_matches_per_row_reference():
    """Vectorised validation raises the message a row-by-row
    ``validate_instance`` pass raises first."""
    rng = random.Random(5)
    schema = make_schema([[0.5 * v for v in range(k)] for k in (3, 7, 12, 5)])
    planted_runs = 0
    for _trial in range(150):
        rows = [
            [rng.choice(schema.domain(j)) for j in range(schema.n)]
            for _ in range(rng.randint(1, 40))
        ]
        for _ in range(rng.choice((0, 1, 1, 2, 5))):
            i, j = rng.randrange(len(rows)), rng.randrange(schema.n)
            rows[i][j] = rng.choice((-1.0, 0.25, 0.75, 99.0, schema.domain(j)[-1] + 0.5))
        if rng.random() < 0.1:
            rows[rng.randrange(len(rows))].append(0.0)  # a row of the wrong width
        rows = tuple(map(tuple, rows))
        expected = None
        for row in rows:
            try:
                schema.validate_instance(row)
            except SchemaError as exc:
                expected = str(exc)
                break
        if expected is None:
            assert Dataset(schema, rows).matrix.shape == (len(rows), schema.n)
            continue
        planted_runs += 1
        with pytest.raises(SchemaError) as info:
            Dataset(schema, rows)
        assert str(info.value) == expected
    assert planted_runs > 80


@pytest.mark.parametrize("rows, message", [
    (((0.0, 1.0, 2.0), (1.0, "x", 2.0)), "not a numeric value: 'x'"),
    (((0.0, None, 2.0),), "not a numeric value: None"),
    (((0.0, 1.0, 2.0), (1.0, 2.0, "nan")), "value must be finite, got 'nan'"),
    (((0.0, 1.0, "inf"),), "value must be finite, got 'inf'"),
    (((0.0, 1.0, 2.0), (1.0, 2.0)), "instance has 2 values, schema expects 3"),
    (((0.0, 1.0, 2.0), (1.0, 2.0, 7.0)), "value 7.0 of feature 'f2' is not in its domain"),
    # a non-finite cell raises before a later one that float() cannot take
    (((float("nan"), 10 ** 400, 0.0),), "value must be finite, got nan"),
    # every cell converts before any width is checked
    (((0.0, 1.0), (0.0, 1.0, 2.0), (0.0, 1.0, 2.0), (1.0, "y", 2.0)),
     "not a numeric value: 'y'"),
])
def test_dataset_errors_keep_their_precedence(rows, message):
    with pytest.raises(SchemaError) as info:
        Dataset(small_schema((4, 4, 4)), rows)
    assert str(info.value) == message


def test_dataset_keeps_float_cells_and_survives_an_overflowing_sum():
    schema = make_schema([[1e308], [1e308]])
    row = (1e308, 1e308)
    data = Dataset(schema, (row,))
    assert data.instances[0][0] is row[0]
    assert data.matrix.tolist() == [[1e308, 1e308]]
    ints = Dataset(small_schema((2, 2)), ((0, 1),))
    assert ints.instances == ((0.0, 1.0),) and type(ints.instances[0][1]) is float


def test_validate_instance_agrees_with_domain_membership():
    rng = random.Random(8)
    schema = make_schema([[0.5 * v for v in range(k)] for k in (3, 7)])
    for _ in range(300):
        x = (rng.choice((0.0, 0.5, 1.0, 1.25, -0.5, 3.0)), rng.choice((0.0, 2.5, 3.0, 3.5)))
        bad = [(f, v) for f, v in zip(schema.features, x) if v not in f.domain]
        if not bad:
            schema.validate_instance(x)
            continue
        f, v = bad[0]
        with pytest.raises(SchemaError, match=f"value {v!r} of feature {f.name!r}"):
            schema.validate_instance(x)


@given(st.lists(st.integers(0, 2), min_size=3, max_size=3),
       st.lists(st.integers(0, 2), min_size=3, max_size=3))
def test_trivial_rule_accepts_only_its_anchor(a_idx, b_idx):
    schema = small_schema((3, 3, 3))
    a = tuple(schema.domain(j)[i] for j, i in enumerate(a_idx))
    b = tuple(schema.domain(j)[i] for j, i in enumerate(b_idx))
    assert trivial_rule(a).evaluate(b) == (a == b)


@given(st.integers(0, 3), st.integers(0, 3), st.sampled_from([Direction.LEQ, Direction.GEQ]))
def test_component_prediction_matches_direction(value_idx, bound_idx, direction):
    domain = (0.0, 1.0, 2.0, 3.0)
    comp = RuleComponent(0, direction, domain[bound_idx])
    x = (domain[value_idx],)
    expected = x[0] <= comp.bound if direction is Direction.LEQ else x[0] >= comp.bound
    assert comp.holds(x) == expected
