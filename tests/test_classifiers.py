import random
import threading

import numpy as np
import pytest

from rulecf import (
    ModelFormatError,
    NetClassifier,
    Rule,
    RuleClassifier,
    SchemaError,
    TreeClassifier,
    geq,
    leq,
    parse_model,
)
from rulecf.classifiers import TreeLeaf, TreeNode

from conftest import all_instances, random_net, random_tree, small_schema


class TestRuleClassifier:
    def test_bad_when_rule_holds(self):
        model = RuleClassifier(Rule((leq(0, 10),)), 3)
        assert model.predict((5.0, 0.0, 0.0)) == 0.0

    def test_good_when_rule_fails(self):
        model = RuleClassifier(Rule((leq(0, 10),)), 3)
        assert model.predict((11.0, 0.0, 0.0)) == 1.0

    def test_batch_matches_scalar(self):
        rule = Rule((leq(0, 2), geq(1, 1)))
        model = RuleClassifier(rule, 2)
        rows = [(0.0, 0.0), (0.0, 1.0), (3.0, 1.0)]
        expected = [0.0 if rule.evaluate(r) else 1.0 for r in rows]
        assert list(model.predict_batch(rows)) == expected
        assert [model.predict(r) for r in rows] == expected

    def test_dimension_mismatch(self):
        model = RuleClassifier(Rule((leq(0, 1),)), 2)
        with pytest.raises(SchemaError):
            model.predict((1.0,))


def walk(model: TreeClassifier, x) -> float:
    """A tree's score at ``x`` by following its splits from the root."""
    node = model.nodes[model.ROOT]
    while isinstance(node, TreeNode):
        node = model.nodes[node.left if x[node.feature] <= node.threshold else node.right]
    return node.score


class TestTreeClassifier:
    def test_single_split_trace(self):
        # root splits F0 at 3; left leaf 0.2, right leaf 0.9
        model = TreeClassifier(
            {0: TreeNode(0, 3.0, 1, 2), 1: TreeLeaf(0.2), 2: TreeLeaf(0.9)}, 1
        )
        assert model.predict((3.0,)) == 0.2
        assert model.predict((4.0,)) == 0.9

    def test_batch_agrees_with_walk(self, rng):
        schema = small_schema((4, 4, 4))
        model = random_tree(schema, rng, depth=4)
        from conftest import all_instances

        rows = all_instances(schema)
        expected = [walk(model, r) for r in rows]
        assert list(model.predict_batch(rows)) == expected
        assert [model.predict(r) for r in rows] == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_batch_agrees_with_walk_on_unbalanced_trees(self, seed):
        rng = np.random.default_rng(seed)
        schema = small_schema((5, 4, 6))
        model = random_tree(schema, random.Random(seed), depth=6)
        # off-grid values and exact thresholds both reach the <= test
        rows = np.vstack([
            np.array(all_instances(schema), dtype=float),
            rng.uniform(-1.0, 6.0, size=(200, 3)),
        ])
        expected = [walk(model, r) for r in rows]
        assert model.predict_batch(rows).tolist() == expected
        assert model.predict_batch(rows[:0]).tolist() == []

    def test_shared_subtree_scores_every_path(self):
        # node 5 is the left child of the root and, three levels down, of
        # node 4; the deepest leaf lies below it on the longer path
        nodes = {
            0: TreeNode(0, 0.0, 5, 2),
            2: TreeNode(1, 0.0, 6, 3),
            3: TreeNode(1, 1.0, 7, 4),
            4: TreeNode(1, 2.0, 5, 8),
            5: TreeNode(2, 0.0, 9, 10),
            6: TreeLeaf(0.1), 7: TreeLeaf(0.2), 8: TreeLeaf(0.3),
            9: TreeLeaf(0.6), 10: TreeLeaf(0.9),
        }
        model = TreeClassifier(nodes, 3)
        rows = [(a, b, c) for a in (0.0, 1.0) for b in (0.0, 1.0, 2.0, 3.0) for c in (0.0, 1.0)]
        expected = [walk(model, r) for r in rows]
        assert sorted(set(expected)) == [0.1, 0.2, 0.3, 0.6, 0.9]
        assert model.predict_batch(rows).tolist() == expected
        assert [model.predict(r) for r in rows] == expected

    def test_deep_chain_loads_and_scores(self):
        # each node's left child is a leaf; the right child is the next node
        depth = 5000
        lines = ["tree", "features 1"]
        for i in range(depth):
            lines.append(f"node {2 * i} 0 {i} {2 * i + 1} {2 * i + 2}")
            lines.append(f"leaf {2 * i + 1} {(i % 10) / 10}")
        lines.append(f"leaf {2 * depth} 1.0")
        model = parse_model("\n".join(lines))
        rows = [(-1.0,), (0.0,), (17.5,), (4999.0,), (5000.0,)]
        batch = model.predict_batch(rows)
        assert list(batch) == [0.0, 0.0, 0.8, 0.9, 1.0]
        assert [model.predict(r) for r in rows] == list(batch)

    def test_cycle_rejected(self):
        with pytest.raises(SchemaError):
            TreeClassifier({0: TreeNode(0, 1.0, 0, 1), 1: TreeLeaf(0.5)}, 1)

    def test_missing_child_rejected(self):
        with pytest.raises(SchemaError):
            TreeClassifier({0: TreeNode(0, 1.0, 1, 2), 1: TreeLeaf(0.5)}, 1)

    def test_leaf_score_range(self):
        with pytest.raises(SchemaError):
            TreeClassifier({0: TreeLeaf(1.5)}, 1)


class TestNetClassifier:
    def test_scores_in_unit_interval(self, rng):
        schema = small_schema((4, 4))
        model = random_net(schema, rng)
        from conftest import all_instances

        scores = model.predict_batch(all_instances(schema))
        assert np.all((scores > 0.0) & (scores < 1.0))

    def test_hand_computed_forward_pass(self):
        # one hidden unit: h = max(0, x0 - x1), output = sigmoid(2h - 1)
        model = NetClassifier(
            [np.array([[1.0, -1.0]]), np.array([[2.0]])],
            [np.array([0.0]), np.array([-1.0])],
        )
        expected = 1.0 / (1.0 + np.exp(1.0))  # x=(1,1): h=0, z=-1
        assert model.predict((1.0, 1.0)) == pytest.approx(expected)
        expected2 = 1.0 / (1.0 + np.exp(-1.0))  # x=(2,1): h=1, z=1
        assert model.predict((2.0, 1.0)) == pytest.approx(expected2)

    def test_layer_width_mismatch(self):
        with pytest.raises(SchemaError):
            NetClassifier(
                [np.ones((3, 4)), np.ones((1, 5))],
                [np.zeros(3), np.zeros(1)],
            )


class TestRuleOutcomeEquivalence:
    def test_bad_outcome_iff_ground_truth_holds(self, rng):
        schema = small_schema((4, 4, 4))
        from conftest import all_instances, random_rule_model

        for _ in range(10):
            model = random_rule_model(schema, rng)
            for x in all_instances(schema):
                assert (model.predict(x) <= 0.5) == model.rule.evaluate(x)


class TestCallCounter:
    def test_counts_every_prediction(self):
        model = RuleClassifier(Rule((leq(0, 1),)), 1)
        model.predict((0.0,))
        model.predict_batch([(0.0,), (2.0,)])
        assert model.calls == 3
        model.reset_calls()
        assert model.calls == 0

    def test_repeat_calls_are_identical(self, rng):
        schema = small_schema((4, 4))
        model = random_net(schema, rng)
        x = (2.0, 3.0)
        assert model.predict(x) == model.predict(x)

    def test_concurrent_counting(self):
        model = RuleClassifier(Rule((leq(0, 1),)), 1)

        def worker():
            for _ in range(500):
                model.predict((0.0,))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert model.calls == 2000


RULE_TEXT = """\
rule
features 3
0 <= 10
2 >= 4.5
"""

TREE_TEXT = """\
tree
features 2
node 0 0 1.5 1 2
leaf 1 0.2
leaf 2 0.9
node 3 1 0.5 1 2
"""

NET_TEXT = """\
net
dims 2 2 1
w 1.0 0.0 0.0 1.0
b 0.0 0.0
w 1.0 -1.0
b 0.0
"""


class TestModelFiles:
    def test_rule_round_trip(self):
        model = parse_model(RULE_TEXT)
        assert isinstance(model, RuleClassifier)
        assert model.n_features == 3
        assert model.rule == Rule((leq(0, 10), geq(2, 4.5)))

    def test_tree_round_trip(self):
        model = parse_model(TREE_TEXT)
        assert isinstance(model, TreeClassifier)
        assert len(model.nodes) == 4
        assert model.predict((1.0, 0.0)) == 0.2

    def test_net_round_trip(self):
        model = parse_model(NET_TEXT)
        assert isinstance(model, NetClassifier)
        assert model.predict((1.0, 0.0)) > 0.5

    def test_unknown_kind(self):
        with pytest.raises(ModelFormatError, match="forest"):
            parse_model("forest\nfeatures 2\n")

    def test_net_dimension_mismatch(self):
        bad = """\
net
dims 4 3 1
w 1 2 3 4 5 6 7 8 9 10 11 12
b 0 0 0
w 1 2 3 4 5
b 0
"""
        with pytest.raises(ModelFormatError, match="needs 3 values"):
            parse_model(bad)

    def test_malformed_number_reports_line(self):
        bad = "rule\nfeatures 2\n0 <= abc\n"
        with pytest.raises(ModelFormatError, match=r":3"):
            parse_model(bad)

    def test_rule_feature_out_of_range(self):
        with pytest.raises(ModelFormatError, match="outside"):
            parse_model("rule\nfeatures 2\n5 <= 1\n")

    def test_tree_duplicate_id(self):
        bad = "tree\nfeatures 1\nleaf 0 0.2\nleaf 0 0.3\n"
        with pytest.raises(ModelFormatError, match="duplicate"):
            parse_model(bad)

    def test_load_model_from_disk(self, tmp_path):
        from rulecf import load_model

        path = tmp_path / "m.model"
        path.write_text(RULE_TEXT)
        model = load_model(path)
        assert model.predict((0.0, 0.0, 5.0)) == 0.0

    def test_comments_and_blank_lines_ignored(self):
        text = "# a rule model\n\nrule\nfeatures 1\n# bound below\n0 <= 3\n"
        model = parse_model(text)
        assert model.rule == Rule((leq(0, 3),))
