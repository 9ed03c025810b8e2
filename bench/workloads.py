"""The benchmark's three workloads: set-up of their inputs and their cases.

Every workload builds a fixed catalogue of explanation cases from fixed seeds
(see README.md for why the catalogue does not depend on ``--seed``). A case
carries, next to the program's inputs, the benchmark's own reference model
from :mod:`checks`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from checks import GridNet, RuleTruth, Split, TreeBoxes
from rulecf import (
    Direction, NetClassifier, SearchParams, TreeClassifier, ingest_csv, make_schema,
)
from rulecf.classifiers import TreeLeaf, TreeNode
from rulecf.duality import derive_seed
from rulecf.harness import (
    SyntheticSpec, box_dataset, default_experiment_schema, gen_synthetic_classifier,
    synthetic_dataset,
)


@dataclass
class Case:
    id: str
    algo: str  # "gen", "gen-cf" or "greedy-cf"
    x: tuple
    model: object
    data: object
    params: SearchParams
    ref: object  # reference model from checks


# -- synthetic-recovery --------------------------------------------------------

SYNTHETIC_SEED = 0
# (ground-truth cardinality, trial); gen never converges on trial 1 at 8
SYNTHETIC_TRIALS = ((6, 0), (8, 1))
SYNTHETIC_ROWS = 1000


def synthetic_recovery(_workdir, tracer):
    schema = default_experiment_schema(12)
    domains = [np.arange(8 + j % 5, dtype=np.float64) for j in range(12)]
    cases = []
    for components, trial in SYNTHETIC_TRIALS:
        spec = SyntheticSpec(schema=schema, components=components, trials=trial + 1,
                             seed=SYNTHETIC_SEED)
        model, anchor = tracer.span("harness", gen_synthetic_classifier, spec, trial)
        data = tracer.span(
            "harness", box_dataset, schema, model.rule, SYNTHETIC_ROWS,
            seed=derive_seed(SYNTHETIC_SEED, "trial-data", trial),
        )
        ref = RuleTruth(
            [(c.feature, c.direction is Direction.LEQ, c.bound) for c in model.rule], domains
        )
        for algo in ("gen", "gen-cf"):
            params = SearchParams(seed=derive_seed(SYNTHETIC_SEED, "run", trial, algo))
            cases.append(Case(f"c{components}-t{trial}-{algo}", algo, anchor, model, data,
                              params, ref))
    return cases


# -- net-grid ------------------------------------------------------------------

GRID_FEATURES, GRID_VALUES, GRID_HIDDEN = 7, 8, 8
GRID_NETS = range(24)
GRID_ROWS = 1000
GRID_SEED = 17
GRID_BAD_SHARE = (0.6, 0.995)


def grid_net(seed):
    """A dyadic ReLU net whose bad share of the grid is drawn from
    ``GRID_BAD_SHARE``, with two bad anchors from its calibration sample: the
    first one drawn, and the one closest to the good region. Rules for the
    second need more components, so their boxes reach the exhaustive path."""
    n, v, h = GRID_FEATURES, GRID_VALUES, GRID_HIDDEN
    rng = np.random.default_rng([GRID_SEED, seed])
    w1 = rng.integers(-8, 9, size=(h, n)) / 8.0
    b1 = rng.integers(-16, 17, size=h) / 4.0
    w2 = rng.integers(-8, 9, size=h) / 8.0
    sample = rng.integers(0, v, size=(4096, n)).astype(np.float64)
    bad_share = rng.uniform(*GRID_BAD_SHARE)
    z = GridNet(w1, b1, w2, 0.0, v).logits(sample)
    b2 = -np.floor(np.quantile(z, bad_share) * 64) / 64
    ref = GridNet(w1, b1, w2, float(b2), v)
    z = ref.logits(sample)
    bad = np.flatnonzero(z <= 0)
    anchors = [tuple(float(a) for a in sample[i]) for i in (bad[0], bad[np.argmax(z[bad])])]
    model = NetClassifier([w1, w2.reshape(1, h)], [b1, np.array([b2])])
    return model, anchors, ref


def net_grid(_workdir, tracer):
    schema = make_schema([[float(a) for a in range(GRID_VALUES)]] * GRID_FEATURES)
    data = tracer.span("harness", synthetic_dataset, schema, GRID_ROWS, seed=GRID_SEED)
    cases = []
    for seed in GRID_NETS:
        model, anchors, ref = grid_net(seed)
        for k, anchor in enumerate(anchors):
            cases.append(Case(f"net{seed}-a{k}-greedy-cf", "greedy-cf", anchor, model, data,
                              SearchParams(seed=seed), ref))
    return cases


# -- wide-table ----------------------------------------------------------------

WIDE_ROWS = 16_000
WIDE_SEED = 7
WIDE_CATEGORIES = (3, 4, 5, 6)
WIDE_DEPTH = 5
WIDE_ANCHORS = 4
WIDE_LEAF_SCORES = (0.1, 0.3, 0.7, 0.9)


def wide_matrix(rng):
    """Four continuous columns (two decimals, thousands of distinct values)
    and four integer-coded categorical ones."""
    cont = [np.round(rng.normal(50.0, 15.0, WIDE_ROWS), 2) for _ in range(4)]
    cat = [rng.integers(0, k, WIDE_ROWS).astype(np.float64) for k in WIDE_CATEGORIES]
    return np.column_stack(cont + cat)


def random_split_tree(rng, domains, depth):
    """A full tree with thresholds at interior domain values."""
    if depth == 0:
        return float(rng.choice(WIDE_LEAF_SCORES, p=(0.35, 0.25, 0.2, 0.2)))
    f = int(rng.integers(0, len(domains)))
    dom = domains[f]
    lo = len(dom) // 5
    threshold = float(dom[int(rng.integers(lo, max(lo + 1, 4 * len(dom) // 5)))])
    left = random_split_tree(rng, domains, depth - 1)
    right = random_split_tree(rng, domains, depth - 1)
    return Split(f, threshold, left, right)


def tree_classifier(root, n):
    nodes = {}

    def add(node):
        nid = len(nodes)
        nodes[nid] = None
        if isinstance(node, Split):
            nodes[nid] = TreeNode(node.feature, node.threshold, add(node.left), add(node.right))
        else:
            nodes[nid] = TreeLeaf(node)
        return nid

    add(root)
    return TreeClassifier(nodes, n)


def wide_table(workdir, tracer):
    rng = np.random.default_rng(WIDE_SEED)
    matrix = wide_matrix(rng)
    names = [f"c{j}" for j in range(4)] + [f"k{j}" for j in range(4)]
    path = workdir / "wide-table.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows([repr(v) for v in row] for row in matrix.tolist())
    data = tracer.span("ingest", ingest_csv, path)
    domains = [np.unique(matrix[:, j]) for j in range(matrix.shape[1])]
    root = random_split_tree(rng, domains, WIDE_DEPTH)
    ref = TreeBoxes(root, domains)
    model = tree_classifier(root, matrix.shape[1])
    bad_rows = np.flatnonzero(~ref.good(matrix))
    cases = []
    for row in sorted(rng.choice(bad_rows, WIDE_ANCHORS, replace=False)):
        anchor = data.row(int(row))
        for algo in ("greedy-cf", "gen"):
            cases.append(Case(f"row{row}-{algo}", algo, anchor, model, data,
                              SearchParams(seed=int(row)), ref))
    return cases


WORKLOADS = {
    "synthetic-recovery": synthetic_recovery,
    "net-grid": net_grid,
    "wide-table": wide_table,
}
