"""The lock-step, memoised revert reduction against a sequential reference.

The reference below is the engine as it was before reverts were batched: each
counterfactual candidate is reduced on its own, and each revert that has no
score yet is scored in a ``predict_batch`` of one row. The engine must return
the same results, score the same set of points and make the same number of
classifier calls, in far fewer batches.
"""

import math
import random

import numpy as np
import pytest

from rulecf import (
    CfBudget,
    CfQuery,
    CfResult,
    Counterfactual,
    CounterfactualEngine,
    Rule,
    distance,
    make_schema,
    reduce_changes,
    trivial_rule,
)
from rulecf import cf_engine
from rulecf.cf_engine import _Distances
from rulecf.classifiers import good_mask, is_bad_score

from conftest import (
    random_net,
    random_rule_model,
    random_tree,
    small_schema,
    uniform_dataset,
)

# -- the sequential reference ---------------------------------------------


def changed(anchor, x):
    return frozenset(j for j, (a, b) in enumerate(zip(anchor, x)) if a != b)


def revert_while_good(anchor, cand, good):
    """Revert changed features to the anchor one at a time, in ascending
    order and restarting after each success, while ``good`` accepts."""
    current = cand
    while True:
        for j in sorted(changed(anchor, current)):
            reverted = current[:j] + (anchor[j],) + current[j + 1:]
            if good(reverted):
                current = reverted
                break
        else:
            return current


def reference_reduce_changes(anchor, cand, model, rule):
    assert not is_bad_score(model.predict(cand))
    return revert_while_good(
        anchor, cand, lambda x: rule.evaluate(x) and not is_bad_score(model.predict(x))
    )


def reference_counterfactuals(model, data, query):
    schema = data.schema
    anchor = query.anchor
    assert is_bad_score(model.predict(anchor))
    box = schema.box(query.rule)
    size = math.prod(len(r) for r in box)
    if size == 0:
        return CfResult()

    def cf(x):
        return Counterfactual(x, changed(anchor, x), distance(anchor, x, schema))

    def ranked(found):
        return CfResult(tuple(sorted(found.values(), key=lambda c: c.sort_key)[:query.k]))

    if size <= query.budget.exhaustive_cap:
        goods = []
        for points in schema.box_points(box, 4096):
            goods.extend(map(tuple, points[good_mask(model.predict_batch(points))].tolist()))
        good_set = set(goods)
        goods.sort(key=lambda inst: (distance(anchor, inst, schema), inst))
        found = {}
        for inst in goods:
            reduced = revert_while_good(anchor, inst, good_set.__contains__)
            if reduced not in found:
                found[reduced] = cf(reduced)
            if len(found) >= query.k:
                break
        return ranked(found)

    rng = random.Random(query.seed)
    domains = [schema.domain(j) for j in range(schema.n)]
    scores = {}

    def evaluate(cands):
        fresh = [c for c in dict.fromkeys(cands) if c not in scores]
        if fresh:
            batch = model.predict_batch(np.asarray(fresh, dtype=np.float64))
            for inst, sc in zip(fresh, batch):
                scores[inst] = float(sc)

    anchor_pos = [int(np.searchsorted(v, a)) for v, a in zip(schema.domain_arrays, anchor)]
    outside = [j for j, r in enumerate(box) if anchor_pos[j] not in r]

    def good(inst):
        if any(inst[j] == anchor[j] for j in outside):
            return False
        if inst not in scores:
            evaluate([inst])
        return not is_bad_score(scores[inst])

    def replaced(inst, j, p):
        i = box[j].start + p
        if domains[j][i] >= inst[j]:
            i += 1
        return inst[:j] + (domains[j][i],) + inst[j + 1:]

    base = tuple(
        domains[j][min(max(i, r.start), r.stop - 1)]
        for j, (i, r) in enumerate(zip(anchor_pos, box))
    )
    mutable = [j for j in range(schema.n) if len(box[j]) > 1]
    seeds = [base]
    single_total = sum(len(box[j]) - 1 for j in mutable)
    per_feature = max(1, cf_engine.SEED_CAP // max(1, len(mutable)))
    for j in mutable:
        count = len(box[j]) - 1
        if single_total <= cf_engine.SEED_CAP or count <= per_feature:
            picks = range(count)
        else:
            picks = sorted(rng.sample(range(count), per_feature))
        seeds.extend(replaced(base, j, p) for p in picks)
    evaluate(seeds)

    goods = {}

    def absorb(cands):
        new = 0
        for inst in cands:
            if is_bad_score(scores[inst]):
                continue
            reduced = revert_while_good(anchor, inst, good)
            if reduced not in goods:
                goods[reduced] = cf(reduced)
                new += 1
        return new

    def select(cands):
        uniq = list(dict.fromkeys(cands))
        good_part = sorted(
            (i for i in uniq if not is_bad_score(scores[i])),
            key=lambda i: (distance(anchor, i, schema), i),
        )
        bad_part = sorted(
            (i for i in uniq if is_bad_score(scores[i])), key=lambda i: (-scores[i], i))
        return (good_part + bad_part)[:cf_engine.POPULATION_SIZE]

    absorb(seeds)
    pop = select(seeds)
    no_good_gens = good_stall = 0
    for _ in range(cf_engine.MAX_GENERATIONS):
        if goods and good_stall >= cf_engine.GOOD_STALL:
            break
        if not goods and no_good_gens >= cf_engine.STALL_GENERATIONS:
            break
        offspring = []
        for _ in range(cf_engine.POPULATION_SIZE):
            if len(pop) >= 2 and rng.random() < 0.3:
                a, b = rng.sample(pop, 2)
                child = list(a)
                for j in sorted(changed(anchor, b)):
                    if a[j] == anchor[j] or rng.random() < 0.5:
                        child[j] = b[j]
                offspring.append(tuple(child))
            else:
                parent = rng.choice(pop)
                j = rng.choice(mutable)
                offspring.append(replaced(parent, j, rng.randrange(len(box[j]) - 1)))
        evaluate(offspring)
        new = absorb(offspring)
        if goods:
            good_stall = 0 if new else good_stall + 1
        else:
            no_good_gens += 1
        pop = select(pop + offspring)
    return ranked(goods)


# -- helpers ---------------------------------------------------------------


class Recorder:
    """Counts a model's ``predict_batch`` calls and keeps every point it scores."""

    def __init__(self, model):
        self.model = model
        self.batches = 0
        self.points = set()
        one, batch = model.predict, model.predict_batch

        def predict(x):
            self.points.add(tuple(float(v) for v in x))
            return one(x)

        def predict_batch(X):
            self.batches += 1
            self.points.update(map(tuple, np.asarray(X, dtype=np.float64).tolist()))
            return batch(X)

        model.predict, model.predict_batch = predict, predict_batch

    def run(self, fn, *args):
        """``fn(*args)``, its classifier calls, batches and scored points."""
        self.batches, self.points = 0, set()
        calls = self.model.calls
        result = fn(*args)
        return result, self.model.calls - calls, self.batches, self.points


def bad_point(model, sizes, rng, tries=60):
    for _ in range(tries):
        x = tuple(float(rng.randrange(s)) for s in sizes)
        if is_bad_score(model.predict(x)):
            return x
    return None


GRIDS = [(4, 4, 4), (3, 5, 4, 6), (5, 5, 5, 5, 5)]
BUILDERS = [random_rule_model, random_tree, random_net]


def seeded_cases(count, seed):
    """``count`` (model, data, query) cases over rule, tree and net models on
    small grids. The budget cycles through enumerating the box, a box one
    point above ``exhaustive_cap``, and a cap of one point."""
    rng = random.Random(seed)
    datas = {sizes: uniform_dataset(small_schema(sizes), 20) for sizes in GRIDS}
    cases = []
    while len(cases) < count:
        sizes = GRIDS[len(cases) % len(GRIDS)]
        schema = small_schema(sizes)
        model = BUILDERS[len(cases) // len(GRIDS) % len(BUILDERS)](schema, rng)
        anchor = bad_point(model, sizes, rng)
        if anchor is None:
            continue
        rule = Rule(tuple(c for c in trivial_rule(anchor).components if rng.random() < 0.3))
        size = math.prod(len(r) for r in schema.box(rule))
        cap = (size, size - 1, 1)[len(cases) % 3] or 1
        query = CfQuery(anchor=anchor, rule=rule, k=rng.choice((1, 3, 10)),
                        budget=CfBudget(exhaustive_cap=cap), seed=len(cases))
        cases.append((model, datas[sizes], query))
    return cases


# -- tests -----------------------------------------------------------------


def test_engine_matches_sequential_reference():
    engine = CounterfactualEngine()
    paths = {True: 0, False: 0}
    found = 0
    for model, data, query in seeded_cases(240, seed=2024):
        recorder = Recorder(model)
        want, want_calls, want_batches, want_points = recorder.run(
            reference_counterfactuals, model, data, query)
        runs = engine.exhaustive_runs
        got, got_calls, got_batches, got_points = recorder.run(
            engine.find_counterfactuals, model, data, query)
        assert got == want, query
        assert got_points == want_points, query
        assert got_calls == want_calls, query
        assert got_batches <= want_batches, query
        paths[engine.exhaustive_runs > runs] += 1
        found += got.found
    assert paths[True] >= 60 and paths[False] >= 120
    assert found >= 120


def test_reduce_changes_matches_sequential_reference():
    rng = random.Random(11)
    checked = 0
    for model, data, query in seeded_cases(120, seed=7):
        schema = data.schema
        cand = tuple(float(rng.randrange(len(schema.domain(j)))) for j in range(schema.n))
        if is_bad_score(model.predict(cand)):
            continue
        recorder = Recorder(model)
        # the rule's box need not hold the candidate
        want, want_calls, _, want_points = recorder.run(
            reference_reduce_changes, query.anchor, cand, model, query.rule)
        got, got_calls, _, got_points = recorder.run(
            reduce_changes, query.anchor, cand, model, query.rule)
        assert (got, got_calls, got_points) == (want, want_calls, want_points)
        checked += 1
    assert checked >= 30


def random_schema(rng, n):
    """``n`` features: integer grids, a one-value domain, and continuous
    domains of thousands of values."""
    domains = []
    for j in range(n):
        kind = j % 4
        if kind == 0:
            domains.append(range(rng.randrange(2, 9)))
        elif kind == 1:
            domains.append([3.25])
        else:
            size = rng.randrange(1000, 4000)
            values = np.unique(np.random.default_rng(j).uniform(-1e3, 1e4, size))
            domains.append(values.tolist())
    return make_schema([[float(v) for v in d] for d in domains])


def random_points(rng, schema, anchor, count):
    """Points that keep each anchor value with probability one half."""
    return [
        tuple(a if rng.random() < 0.5 else rng.choice(schema.domain(j))
              for j, a in enumerate(anchor))
        for _ in range(count)
    ]


@pytest.mark.parametrize("n", [7, 12, 16])
def test_distances_are_bit_identical(n):
    rng = random.Random(n)
    schema = random_schema(rng, n)
    for _ in range(5):
        anchor = tuple(rng.choice(schema.domain(j)) for j in range(n))
        points = random_points(rng, schema, anchor, 400)
        dists = _Distances(schema, anchor)
        want = [distance(anchor, p, schema) for p in points]
        assert dists.of_matrix(np.asarray(points)).tolist() == want
        unique = list(dict.fromkeys(points))
        dists.fill(unique)
        assert [dists.cache[p] for p in points] == want


@pytest.mark.parametrize("n", [7, 12, 16])
def test_exhaustive_order_is_distance_then_instance(n):
    # a symmetric integer grid around the anchor gives many distance ties
    rng = random.Random(100 + n)
    schema = make_schema(
        [[float(v) for v in range(-3, 4)]] * (n - 4) + [[0.5 * v for v in range(9)]] * 4)
    anchor = tuple(rng.choice(schema.domain(j)) for j in range(n))
    points = list(dict.fromkeys(random_points(rng, schema, anchor, 600)))
    ordered = _Distances(schema, anchor).sort(np.asarray(points))
    assert ordered == sorted(points, key=lambda p: (distance(anchor, p, schema), p))


def test_genetic_batches_within_lock_step_bound():
    """Per genetic query, predict_batch calls <= 2 + (generations + 1) *
    (1 + n(n+1)/2): one batch for the seeds and one per generation, plus at
    most n(n+1)/2 lock-step rounds per reduction.

    Scoring each revert in a batch of its own breaks this bound: on seed 6
    such a walk made 3,079 batches against a bound of 901.
    """
    sizes = (8,) * 7
    schema = small_schema(sizes)
    data = uniform_dataset(schema, 20)
    n = schema.n
    for seed in range(12):
        rng = random.Random(seed)
        model = random_net(schema, rng, hidden=8)
        anchor = bad_point(model, sizes, rng, tries=200)
        assert anchor is not None
        engine = CounterfactualEngine()
        recorder = Recorder(model)
        _result, _calls, batches, _points = recorder.run(
            engine.find_counterfactuals, model, data, CfQuery(anchor=anchor, k=10, seed=seed))
        assert engine.exhaustive_runs == 0
        assert batches <= 2 + (engine.generations + 1) * (1 + n * (n + 1) // 2), seed
