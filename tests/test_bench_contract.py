"""The names and signatures the benchmark's traced run relies on.

``bench/tracing.py`` rebinds module-level names of ``rulecf`` and wraps the
oracle, the engine and the classifier methods. The untraced benchmark never
looks these names up, so a rename would break only
``bench/run.py --trace 1``; these tests run the same wiring on two small nets.
"""

import math
import random
import sys
from pathlib import Path

from rulecf import SearchParams, duality, explainers, greedy_rule_cf, schema

from conftest import (
    find_bad_anchor,
    find_good_instance,
    random_net,
    small_schema,
    uniform_dataset,
)

BENCH = str(Path(__file__).resolve().parent.parent / "bench")
sys.path.insert(0, BENCH)
try:
    import tracing
finally:
    sys.path.remove(BENCH)

REBOUND = [
    (explainers, "crossover"), (explainers, "mutate"), (explainers, "cf_rules"),
    (explainers, "sample_satisfying"), (duality, "_covers_for_expansion"),
    (schema.Rule, "__post_init__"), (schema.Dataset, "__post_init__"),
]


def test_install_rebinds_and_restore_puts_back():
    owners = {id(owner): owner for owner, _ in REBOUND}.values()
    before = {owner: dict(vars(owner)) for owner in owners}
    restore = tracing.install(tracing.Tracer())
    try:
        for owner, name in REBOUND:
            assert vars(owner)[name] is not before[owner][name], name
    finally:
        restore()
    for owner, names in before.items():
        assert set(vars(owner)) == set(names)
        for name, value in names.items():
            assert vars(owner)[name] is value, name


def tiny_net_problem():
    """A seeded ReLU net on a 4x4x4 grid with both outcomes, and a bad anchor."""
    rng = random.Random(0)
    grid = small_schema((4, 4, 4))
    while True:
        model = random_net(grid, rng)
        anchor = find_bad_anchor(model, grid)
        if anchor is not None and find_good_instance(model, grid) is not None:
            return model, anchor, uniform_dataset(grid, 30)


def grid_net_problem(seed):
    """A seeded ReLU net on an 8^7 grid, too large to enumerate, with a bad
    anchor drawn from the grid."""
    rng = random.Random(seed)
    grid = small_schema((8,) * 7)
    model = random_net(grid, rng, hidden=8)
    while True:
        anchor = tuple(float(rng.randrange(8)) for _ in range(7))
        if model.predict(anchor) <= 0.5:
            return model, anchor, uniform_dataset(grid, 200)


def batch_bound(count, n, budget):
    """The most ``predict_batch`` and ``predict`` calls a traced greedy-cf
    run may make: the anchor check, the database batch and one batch per
    sampled rule outside the engine; inside it, per query, the anchor's
    check plus one batch per 4096 points of an enumerated box, or for a
    genetic query ``2 + (generations + 1) * (1 + n(n+1)/2)``: seeds, one batch
    per generation and at most n(n+1)/2 lock-step revert rounds per
    reduction."""
    rounds = n * (n + 1) // 2
    genetic = count["cf_genetic_queries"]
    return (
        2 + count["sample"] + count["cf_queries"]
        + count["cf_exhaustive_queries"] * math.ceil(budget.exhaustive_cap / 4096)
        + 2 * genetic + (count["cf_generations"] + genetic) * (1 + rounds)
    )


def test_traced_rows_equal_classifier_calls():
    # every box of the 4x4x4 grid is enumerated; the grid net's are not
    for model, anchor, data in (tiny_net_problem(), grid_net_problem(6)):
        params = SearchParams()
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            tracing.instrument_model(tracer, model)
            tracer.reset()
            oracle = tracing.oracle_for(tracer, model, data, params)
            result = greedy_rule_cf(anchor, model, data, params, oracle=oracle)
        finally:
            restore()
        # the check bench/run.py --trace 1 makes on every traced run
        assert tracer.count["rows"] == result.stats.classifier_calls > 0
        assert tracer.count["cf_queries"] == result.stats.cf_calls > 0
        assert tracer.count["cf_rules"] > 0
        assert tracer.count["covers"] > 0
        # the traced oracle tests hits with the key the search looks up: a key
        # type the cache does not hold would read 0 hits without any error
        assert tracer.count["oracle_hits"] > 0
        assert tracer.count["oracle_lookups"] - tracer.count["oracle_hits"] == result.stats.cf_calls
        # scoring each revert in a batch of its own breaks the bound: 11,448
        # batches against 7,622 on the grid net
        bound = batch_bound(tracer.count, data.schema.n, params.cf_budget)
        assert tracer.count["batches"] <= bound
    assert tracer.count["cf_genetic_queries"] > 0
