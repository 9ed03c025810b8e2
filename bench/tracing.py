"""Per-layer tracing from outside the program.

Spans and counts are recorded around the calls into each ``rulecf`` module's
public surface: classifier instance methods, a counterfactual engine and an
oracle handed in through ``engine=``/``oracle=``, and the module-level
functions that ``explainers`` and ``duality`` look up at call time. Nothing
in ``rulecf`` is edited; :func:`install` rebinds those names for the life of
a traced run and returns a function that restores them.

A span's busy time is its whole duration; its self time leaves out the spans
opened inside it.
"""

from __future__ import annotations

import time
from collections import defaultdict

from rulecf import duality, explainers, schema
from rulecf.cf_engine import CounterfactualEngine
from rulecf.duality import CounterfactualOracle


class Tracer:
    def __init__(self):
        self.busy = defaultdict(float)
        self.own = defaultdict(float)
        self.count = defaultdict(int)
        self._stack = []

    def enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self):
        name, start, inner = self._stack.pop()
        spent = time.perf_counter() - start
        self.busy[name] += spent
        self.own[name] += spent - inner
        if self._stack:
            self._stack[-1][2] += spent
        return spent

    def span(self, name, fn, *args, **kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def spanned(self, name, fn, counter=None, timed=True):
        """``fn`` counted under ``name``, timed as a span named ``name`` when
        ``timed``, and adding ``len(result)`` to ``counter`` when given."""

        def wrapper(*args, **kwargs):
            if timed:
                self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                if timed:
                    self.exit()
            self.count[name] += 1
            if counter is not None:
                self.count[counter] += len(result)
            return result

        return wrapper

    def reset(self):
        self.busy.clear()
        self.own.clear()
        self.count.clear()


class NullTracer:
    """Stand-in for untraced runs: spans cost one call and record nothing."""

    @staticmethod
    def span(_name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class TracedEngine(CounterfactualEngine):
    """Engine whose queries are timed and split by search path."""

    def __init__(self, tracer):
        super().__init__()
        self.tracer = tracer

    def find_counterfactuals(self, model, data, query):
        exhaustive, generations = self.exhaustive_runs, self.generations
        self.tracer.enter("cf_engine")
        try:
            result = super().find_counterfactuals(model, data, query)
        finally:
            spent = self.tracer.exit()
        # an anchored rule's box always holds the anchor, so every counted
        # query took one of the two paths
        path = "exhaustive" if self.exhaustive_runs > exhaustive else "genetic"
        count = self.tracer.count
        count["cf_queries"] += 1
        count[f"cf_{path}_queries"] += 1
        count["cf_found"] += result.found
        count["cf_generations"] += self.generations - generations
        self.tracer.busy[f"cf_{path}"] += spent
        return result


class TracedOracle(CounterfactualOracle):
    """Oracle that counts lookups and cache hits."""

    def __init__(self, tracer, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tracer = tracer

    def outcome(self, rule, anchor):
        self.tracer.count["oracle_lookups"] += 1
        self.tracer.count["oracle_hits"] += rule in self.cache
        return super().outcome(rule, anchor)


def oracle_for(tracer, model, data, params):
    """A traced oracle built as the explainers build their default one."""
    return TracedOracle(
        tracer, model, data, k=params.cf_k, budget=params.cf_budget, seed=params.seed,
        engine=TracedEngine(tracer),
    )


def instrument_model(tracer, model):
    """Time and count every evaluation through the model's own methods."""
    one, batch = model.predict, model.predict_batch

    def predict(x):
        tracer.enter("classifiers")
        try:
            return one(x)
        finally:
            tracer.exit()
            tracer.count["rows"] += 1
            tracer.count["batches"] += 1

    def predict_batch(X):
        tracer.enter("classifiers")
        try:
            out = batch(X)
        finally:
            tracer.exit()
        tracer.count["rows"] += len(out)
        tracer.count["batches"] += 1
        return out

    model.predict = predict
    model.predict_batch = predict_batch


def install(tracer):
    """Rebind the module-level names the explainers and duality call."""
    saved = [
        (explainers, "crossover"), (explainers, "mutate"), (explainers, "cf_rules"),
        (explainers, "sample_satisfying"), (duality, "_covers_for_expansion"),
        (schema.Rule, "__post_init__"), (schema.Dataset, "__post_init__"),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name in saved]
    rule_init = schema.Rule.__post_init__

    def counted_rule_init(self):
        tracer.count["rules_built"] += 1
        rule_init(self)

    explainers.crossover = tracer.spanned("crossover", explainers.crossover, "children")
    explainers.mutate = tracer.spanned("mutate", explainers.mutate, "children")
    explainers.cf_rules = tracer.spanned("cf_rules", explainers.cf_rules)
    explainers.sample_satisfying = tracer.spanned("sample", explainers.sample_satisfying)
    # hitting sets run inside cf_rules and stay in its self time
    duality._covers_for_expansion = tracer.spanned(
        "covers", duality._covers_for_expansion, "cover_sets", timed=False)
    schema.Rule.__post_init__ = counted_rule_init
    schema.Dataset.__post_init__ = tracer.spanned("dataset", schema.Dataset.__post_init__)

    def restore():
        for owner, name, value in saved:
            setattr(owner, name, value)

    return restore
