"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The synthetic-recovery
criteria drive full experiment batches and take several minutes combined.
"""

import itertools
import json
import random
import time

import pytest

from rulecf import (
    CfOutcome,
    CfQuery,
    CounterfactualEngine,
    CounterfactualOracle,
    Level,
    Rule,
    RuleComponent,
    ScoredRule,
    SearchParams,
    SyntheticSpec,
    brute_force_global_consistent,
    cf_rules,
    dual_of,
    fitness,
    geq,
    greedy_rule_cf,
    leq,
    make_schema,
    minimal_rule_search,
    minimal_set_covers,
    rank_key,
    trivial_rule,
)
from rulecf.consistency import BruteForceOutcome, ConsistencyLevel
from rulecf.harness import (
    SyntheticCategory,
    box_dataset,
    default_experiment_schema,
    gen_synthetic_classifier,
    run_synthetic_experiment,
)
from rulecf.schema import Direction, SlotCodec, mask_slots

from conftest import (
    all_instances,
    find_bad_anchor,
    random_net,
    random_rule_model,
    random_tree,
    small_schema,
    uniform_dataset,
)


def report(criterion, detail):
    print(f"\ncriterion {criterion}: PASS - {detail}")


MASTER_SEED = 2024


# -- criterion 1: synthetic recovery by the counterfactual-guided algorithms --

@pytest.mark.slow
def test_criterion_1_synthetic_recovery():
    schema = default_experiment_schema(12)
    params = SearchParams(seed=0)
    started = time.perf_counter()
    rates = {}
    for components in (2, 4, 6, 8):
        spec = SyntheticSpec(
            schema=schema, components=components, trials=100, seed=MASTER_SEED
        )
        rep = run_synthetic_experiment(
            spec, algorithms=("gen-cf", "greedy-cf"), params=params
        )
        for name in ("gen-cf", "greedy-cf"):
            summary = rep.algorithms[name]
            assert summary.errors == 0
            minimal = summary.counts.get(SyntheticCategory.CONSISTENT_MINIMAL.value, 0)
            rate = 100.0 * minimal / summary.trials
            rates[(name, components)] = rate
            assert rate >= 98.0, f"{name} at {components} components: {rate}%"
    elapsed = time.perf_counter() - started
    assert elapsed < 900.0
    detail = ", ".join(
        f"{name}@{comp}={rates[(name, comp)]:.0f}%"
        for name in ("gen-cf", "greedy-cf") for comp in (2, 4, 6, 8)
    )
    report(1, f"{detail}; {elapsed:.0f}s for 800 runs")


# -- criterion 2: baseline degradation at high cardinality --------------------

@pytest.mark.slow
def test_criterion_2_genetic_rule_degradation():
    schema = default_experiment_schema(12)
    params = SearchParams(seed=0)
    trials = 50
    inconsistent = {}
    minimal = {}
    for components in (2, 4, 8):
        spec = SyntheticSpec(
            schema=schema, components=components, trials=trials, seed=MASTER_SEED
        )
        algos = ("gen", "gen-cf") if components == 8 else ("gen",)
        rep = run_synthetic_experiment(spec, algorithms=algos, params=params)
        for name in algos:
            summary = rep.algorithms[name]
            assert summary.errors == 0
            inconsistent[(name, components)] = summary.counts.get(
                SyntheticCategory.INCONSISTENT.value, 0
            )
            minimal[(name, components)] = summary.counts.get(
                SyntheticCategory.CONSISTENT_MINIMAL.value, 0
            )
    assert minimal[("gen", 2)] == trials, "gen must be perfect at 2 components"
    assert minimal[("gen", 4)] == trials, "gen must be perfect at 4 components"
    gen_bad = inconsistent[("gen", 8)]
    cf_bad = inconsistent[("gen-cf", 8)]
    assert cf_bad == 0
    assert 0 < gen_bad <= 0.25 * trials
    assert gen_bad > cf_bad
    report(
        2,
        f"gen minimal 100% at 2 and 4; at 8: gen inconsistent "
        f"{100.0 * gen_bad / trials:.0f}% vs gen-cf 0%",
    )


# -- criterion 3: the worked bank-loan example --------------------------------

def test_criterion_3_worked_example():
    # features: Age, AccNum, Income, Debt
    anchor = (50.0, 4.0, 500.0, 10000.0)
    cf_1 = (50.0, 5.0, 900.0, 10000.0)
    cf_2 = (50.0, 4.0, 600.0, 2000.0)

    codec = SlotCodec(anchor)
    d1 = dual_of(anchor, cf_1)
    d2 = dual_of(anchor, cf_2)
    assert codec.rule(d1) == Rule((leq(1, 4), leq(2, 500)))
    assert codec.rule(d2) == Rule((leq(2, 500), geq(3, 10000)))

    covers = minimal_set_covers([d1, d2])
    assert [codec.rule(c) for c in covers] == [
        Rule((leq(2, 500),)), Rule((leq(1, 4), geq(3, 10000))),
    ]

    parent = Rule((leq(0, 50), geq(1, 4)))

    class Injected(CounterfactualOracle):
        """Oracle stub returning exactly the example's two counterfactuals."""

        def outcome(self, mask, x):
            out = CfOutcome(found=True, duals=(d1, d2))
            self.cache[mask] = out
            return out

    candidates = cf_rules([codec.mask(parent)], anchor, Injected(None, None))
    r1 = Rule((leq(0, 50), geq(1, 4), leq(2, 500)))
    r2 = Rule((leq(0, 50), leq(1, 4), geq(1, 4), geq(3, 10000)))
    assert [codec.rule(c) for c in candidates] == [r1, r2]
    assert r1.cardinality == 3 and r2.cardinality == 4
    report(3, "duals, covers, and extended rules reproduce the loan example")


# -- criterion 4: duality properties on enumerable spaces ---------------------

def test_criterion_4_duality_properties():
    rng = random.Random(MASTER_SEED)
    schema = small_schema((3, 3, 3))
    instances = all_instances(schema)
    builders = [random_rule_model, random_tree, random_net]
    triples = 0
    while triples < 1000:
        model = builders[triples % 3](schema, rng)
        anchor = find_bad_anchor(model, schema)
        if anchor is None:
            continue
        goods = [x for x in instances if model.predict(x) > 0.5]
        if not goods:
            continue
        codec = SlotCodec(anchor)
        comps = codec.components
        pool = [
            Rule(tuple(combo))
            for r in (1, 2, 3)
            for combo in itertools.combinations(comps, r)
        ]
        rng.shuffle(pool)
        for rule in pool[:40]:
            consistent = all(
                model.predict(x) <= 0.5 for x in instances if rule.evaluate(x)
            )
            if not consistent:
                continue
            triples += 1
            for x_cf in goods:
                # (a) consistent rule excludes every counterfactual
                assert not rule.evaluate(x_cf)
                # (b) its dual intersects every consistent rule
                assert dual_of(anchor, x_cf) & codec.mask(rule)
    report(4, f"{triples} consistent-rule triples, zero violations of either law")


# -- criterion 5: hitting-set enumeration vs exhaustive oracle ----------------

def _oracle_hitting_sets(clauses, universe):
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


def _covers(family, universe):
    """``minimal_set_covers`` on the slot masks of component clauses, read
    back as component sets; ``universe`` lists the components in slot order."""
    masks = [sum(1 << universe.index(c) for c in clause) for clause in family]
    return [frozenset(universe[s] for s in mask_slots(m)) for m in minimal_set_covers(masks)]


def test_criterion_5_hitting_set_oracle_equivalence():
    def comps(n):
        return [
            RuleComponent(j, d, 1.0)
            for j in range(n)
            for d in (Direction.LEQ, Direction.GEQ)
        ]

    families = 0
    # exhaustive sweep over a small universe
    universe4 = comps(2)
    clauses4 = [
        frozenset(c) for r in (1, 2) for c in itertools.combinations(universe4, r)
    ]
    for size in (0, 1, 2, 3):
        for family in itertools.combinations(clauses4, size):
            got = _covers(family, universe4)
            assert got == _oracle_hitting_sets(family, universe4)
            families += 1

    # seeded families at the stated bound: up to 6 clauses over 8 components
    rng = random.Random(MASTER_SEED)
    universe8 = comps(4)
    for _ in range(600):
        family = [
            frozenset(rng.sample(universe8, rng.randint(1, 4)))
            for _ in range(rng.randint(1, 6))
        ]
        got = _covers(family, universe8)
        assert got == _oracle_hitting_sets(family, universe8)
        families += 1

    # structured extremes: disjoint singletons, nested chain, one full clause
    singletons = [frozenset({c}) for c in universe8[:6]]
    nested = [frozenset(universe8[: k + 1]) for k in range(6)]
    full = [frozenset(universe8)]
    for family in (singletons, nested, full, singletons + nested):
        family = family[:6]
        got = _covers(family, universe8)
        assert got == _oracle_hitting_sets(family, universe8)
        families += 1
    report(5, f"{families} families matched the exhaustive subset oracle")


# -- criterion 6: greedy minimality on verifiable classifiers -----------------

def test_criterion_6_greedy_minimality():
    schema = make_schema([[float(v) for v in range(5)] for _ in range(8)])
    assert schema.space_size() <= 1_000_000
    params = SearchParams(seed=0)
    exact = 0
    irredundant = 0
    trials = 50
    for trial in range(trials):
        components = (2, 3, 4, 5)[trial % 4]
        spec = SyntheticSpec(
            schema=schema, components=components, trials=trials, seed=MASTER_SEED + 7
        )
        model, anchor = gen_synthetic_classifier(spec, trial)
        data = box_dataset(schema, model.rule, 200, seed=trial)
        result = greedy_rule_cf(anchor, model, data, params)
        assert result.converged
        rule = result.top.rule

        found = minimal_rule_search(anchor, model, data, cap=6)
        assert found.cardinality is not None
        if rule.cardinality == found.cardinality:
            exact += 1
        if all(
            brute_force_global_consistent(
                Rule(tuple(d for d in rule.components if d != c)), model, schema)
            is BruteForceOutcome.INCONSISTENT
            for c in rule.components
        ):
            irredundant += 1
        assert brute_force_global_consistent(rule, model, schema) is BruteForceOutcome.CONSISTENT
    assert exact == trials
    assert irredundant == trials
    report(6, f"{trials}/{trials} at the exhaustive minimum, all pass zero-removal")


# -- criterion 7: counterfactual engine contract ------------------------------

def test_criterion_7_cf_engine_contract():
    rng = random.Random(MASTER_SEED)
    engine = CounterfactualEngine()
    queries = 0
    found_count = 0
    box_checked = 0

    # enumerable spaces across all model kinds: agreement is structural
    small = small_schema((4, 4, 4))
    small_data = uniform_dataset(small, 25, seed=1)
    builders = [random_rule_model, random_tree, random_net]
    while queries < 350:
        model = builders[queries % 3](small, rng)
        anchor = find_bad_anchor(model, small)
        if anchor is None:
            continue
        comps = [c for c in trivial_rule(anchor).components if rng.random() < 0.3]
        rule = Rule(tuple(comps))
        result = engine.find_counterfactuals(
            model, small_data, CfQuery(anchor=anchor, rule=rule, k=4, seed=queries)
        )
        queries += 1
        exists = any(
            rule.evaluate(x) and model.predict(x) > 0.5
            for x in all_instances(small)
        )
        assert result.found == exists
        for cf in result.counterfactuals:
            found_count += 1
            box_checked += 1
            assert rule.evaluate(cf.instance)
            assert model.predict(cf.instance) > 0.5
            for j in sorted(cf.changed):
                reverted = cf.instance[:j] + (anchor[j],) + cf.instance[j + 1:]
                assert model.predict(reverted) <= 0.5  # single-revert test

    # larger spaces on the genetic path: box classifiers stay decidable
    big = make_schema([[float(v) for v in range(8)] for _ in range(8)])
    big_data = uniform_dataset(big, 40, seed=2)
    while queries < 500:
        spec = SyntheticSpec(
            schema=big, components=(queries % 5) + 2, trials=1000, seed=MASTER_SEED
        )
        model, anchor = gen_synthetic_classifier(spec, queries)
        comps = [c for c in trivial_rule(anchor).components if rng.random() < 0.2]
        rule = Rule(tuple(comps))
        result = engine.find_counterfactuals(
            model, big_data, CfQuery(anchor=anchor, rule=rule, k=4, seed=queries)
        )
        queries += 1
        exists = False
        for j, r in enumerate(big.box(rule)):
            for v in big.domain(j)[r.start:r.stop]:
                y = anchor[:j] + (v,) + anchor[j + 1:]
                if model.predict(y) > 0.5:
                    exists = True
        assert result.found == exists
        for cf in result.counterfactuals:
            found_count += 1
            box_checked += 1
            assert rule.evaluate(cf.instance)
            for j in sorted(cf.changed):
                reverted = cf.instance[:j] + (anchor[j],) + cf.instance[j + 1:]
                assert model.predict(reverted) <= 0.5
    report(
        7,
        f"{queries} queries: oracle agreement 100%, {box_checked} counterfactuals "
        f"all constraint-compliant and revert-minimal",
    )


# -- criterion 8: fitness ordering --------------------------------------------

def test_criterion_8_fitness_ordering():
    rng = random.Random(MASTER_SEED)
    n = 6
    m, s = 200, 1000
    pool = [
        RuleComponent(j, d, float(b))
        for j in range(n)
        for d in (Direction.LEQ, Direction.GEQ)
        for b in (1, 3)
    ]
    scored = []
    while len(scored) < 10_000:
        size = rng.randint(0, 2 * n)
        comps = []
        slots = set()
        for comp in rng.sample(pool, min(len(pool), size * 2)):
            if (comp.feature, comp.direction) not in slots:
                slots.add((comp.feature, comp.direction))
                comps.append(comp)
            if len(comps) == size:
                break
        rule = Rule(tuple(comps))
        grade = rng.choice(["FDC", "FGC", "GC"])
        if grade == "FDC":
            level = ConsistencyLevel(Level.FDC, vd=rng.randint(1, m), vs=0)
        elif grade == "FGC":
            level = ConsistencyLevel(Level.FGC, vd=0, vs=rng.randint(1, s))
        else:
            level = ConsistencyLevel(Level.GC, 0, 0)
        score = fitness(rule.cardinality, n, level, m, s)
        scored.append(ScoredRule(rule, level, score, False))

    ranked = sorted(scored, key=rank_key)
    for a, b in zip(ranked, ranked[1:]):
        assert a.level.level >= b.level.level
        if a.level.level is Level.GC and b.level.level is Level.GC:
            ka = (a.rule.cardinality, tuple(c.sort_key for c in a.rule.components))
            kb = (b.rule.cardinality, tuple(c.sort_key for c in b.rule.components))
            assert ka <= kb
    report(8, f"{len(scored)} scored tuples sorted with no level inversion")


# -- criterion 9: byte-identical CLI outputs ----------------------------------

def test_criterion_9_cli_determinism(tmp_path, capsys):
    from rulecf.cli import main

    data_path = tmp_path / "d.csv"
    data_path.write_text(
        "age,acc,income,debt\n50,4,500,10\n30,2,900,0\n50,5,500,10\n41,4,600,5\n"
        "50,4,700,10\n33,3,500,2\n50,4,500,0\n45,5,600,10\n"
    )
    model_path = tmp_path / "m.txt"
    model_path.write_text("rule\nfeatures 4\n0 >= 41\n2 <= 600\n")
    rule_path = tmp_path / "r.txt"
    rule_path.write_text("age >= 50\nincome <= 500\n")

    explain_argv = [
        "explain", "--data", str(data_path), "--model", str(model_path),
        "--instance", "0", "--algo", "gen-cf", "--q", "20", "--k", "2",
        "--s", "200", "--seed", "11", "--format", "json",
    ]
    outputs = []
    for _ in range(2):
        assert main(explain_argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]

    verify_argv = [
        "verify", "--data", str(data_path), "--model", str(model_path),
        "--rule", str(rule_path), "--mode", "sample", "--s", "300", "--seed", "4",
    ]
    verify_out = []
    for _ in range(2):
        assert main(verify_argv) == 0
        verify_out.append(capsys.readouterr().out)
    assert verify_out[0] == verify_out[1]

    reports = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        argv = [
            "synthetic", "--features", "8", "--components", "2,4",
            "--trials", "3", "--algos", "gen-cf,greedy-cf", "--seed", "9",
            "--rows", "150", "--q", "20", "--k", "3", "--s", "150",
            "--out", str(out),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    json.loads(reports[0])  # well-formed
    report(9, "explain, verify, and synthetic outputs byte-identical across reruns")
