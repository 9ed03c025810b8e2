"""Dual clauses, minimal hitting sets, and counterfactual-driven rule growth.

Every counterfactual of an anchor induces a dual clause: the disjunction of
anchor-relevant components it violates. A rule can only be globally
consistent if it intersects every such clause, so inconsistent candidate
rules are extended with minimal hitting sets of the observed clause family.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Iterable, Optional

from .cf_engine import CfBudget, CfQuery, CounterfactualEngine
from .classifiers import Classifier
from .schema import (
    Dataset,
    Direction,
    DualClause,
    Instance,
    Rule,
    RuleComponent,
    SchemaError,
)


def dual_of(anchor: Instance, x: Instance) -> DualClause:
    """All components anchored at ``anchor`` that evaluate false on ``x``."""
    if len(anchor) != len(x):
        raise SchemaError("anchor and instance must have the same width")
    comps = []
    for j, (a, v) in enumerate(zip(anchor, x)):
        if v > a:
            comps.append(RuleComponent(j, Direction.LEQ, a))
        elif v < a:
            comps.append(RuleComponent(j, Direction.GEQ, a))
    return DualClause(tuple(comps))


def _component_key(comp: RuleComponent) -> tuple:
    return comp.sort_key


def _cover_key(cover: frozenset) -> tuple:
    return (len(cover), tuple(sorted(c.sort_key for c in cover)))


def _minimal_hitting_sets(clauses: list) -> list:
    """All inclusion-minimal sets intersecting every clause.

    Branches on the components of the first un-hit clause; every minimal
    hitting set is reachable this way, and a final filter discards the
    non-minimal extras the branching produces.
    """
    if any(not clause for clause in clauses):
        raise SchemaError("an empty clause cannot be hit")
    # a clause containing another clause is hit whenever the smaller one is
    kept: list = []
    for clause in sorted(set(map(frozenset, clauses)), key=len):
        if not any(other <= clause for other in kept):
            kept.append(clause)
    if not kept:
        return [frozenset()]

    candidates: set = set()
    seen: set = set()
    # a minimal hitting set has one clause hit by each element alone, so its
    # size never exceeds the clause count; deeper branches are dead ends
    max_size = len(kept)

    def extend(chosen: frozenset) -> None:
        if chosen in seen:
            return
        seen.add(chosen)
        for clause in kept:
            if not (clause & chosen):
                if len(chosen) < max_size:
                    for comp in sorted(clause, key=_component_key):
                        extend(chosen | {comp})
                return
        candidates.add(chosen)

    extend(frozenset())
    ranked = sorted(candidates, key=_cover_key)
    minimal: list = []
    for cand in ranked:
        if not any(prev < cand for prev in minimal):
            minimal.append(cand)
    return minimal


def minimal_set_covers(family) -> list:
    """Every inclusion-minimal component set hitting all clauses of ``family``.

    Returns canonical component tuples sorted by size, then lexicographically.
    The empty family is covered by the empty set alone.
    """
    clauses = [frozenset(clause.components) for clause in family]
    covers = _minimal_hitting_sets(clauses)
    return [tuple(sorted(cover, key=_component_key)) for cover in sorted(covers, key=_cover_key)]


# -- cached counterfactual oracle --------------------------------------------

@dataclass(frozen=True)
class CfOutcome:
    """Cached result of one rule's counterfactual query."""

    found: bool
    duals: tuple = ()


class CfCache:
    """Thread-safe rule -> outcome map; identical keys always agree."""

    def __init__(self):
        self._entries: dict = {}
        self._lock = threading.Lock()

    def get(self, rule: Rule) -> Optional[CfOutcome]:
        with self._lock:
            return self._entries.get(rule)

    def put(self, rule: Rule, outcome: CfOutcome) -> None:
        with self._lock:
            self._entries[rule] = outcome

    def __contains__(self, rule: Rule) -> bool:
        with self._lock:
            return rule in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def _rule_digest(rule: Rule) -> int:
    text = ";".join(f"{c.feature}{c.direction.value}{c.bound!r}" for c in rule.components)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def derive_seed(base: int, *tags) -> int:
    """Stable sub-seed derivation; independent of evaluation order."""
    text = "|".join([str(base)] + [str(t) for t in tags])
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big") >> 1


class CounterfactualOracle:
    """Counterfactual engine plus cache: at most one query per distinct rule."""

    def __init__(
        self,
        model: Classifier,
        data: Dataset,
        k: int = 10,
        budget: Optional[CfBudget] = None,
        seed: int = 0,
        cache: Optional[CfCache] = None,
        engine: Optional[CounterfactualEngine] = None,
    ):
        self.model = model
        self.data = data
        self.k = k
        self.budget = budget if budget is not None else CfBudget()
        self.seed = seed
        self.cache = cache if cache is not None else CfCache()
        self.engine = engine if engine is not None else CounterfactualEngine()

    def outcome(self, rule: Rule, anchor: Instance) -> CfOutcome:
        cached = self.cache.get(rule)
        if cached is not None:
            return cached
        query = CfQuery(
            anchor=tuple(anchor),
            rule=rule,
            k=self.k,
            budget=self.budget,
            seed=derive_seed(self.seed, "cf", _rule_digest(rule)),
        )
        result = self.engine.find_counterfactuals(self.model, self.data, query)
        duals = tuple(
            dict.fromkeys(dual_of(anchor, cf.instance) for cf in result.counterfactuals)
        )
        outcome = CfOutcome(found=result.found, duals=duals)
        self.cache.put(rule, outcome)
        return outcome

    def consistent(self, rule: Rule, anchor: Instance) -> bool:
        return not self.outcome(rule, anchor).found


# rule growth keeps the covers whose non-forced part has at most
# COVER_SIZE_CAP components, and at most MAX_COVERS_PER_PARENT of them
COVER_SIZE_CAP = 4
MAX_COVERS_PER_PARENT = 32


def _covers_for_expansion(duals: tuple) -> list:
    """Minimal covers for rule growth, ordered smallest first.

    Singleton clauses force their component into every minimal cover, so the
    size cap applies to the residual (non-forced) part; the overall smallest
    cover is always kept so expansion can never starve.
    """
    forced = {clause.components[0] for clause in duals if len(clause) == 1}
    covers = minimal_set_covers(duals)
    eligible = [c for c in covers if len(c) - len(forced) <= COVER_SIZE_CAP]
    return (eligible or covers[:1])[:MAX_COVERS_PER_PARENT]


def cf_rules(pop: Iterable[Rule], x: Instance, oracle: CounterfactualOracle) -> list:
    """Expand candidate rules through the counterfactual oracle.

    The oracle is queried once per distinct rule, for the rule's own box.
    Rules with no counterfactual yield nothing; for the rest, each minimal
    cover of the dual clauses yields one strictly larger candidate.
    """
    candidates: list = []
    emitted: set = set()
    parents = sorted(
        dict.fromkeys(pop), key=lambda r: tuple(c.sort_key for c in r.components)
    )
    for rule in parents:
        outcome = oracle.outcome(rule, x)
        if not outcome.found:
            continue
        rule_comps = set(rule.components)
        for clause in outcome.duals:
            if rule_comps & set(clause.components):
                raise RuntimeError(
                    "counterfactual engine returned an instance violating its constraints"
                )
        for cover in _covers_for_expansion(outcome.duals):
            child = rule.union(cover)
            if child != rule and child not in emitted:
                emitted.add(child)
                candidates.append(child)
    return candidates
