"""Dual clauses, minimal hitting sets, and counterfactual-driven rule growth.

Every counterfactual of an anchor induces a dual clause: the disjunction of
anchor-relevant components it violates. A rule can only be globally
consistent if it intersects every such clause, so inconsistent candidate
rules are extended with minimal hitting sets of the observed clause family.

Clauses, covers and the rules grown from them are slot masks over the
anchor's components (see ``schema.SlotCodec``); a clause hits a rule when
``clause & rule`` is non-zero.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Optional

from .cf_engine import CfBudget, CfQuery, CounterfactualEngine
from .classifiers import Classifier
from .schema import (
    Dataset,
    Instance,
    RuleComponent,
    SchemaError,
    SlotCodec,
    mask_bits,
    mask_order,
    mask_slots,
)


def dual_of(anchor: Instance, x: Instance) -> int:
    """The mask of the slots anchored at ``anchor`` that ``x`` violates:
    slot ``2j`` (``<=``) where ``x[j]`` is larger, ``2j + 1`` (``>=``) where
    it is smaller."""
    if len(anchor) != len(x):
        raise SchemaError("anchor and instance must have the same width")
    clause = 0
    for j, (a, v) in enumerate(zip(anchor, x)):
        if v > a:
            clause |= 1 << 2 * j
        elif v < a:
            clause |= 1 << 2 * j + 1
    return clause


def minimal_set_covers(family: Iterable[int]) -> list:
    """Every inclusion-minimal slot mask hitting all clause masks of ``family``.

    Sorted by size, then by ascending slot tuple. The empty family is covered
    by the empty mask alone. Branches on the slots of the first un-hit
    clause; every minimal cover is reachable this way. A cover is minimal iff
    each of its slots is the only one of the cover hitting some clause, so
    each cover the branching reaches is kept or dropped on the spot.
    """
    clauses = set(family)
    if 0 in clauses:
        raise SchemaError("an empty clause cannot be hit")
    # a clause containing another clause is hit whenever the smaller one is
    kept: list = []
    for clause in sorted(clauses, key=mask_order):
        if not any(other & ~clause == 0 for other in kept):
            kept.append(clause)

    covers: list = []
    seen: set = set()
    # a minimal cover has one clause hit by each slot alone, so its size
    # never exceeds the clause count; deeper branches are dead ends
    max_size = len(kept)

    def extend(chosen: int) -> None:
        if chosen in seen:
            return
        seen.add(chosen)
        for clause in kept:
            if not clause & chosen:
                if chosen.bit_count() < max_size:
                    for bit in mask_bits(clause):
                        extend(chosen | bit)
                return
        hits = {clause & chosen for clause in kept}
        if all(bit in hits for bit in mask_bits(chosen)):
            covers.append(chosen)

    extend(0)
    return sorted(covers, key=mask_order)


# -- cached counterfactual oracle --------------------------------------------

@dataclass(frozen=True)
class CfOutcome:
    """Cached result of one rule's counterfactual query."""

    found: bool
    duals: tuple = ()


def _rule_digest(components: Iterable[RuleComponent]) -> int:
    """A stable hash of a rule's components, given in canonical order (a
    ``Rule`` or any iterable of its components)."""
    text = ";".join(f"{c.feature}{c.direction.value}{c.bound!r}" for c in components)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def derive_seed(base: int, *tags) -> int:
    """Stable sub-seed derivation; independent of evaluation order."""
    text = "|".join([str(base)] + [str(t) for t in tags])
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big") >> 1


class CounterfactualOracle:
    """Counterfactual engine plus cache: at most one query per distinct rule.

    Rules are slot masks anchored at the oracle's anchor (``cache`` maps a
    mask to its ``CfOutcome``), and so are their dual clauses; an oracle
    serves the first anchor it answers for and rejects any other. A cache
    miss queries the engine with the mask's components; no ``Rule`` is built.
    """

    def __init__(
        self,
        model: Classifier,
        data: Dataset,
        k: int = 10,
        budget: Optional[CfBudget] = None,
        seed: int = 0,
        engine: Optional[CounterfactualEngine] = None,
    ):
        self.model = model
        self.data = data
        self.k = k
        self.budget = budget if budget is not None else CfBudget()
        self.seed = seed
        self.cache: dict = {}
        self._covers: dict = {}
        self.engine = engine if engine is not None else CounterfactualEngine()
        self.anchor: Optional[Instance] = None
        self.codec: Optional[SlotCodec] = None

    def outcome(self, mask: int, anchor: Instance) -> CfOutcome:
        anchor = tuple(anchor)
        if self.anchor is None:
            self.anchor = anchor
            self.codec = SlotCodec(anchor)
        elif anchor != self.anchor:
            raise ValueError(f"this oracle answers for anchor {self.anchor}, not {anchor}")
        cached = self.cache.get(mask)
        if cached is not None:
            return cached
        components = self.codec.components_of(mask)
        query = CfQuery(
            anchor=anchor,
            rule=components,
            k=self.k,
            budget=self.budget,
            seed=derive_seed(self.seed, "cf", _rule_digest(components)),
        )
        result = self.engine.find_counterfactuals(self.model, self.data, query)
        duals = tuple(
            dict.fromkeys(dual_of(anchor, cf.instance) for cf in result.counterfactuals)
        )
        outcome = CfOutcome(found=result.found, duals=duals)
        self.cache[mask] = outcome
        return outcome

    def consistent(self, mask: int, anchor: Instance) -> bool:
        return not self.outcome(mask, anchor).found

    def covers(self, duals: tuple) -> list:
        """``_covers_for_expansion(duals)``, computed once per clause family;
        the covers do not depend on the clauses' order."""
        key = frozenset(duals)
        covers = self._covers.get(key)
        if covers is None:
            covers = self._covers[key] = _covers_for_expansion(duals)
        return covers


# rule growth keeps the covers whose non-forced part has at most
# COVER_SIZE_CAP slots, and at most MAX_COVERS_PER_PARENT of them
COVER_SIZE_CAP = 4
MAX_COVERS_PER_PARENT = 32


def _covers_for_expansion(duals: tuple) -> list:
    """Minimal covers for rule growth, ordered smallest first.

    Single-slot clauses force their slot into every minimal cover, so the
    size cap applies to the residual (non-forced) part; the overall smallest
    cover is always kept so expansion can never starve.
    """
    forced = 0
    for clause in duals:
        if clause.bit_count() == 1:
            forced |= clause
    covers = minimal_set_covers(duals)
    eligible = [c for c in covers if (c & ~forced).bit_count() <= COVER_SIZE_CAP]
    return (eligible or covers[:1])[:MAX_COVERS_PER_PARENT]


def cf_rules(pop: Iterable[int], x: Instance, oracle: CounterfactualOracle) -> list:
    """Expand candidate slot masks anchored at ``x`` through the oracle.

    The oracle is queried once per distinct mask, for its rule's box. Masks
    with no counterfactual yield nothing; for the rest, each minimal cover
    of the dual clauses yields one strictly larger candidate mask.
    """
    children: dict = {}
    for parent in sorted(dict.fromkeys(pop), key=mask_slots):
        outcome = oracle.outcome(parent, x)
        if not outcome.found:
            continue
        if any(parent & clause for clause in outcome.duals):
            raise RuntimeError(
                "counterfactual engine returned an instance violating its constraints"
            )
        # a found outcome has a dual, every dual is non-empty (a
        # counterfactual differs from the anchor) and none meets the parent,
        # so every cover adds a slot: each child strictly contains its parent
        for cover in oracle.covers(outcome.duals):
            children.setdefault(parent | cover)
    return list(children)
