"""Core data model: feature schemas, instances, rules, and rule boxes.

Instances are plain tuples of floats aligned with a :class:`DatasetSchema`.
Rules are immutable, canonically ordered sets of bound predicates and are
safe to hash, cache, and share across threads. A rule's box, the set of
instances satisfying it, is a contiguous range of domain indices per feature
(:meth:`DatasetSchema.box`); every restriction, enumeration and sample of a
box goes through it.
"""

from __future__ import annotations

import bisect
import enum
import math
import threading
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

Value = float
Instance = tuple  # tuple[float, ...]


class SchemaError(ValueError):
    """A schema, instance, rule, or constraint violates a structural invariant."""


class Direction(enum.Enum):
    """Direction of a bound predicate on a single feature."""

    LEQ = "<="
    GEQ = ">="

    def holds(self, value: float, bound: float) -> bool:
        if self is Direction.LEQ:
            return value <= bound
        return value >= bound

    def __str__(self) -> str:
        return self.value


def _as_value(raw) -> float:
    try:
        v = float(raw)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"not a numeric value: {raw!r}") from exc
    if not np.isfinite(v):
        raise SchemaError(f"value must be finite, got {raw!r}")
    return v


@dataclass(frozen=True)
class RuleComponent:
    """A single predicate ``feature <= bound`` or ``feature >= bound``."""

    feature: int
    direction: Direction
    bound: float

    def __post_init__(self):
        if not isinstance(self.direction, Direction):
            raise SchemaError(f"direction must be a Direction, got {self.direction!r}")
        if int(self.feature) != self.feature or self.feature < 0:
            raise SchemaError(f"feature index must be a non-negative int, got {self.feature!r}")
        object.__setattr__(self, "feature", int(self.feature))
        object.__setattr__(self, "bound", _as_value(self.bound))

    def holds(self, x: Instance) -> bool:
        if self.feature >= len(x):
            raise SchemaError(
                f"instance has {len(x)} values but component references feature {self.feature}"
            )
        return self.direction.holds(x[self.feature], self.bound)

    @property
    def sort_key(self) -> tuple:
        return (self.feature, self.direction.value, self.bound)

    def __str__(self) -> str:
        return f"F{self.feature} {self.direction.value} {self.bound:g}"


def leq(feature: int, bound: float) -> RuleComponent:
    return RuleComponent(feature, Direction.LEQ, bound)


def geq(feature: int, bound: float) -> RuleComponent:
    return RuleComponent(feature, Direction.GEQ, bound)


@dataclass(frozen=True)
class Rule:
    """A conjunction of rule components, canonically ordered and deduplicated.

    At most one component per (feature, direction) slot is allowed; a
    LEQ/GEQ pair on the same feature expresses equality and counts as two
    components toward the cardinality.
    """

    components: tuple = ()

    def __post_init__(self):
        comps = tuple(sorted(set(self.components), key=lambda c: c.sort_key))
        slots = Counter((c.feature, c.direction) for c in comps)
        clashes = [s for s, cnt in slots.items() if cnt > 1]
        if clashes:
            f, d = clashes[0]
            raise SchemaError(f"conflicting bounds for feature {f} direction {d.value}")
        object.__setattr__(self, "components", comps)

    @property
    def cardinality(self) -> int:
        return len(self.components)

    def evaluate(self, x: Instance) -> bool:
        return all(c.holds(x) for c in self.components)

    def matrix_mask(self, X: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over a (rows, n) value matrix."""
        # components ascend by feature, so the last one has the widest index
        if self.components and self.components[-1].feature >= X.shape[1]:
            raise SchemaError(f"instance has {X.shape[1]} values but component references "
                              f"feature {self.components[-1].feature}")
        mask = np.ones(len(X), dtype=bool)
        for c in self.components:
            mask &= c.direction.holds(X[:, c.feature], c.bound)
        return mask

    def anchored_to(self, x: Instance) -> "Rule":
        """The same (feature, direction) slots with bounds moved to ``x``'s values."""
        codec = SlotCodec(x)
        return codec.rule(sum(1 << codec.slot(c) for c in self.components))

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __contains__(self, component: RuleComponent) -> bool:
        return component in self.components

    def __str__(self) -> str:
        if not self.components:
            return "(empty rule)"
        return " AND ".join(str(c) for c in self.components)


EMPTY_RULE = Rule()


@dataclass(frozen=True)
class FeatureSchema:
    """One feature: a name and its ordered domain of admissible values."""

    index: int
    name: str
    domain: tuple
    group: Optional[str] = None

    def __post_init__(self):
        dom = tuple(_as_value(v) for v in self.domain)
        if not dom:
            raise SchemaError(f"feature {self.name!r} has an empty domain")
        if any(b <= a for a, b in zip(dom, dom[1:])):
            raise SchemaError(f"domain of feature {self.name!r} must be strictly ascending")
        object.__setattr__(self, "domain", dom)

    @property
    def span(self) -> float:
        return self.domain[-1] - self.domain[0]


@dataclass(frozen=True)
class DatasetSchema:
    """An ordered collection of features; instance layout authority."""

    features: tuple

    def __post_init__(self):
        feats = tuple(self.features)
        for pos, f in enumerate(feats):
            if f.index != pos:
                raise SchemaError(f"feature {f.name!r} has index {f.index}, expected {pos}")
        names = Counter(f.name for f in feats)
        duplicates = [name for name, count in names.items() if count > 1]
        if duplicates:
            raise SchemaError(f"duplicate feature name {duplicates[0]!r}")
        object.__setattr__(self, "features", feats)

    @property
    def n(self) -> int:
        return len(self.features)

    def domain(self, feature: int) -> tuple:
        return self.features[feature].domain

    @property
    def names(self) -> tuple:
        return tuple(f.name for f in self.features)

    def feature_index(self, name: str) -> int:
        for f in self.features:
            if f.name == name:
                return f.index
        raise SchemaError(f"unknown feature name {name!r}")

    @cached_property
    def domain_arrays(self) -> tuple:
        """Each feature's domain as an ascending float64 array."""
        return tuple(np.asarray(f.domain, dtype=np.float64) for f in self.features)

    @cached_property
    def domain_table(self) -> tuple:
        """All domains end to end as one float64 array, and the position
        of each feature's first value in it."""
        sizes = [len(values) for values in self.domain_arrays]
        starts = np.cumsum([0] + sizes[:-1], dtype=np.intp)
        return np.concatenate((np.empty(0),) + self.domain_arrays), starts

    def box(self, components: Iterable[RuleComponent]) -> tuple:
        """Per feature, the ``range`` of domain indices the bounds of
        ``components`` (a ``Rule`` or any iterable of its components) admit.

        Domains ascend strictly and every bound is an inclusive ``<=`` or
        ``>=``, so the admitted values of a feature are one contiguous run.
        """
        lo = [0] * self.n
        hi = [len(f.domain) for f in self.features]
        for c in components:
            if c.feature >= self.n:
                raise SchemaError(
                    f"rule references feature {c.feature}, schema has {self.n} features"
                )
            domain = self.features[c.feature].domain
            if c.direction is Direction.LEQ:
                hi[c.feature] = bisect.bisect_right(domain, c.bound)
            else:
                lo[c.feature] = bisect.bisect_left(domain, c.bound)
        return tuple(range(a, b) for a, b in zip(lo, hi))

    def box_points(self, box: Sequence[range], chunk: int) -> Iterator[np.ndarray]:
        """The box's points as float64 matrices of at most ``chunk`` rows, in
        ``itertools.product`` order (the last feature varies fastest)."""
        sizes = [len(r) for r in box]
        total = math.prod(sizes)
        for start in range(0, total, chunk):
            flat = np.arange(start, min(start + chunk, total))
            points = np.empty((len(flat), len(box)), dtype=np.float64)
            for j in reversed(range(len(box))):
                flat, digit = np.divmod(flat, sizes[j])
                points[:, j] = self.domain_arrays[j][box[j].start + digit]
            yield points

    def _off_domain(self, X: np.ndarray) -> np.ndarray:
        """Mask of the entries of a (rows, n) matrix that are no domain value."""
        off = np.empty(X.shape, dtype=bool)
        for j, values in enumerate(self.domain_arrays):
            col = X[:, j]
            pos = np.minimum(np.searchsorted(values, col), len(values) - 1)
            off[:, j] = values[pos] != col
        return off

    def validate_instance(self, x: Instance) -> None:
        if len(x) != self.n:
            raise SchemaError(f"instance has {len(x)} values, schema expects {self.n}")
        off = self._off_domain(np.asarray(x, dtype=np.float64).reshape(1, self.n))[0]
        if off.any():
            j = int(np.argmax(off))
            raise SchemaError(
                f"value {x[j]!r} of feature {self.features[j].name!r} is not in its domain"
            )

    def space_size(self) -> int:
        return math.prod(len(f.domain) for f in self.features)


def make_schema(domains: Sequence[Sequence[float]], names: Optional[Sequence[str]] = None) -> DatasetSchema:
    """Convenience constructor from a list of per-feature domains."""
    if names is None:
        names = [f"f{j}" for j in range(len(domains))]
    if len(names) != len(domains):
        raise SchemaError("names and domains must have equal length")
    feats = tuple(
        FeatureSchema(j, str(names[j]), tuple(domains[j])) for j in range(len(domains))
    )
    return DatasetSchema(feats)


@dataclass(frozen=True)
class Dataset:
    """A schema plus the historical instances used for consistency checks.

    ``matrix`` holds the same rows as a (m, n) float64 array.
    """

    schema: DatasetSchema
    instances: tuple

    def __post_init__(self):
        instances = tuple(self.instances)
        try:
            rows = tuple(tuple(map(float, row)) for row in instances)
        except (TypeError, ValueError, OverflowError):
            rows = None
        # any nan or inf cell makes the sum non-finite
        if rows is None or not math.isfinite(sum(map(sum, rows))):
            # raises for the first offending cell in row-major order (a
            # finite sum that overflowed converts cleanly)
            rows = tuple(tuple(_as_value(v) for v in row) for row in instances)
        n = self.schema.n
        # rows before the first one of the wrong width fit in the matrix
        first_bad = next((i for i, row in enumerate(rows) if len(row) != n), len(rows))
        matrix = np.asarray(rows[:first_bad], dtype=np.float64).reshape(first_bad, n)
        off_rows = self.schema._off_domain(matrix).any(axis=1)
        if off_rows.any():
            first_bad = int(np.argmax(off_rows))
        if first_bad < len(rows):
            # raises for the first offending value in row-major order
            self.schema.validate_instance(rows[first_bad])
        object.__setattr__(self, "instances", rows)
        object.__setattr__(self, "matrix", matrix)

    @property
    def m(self) -> int:
        return len(self.instances)

    def row(self, index: int) -> Instance:
        return self.instances[index]


def all_components(x: Instance) -> tuple:
    """All 2n components anchored at ``x`` (both directions per feature)."""
    comps = []
    for j, v in enumerate(x):
        comps.append(RuleComponent(j, Direction.LEQ, v))
        comps.append(RuleComponent(j, Direction.GEQ, v))
    return tuple(comps)


# -- module-level operations on rules ---------------------------------------

def trivial_rule(x: Instance) -> Rule:
    """The rule with both components per feature; satisfied only at ``x``."""
    return Rule(all_components(x))


# -- anchored rules as slot masks ---------------------------------------------

# _BYTE_BITS[pos][v]: the set bits of byte value v at byte position pos, as
# single-bit ints in ascending order; grown on demand to the widest mask seen
_BYTE_BITS: list = []
_BYTE_BITS_LOCK = threading.Lock()


def _byte_tables(width: int) -> list:
    with _BYTE_BITS_LOCK:
        while 8 * len(_BYTE_BITS) < width:
            base = 8 * len(_BYTE_BITS)
            _BYTE_BITS.append(tuple(
                tuple(1 << (base + k) for k in range(8) if v >> k & 1) for v in range(256)
            ))
    return _BYTE_BITS


def mask_bits(mask: int) -> list:
    """The set bits of a non-negative ``mask`` as single-bit ints, ascending."""
    tables = _BYTE_BITS
    if mask.bit_length() > 8 * len(tables):
        tables = _byte_tables(mask.bit_length())
    bits = []
    for table in tables:
        if not mask:
            break
        bits += table[mask & 255]
        mask >>= 8
    return bits


def mask_slots(mask: int) -> tuple:
    """The slots of a non-negative ``mask``, ascending."""
    return tuple(bit.bit_length() - 1 for bit in mask_bits(mask))


def mask_order(mask: int) -> tuple:
    """Smaller masks first, then canonical component order."""
    return (mask.bit_count(), mask_slots(mask))


class SlotCodec:
    """Rules anchored at ``x`` as ``int`` masks over ``2n`` slots.

    Slot ``2*feature`` holds ``feature <= x[feature]`` and slot
    ``2*feature + 1`` holds ``feature >= x[feature]``. Slot order is the
    canonical component order (``RuleComponent.sort_key``), so a mask's
    ascending set bits list its rule's components in order. The codec is the
    one place that converts between an anchored ``Rule`` and its mask.
    """

    def __init__(self, x: Instance):
        self.components = all_components(x)
        self.full = (1 << len(self.components)) - 1

    def slot(self, c: RuleComponent) -> int:
        """The slot of ``c``'s feature and direction, whatever its bound."""
        slot = 2 * c.feature + (c.direction is Direction.GEQ)
        if slot >= len(self.components):
            raise SchemaError(f"component {c} references a feature the anchor lacks")
        return slot

    def mask(self, rule: Rule) -> int:
        """The mask of ``rule``; raises for a component not anchored at the instance."""
        mask = 0
        for c in rule.components:
            slot = self.slot(c)
            if self.components[slot].bound != c.bound:
                raise SchemaError(f"component {c} is not anchored at the instance")
            mask |= 1 << slot
        return mask

    def components_of(self, mask: int) -> tuple:
        """The components of ``mask``'s slots, in canonical order."""
        comps = self.components
        return tuple(comps[bit.bit_length() - 1] for bit in mask_bits(mask))

    def rule(self, mask: int) -> Rule:
        return Rule(self.components_of(mask))

    def row_bits(self, rows: np.ndarray) -> tuple:
        """Bitsets over the rows of a (m, n) value matrix: per slot, the rows
        its component admits, and the set of all rows.

        Row ``i`` is one bit, at the same position in every bitset, so the
        rows inside a mask's box are the AND of its slots' bitsets
        (:func:`rows_in_box`).
        """
        sat = np.column_stack([c.direction.holds(rows[:, c.feature], c.bound)
                               for c in self.components])
        # packbits pads the final byte with low zero bits in every column
        # alike, so row positions line up for the ANDs
        packed = np.ascontiguousarray(np.packbits(sat, axis=0).T)
        all_rows = np.packbits(np.ones(len(rows), dtype=bool))
        return (
            [int.from_bytes(col.tobytes(), "big") for col in packed],
            int.from_bytes(all_rows.tobytes(), "big"),
        )


def rows_in_box(slots: Iterable[int], slot_rows: Sequence[int], rows: int) -> int:
    """The rows of bitset ``rows`` admitted by every slot in ``slots``, given
    ``SlotCodec.row_bits``."""
    for slot in slots:
        rows &= slot_rows[slot]
        if not rows:
            break
    return rows
