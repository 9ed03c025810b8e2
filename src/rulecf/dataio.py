"""CSV ingestion with schema inference, dataset export, and rule files."""

from __future__ import annotations

import csv
from typing import Mapping, Optional, Sequence

from .schema import (
    Dataset,
    DatasetSchema,
    Direction,
    FeatureSchema,
    Rule,
    RuleComponent,
    SchemaError,
)


class IngestError(ValueError):
    """A CSV file could not be turned into a dataset."""


def _parse_cell(raw: str, row: int, column: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise IngestError(
            f"non-numeric cell {raw!r} at row {row}, column {column!r}"
        ) from None


def ingest_csv(path, groups: Optional[Mapping[str, Sequence[str]]] = None) -> Dataset:
    """Read a headed numeric CSV into a dataset with per-feature sorted domains.

    ``groups`` maps a new feature name to an ordered list of one-hot column
    names; each group collapses into a single integer-coded feature whose
    value is the index of the active column. Exactly one column per group may
    be active (non-zero) in any row.
    """
    groups = dict(groups or {})
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        raw_rows = [row for row in reader if row]

    col_index = {name: i for i, name in enumerate(header)}
    if len(col_index) != len(header):
        raise IngestError(f"{path}: duplicate column names in header")

    grouped_cols: set = set()
    for gname, cols in groups.items():
        if not cols:
            raise IngestError(f"group {gname!r} lists no columns")
        for cname in cols:
            if cname not in col_index:
                raise IngestError(f"group {gname!r} references unknown column {cname!r}")
            if cname in grouped_cols:
                raise IngestError(f"column {cname!r} appears in more than one group")
            grouped_cols.add(cname)

    # output feature layout: ungrouped columns in header order, each group
    # replacing its first member column
    features: list = []  # (name, group_tag, source)
    consumed: set = set()
    for name in header:
        if name in consumed:
            continue
        if name in grouped_cols:
            gname = next(g for g, cols in groups.items() if name in cols)
            features.append((gname, gname, tuple(groups[gname])))
            consumed.update(groups[gname])
        else:
            features.append((name, None, name))
            consumed.add(name)

    instances = []
    for rownum, row in enumerate(raw_rows, start=2):  # header is line 1
        if len(row) != len(header):
            raise IngestError(
                f"{path}: row {rownum} has {len(row)} cells, expected {len(header)}"
            )
        values = []
        for fname, gtag, source in features:
            if gtag is None:
                values.append(_parse_cell(row[col_index[source]].strip(), rownum, source))
            else:
                active = [
                    i
                    for i, cname in enumerate(source)
                    if _parse_cell(row[col_index[cname]].strip(), rownum, cname) != 0.0
                ]
                if len(active) != 1:
                    raise IngestError(
                        f"one-hot group {fname!r} has {len(active)} active columns "
                        f"at row {rownum}, expected exactly 1"
                    )
                values.append(float(active[0]))
        instances.append(tuple(values))

    if not instances:
        raise IngestError(f"{path}: no data rows")

    schemas = []
    for pos, (fname, gtag, _source) in enumerate(features):
        domain = tuple(sorted({row[pos] for row in instances}))
        schemas.append(FeatureSchema(pos, fname, domain, group=gtag))
    return Dataset(DatasetSchema(tuple(schemas)), tuple(instances))


def export_csv(dataset: Dataset, path) -> None:
    """Write the dataset back out; re-ingesting reproduces it exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.schema.names)
        for row in dataset.instances:
            writer.writerow([repr(v) for v in row])


def parse_rule_text(text: str, schema: DatasetSchema, origin: str = "<rule>") -> Rule:
    """Parse ``feature_name op bound`` lines (ops ``<=`` and ``>=``)."""
    comps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 3 or parts[-2] not in ("<=", ">="):
            raise SchemaError(
                f"{origin}:{lineno}: expected 'feature_name <=|>= bound', got {line!r}"
            )
        name = " ".join(parts[:-2])
        try:
            bound = float(parts[-1])
        except ValueError:
            raise SchemaError(
                f"{origin}:{lineno}: malformed bound {parts[-1]!r}"
            ) from None
        feature = schema.feature_index(name)
        direction = Direction.LEQ if parts[-2] == "<=" else Direction.GEQ
        comps.append(RuleComponent(feature, direction, bound))
    return Rule(tuple(comps))


def load_rule_file(path, schema: DatasetSchema) -> Rule:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_rule_text(fh.read(), schema, origin=str(path))


def format_component(c: RuleComponent, schema: DatasetSchema) -> str:
    """``name op bound`` as a rule-file line; :func:`parse_rule_text` reads the
    bound back exactly (short ``:g`` text where that is exact, else ``repr``)."""
    bound = f"{c.bound:g}"
    if float(bound) != c.bound:
        bound = repr(c.bound)
    return f"{schema.features[c.feature].name} {c.direction.value} {bound}"


def format_rule(rule: Rule, schema: DatasetSchema) -> str:
    """Render a rule in the rule-file format, one component per line."""
    return "\n".join(format_component(c, schema) for c in rule.components)
