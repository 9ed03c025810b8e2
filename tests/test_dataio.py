import pytest

from rulecf import (
    ConsistencyLevel,
    IngestError,
    Rule,
    SchemaError,
    ScoredRule,
    export_csv,
    format_rule,
    geq,
    ingest_csv,
    leq,
    load_rule_file,
)
from rulecf.cli import _rule_payload
from rulecf.dataio import parse_rule_text

CSV = """age,income,debt
30,500,10
50,900,0
30,600,10
41,500,5
50,500,10
"""


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestIngest:
    def test_basic_schema_inference(self, tmp_path):
        data = ingest_csv(write(tmp_path, CSV))
        assert data.schema.n == 3
        assert data.m == 5
        assert data.schema.names == ("age", "income", "debt")
        assert data.schema.domain(0) == (30.0, 41.0, 50.0)
        assert data.schema.domain(2) == (0.0, 5.0, 10.0)

    def test_non_numeric_cell_reported_with_position(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n1,abc\n")
        with pytest.raises(IngestError, match=r"row 3.*'b'"):
            ingest_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "1e400"])
    def test_non_finite_cell_reported_with_position(self, tmp_path, cell):
        # the first non-finite cell in row-major order is named
        path = write(tmp_path, f"a,b\n1,2\n1, {cell}\n-inf,3\n")
        with pytest.raises(IngestError, match=f"non-finite cell '{cell}' at row 3, column 'b'"):
            ingest_csv(path)

    def test_missing_header(self, tmp_path):
        with pytest.raises(IngestError):
            ingest_csv(write(tmp_path, ""))

    def test_ragged_row(self, tmp_path):
        with pytest.raises(IngestError, match="row 3"):
            ingest_csv(write(tmp_path, "a,b\n1,2\n1\n"))

    def test_one_hot_group_collapses(self, tmp_path):
        text = "age,red,green,blue\n30,1,0,0\n40,0,0,1\n50,0,1,0\n"
        data = ingest_csv(write(tmp_path, text), groups={"color": ["red", "green", "blue"]})
        assert data.schema.n == 2
        assert data.schema.names == ("age", "color")
        assert data.schema.features[1].group == "color"
        assert data.schema.domain(1) == (0.0, 1.0, 2.0)
        assert data.instances == ((30.0, 0.0), (40.0, 2.0), (50.0, 1.0))

    def test_group_with_zero_active_rejected(self, tmp_path):
        text = "age,red,green\n30,0,0\n"
        with pytest.raises(IngestError, match="0 active"):
            ingest_csv(write(tmp_path, text), groups={"color": ["red", "green"]})

    def test_group_with_two_active_rejected(self, tmp_path):
        text = "age,red,green\n30,1,1\n"
        with pytest.raises(IngestError, match="2 active"):
            ingest_csv(write(tmp_path, text), groups={"color": ["red", "green"]})

    def test_group_named_like_a_column_rejected(self, tmp_path):
        # the group would give the schema two features called "age"
        text = "age,red,green\n30,1,0\n40,0,1\n"
        with pytest.raises(SchemaError, match="duplicate feature name 'age'"):
            ingest_csv(write(tmp_path, text), groups={"age": ["red", "green"]})

    def test_group_unknown_column(self, tmp_path):
        with pytest.raises(IngestError, match="unknown column"):
            ingest_csv(write(tmp_path, CSV), groups={"g": ["nope"]})


class TestExportRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        data = ingest_csv(write(tmp_path, CSV))
        out = tmp_path / "out.csv"
        export_csv(data, out)
        again = ingest_csv(out)
        assert again == data

    def test_round_trip_with_fractional_values(self, tmp_path):
        text = "x,y\n0.1,2.5\n0.30000000000000004,1e-3\n"
        data = ingest_csv(write(tmp_path, text))
        out = tmp_path / "out.csv"
        export_csv(data, out)
        assert ingest_csv(out) == data

    def test_grouped_round_trip(self, tmp_path):
        text = "age,red,green,blue\n30,1,0,0\n40,0,0,1\n"
        data = ingest_csv(write(tmp_path, text), groups={"color": ["red", "green", "blue"]})
        out = tmp_path / "out.csv"
        export_csv(data, out)
        again = ingest_csv(out)
        assert again.instances == data.instances
        assert again.schema.names == data.schema.names


class TestRuleFiles:
    def test_parse_and_format(self, tmp_path):
        data = ingest_csv(write(tmp_path, CSV))
        rule = Rule((leq(0, 50), geq(1, 500)))
        text = format_rule(rule, data.schema)
        assert text == "age <= 50\nincome >= 500"
        assert parse_rule_text(text, data.schema) == rule

    @pytest.mark.parametrize("bound", [1234567.0, 0.1234567, 1e-07])
    def test_bounds_round_trip_exactly(self, tmp_path, bound):
        data = ingest_csv(write(tmp_path, CSV))
        rule = Rule((leq(0, bound), geq(2, -bound)))
        text = format_rule(rule, data.schema)
        assert parse_rule_text(text, data.schema) == rule
        # explain --format json prints the same component lines
        scored = ScoredRule(rule, ConsistencyLevel.from_counts(0, 0), 1.0)
        assert _rule_payload(scored, data.schema)["components"] == text.splitlines()

    def test_load_from_file(self, tmp_path):
        data = ingest_csv(write(tmp_path, CSV))
        path = tmp_path / "rule.txt"
        path.write_text("# explanation\nage <= 50\ndebt >= 10\n")
        assert load_rule_file(path, data.schema) == Rule((leq(0, 50), geq(2, 10)))

    def test_unknown_feature_name(self, tmp_path):
        data = ingest_csv(write(tmp_path, CSV))
        with pytest.raises(SchemaError, match="height"):
            parse_rule_text("height <= 3", data.schema)

    def test_bad_operator(self, tmp_path):
        data = ingest_csv(write(tmp_path, CSV))
        with pytest.raises(SchemaError):
            parse_rule_text("age < 50", data.schema)

    def test_bad_bound(self, tmp_path):
        data = ingest_csv(write(tmp_path, CSV))
        with pytest.raises(SchemaError, match="malformed bound"):
            parse_rule_text("age <= many", data.schema)
