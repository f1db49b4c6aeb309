import numpy as np
import pytest

from kpidiag.errors import ConfigError, SchemaError
from kpidiag.ingest import (
    ColumnDecl,
    LogTable,
    SchemaConfig,
    load,
    write_csv,
)
from kpidiag.model import ColumnKind, ColumnRole, KpiKind, KpiSpec

from conftest import make_table
from oracles import cell, evaluate, iter_rows

LAT_KPI = KpiSpec(column="AuthLatency", kind=KpiKind.CONTINUOUS, threshold=50.0)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestCsvLoad:
    def test_kind_inference(self, tmp_path):
        path = write(tmp_path, "a.csv", "Region,AuthLatency\nNorthAmerica,12.5\n")
        table = load(path, "csv", SchemaConfig(kpi=LAT_KPI))
        assert table.row_count == 1
        assert table.spec("Region").kind is ColumnKind.CATEGORICAL
        assert table.spec("AuthLatency").kind is ColumnKind.CONTINUOUS
        assert table.spec("AuthLatency").role is ColumnRole.KPI
        assert cell(table, "Region", 0) == "NorthAmerica"
        assert cell(table, "AuthLatency", 0) == 12.5

    def test_empty_cell_is_missing(self, tmp_path):
        path = write(tmp_path, "a.csv", "Region,AuthLatency\nNorthAmerica,\n")
        table = load(path, "csv", SchemaConfig(kpi=LAT_KPI))
        assert cell(table, "AuthLatency", 0) is None

    def test_row_length_mismatch_reports_line(self, tmp_path):
        path = write(tmp_path, "a.csv", "Region,AuthLatency\nNA,1\nNA\n")
        with pytest.raises(SchemaError, match="row 3"):
            load(path, "csv", SchemaConfig(kpi=LAT_KPI))

    def test_declared_continuous_with_text_reports_line(self, tmp_path):
        path = write(tmp_path, "a.csv", "Region,AuthLatency\nNA,1\nNA,oops\n")
        with pytest.raises(SchemaError, match="row 3"):
            load(path, "csv", SchemaConfig(kpi=LAT_KPI))

    def test_declared_kind_beats_inference(self, tmp_path):
        path = write(tmp_path, "a.csv", "Code,AuthLatency\n1234,1\n5678,2\n")
        config = SchemaConfig(
            kpi=LAT_KPI, columns={"Code": ColumnDecl(kind=ColumnKind.CATEGORICAL)}
        )
        table = load(path, "csv", config)
        assert table.spec("Code").kind is ColumnKind.CATEGORICAL
        assert cell(table, "Code", 0) == "1234"

    def test_kpi_column_absent_is_a_config_error(self, tmp_path):
        path = write(tmp_path, "a.csv", "Region\nNA\n")
        with pytest.raises(ConfigError, match="AuthLatency"):
            load(path, "csv", SchemaConfig(kpi=LAT_KPI))

    def test_load_is_deterministic(self, tmp_path):
        path = write(
            tmp_path, "a.csv", "Region,AuthLatency\nNA,1\nEU,\n,3.5\nAP,4\n"
        )
        config = SchemaConfig(kpi=LAT_KPI)
        assert load(path, "csv", config) == load(path, "csv", config)


class TestJsonlLoad:
    def test_absent_field_is_missing(self, tmp_path):
        path = write(
            tmp_path,
            "a.jsonl",
            '{"Region": "NA", "AuthLatency": 12.5}\n{"Region": "EU"}\n',
        )
        table = load(path, "jsonl", SchemaConfig(kpi=LAT_KPI))
        assert cell(table, "AuthLatency", 1) is None
        assert table.row_count == 2

    def test_booleans_become_categories(self, tmp_path):
        path = write(
            tmp_path,
            "a.jsonl",
            '{"CrossDataCenter": true, "AuthLatency": 1}\n'
            '{"CrossDataCenter": false, "AuthLatency": 2}\n',
        )
        table = load(path, "jsonl", SchemaConfig(kpi=LAT_KPI))
        assert cell(table, "CrossDataCenter", 0) == "true"
        assert table.spec("CrossDataCenter").kind is ColumnKind.CATEGORICAL

    def test_nested_value_is_rejected(self, tmp_path):
        path = write(tmp_path, "a.jsonl", '{"A": {"x": 1}, "AuthLatency": 1}\n')
        with pytest.raises(SchemaError, match="row 1"):
            load(path, "jsonl", SchemaConfig(kpi=LAT_KPI))

    def test_bad_json_reports_line(self, tmp_path):
        path = write(tmp_path, "a.jsonl", '{"AuthLatency": 1}\nnot-json\n')
        with pytest.raises(SchemaError, match="row 2"):
            load(path, "jsonl", SchemaConfig(kpi=LAT_KPI))


class TestNonFinite:
    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan", "NaN", "Infinity"])
    def test_csv_kpi_cell_rejected_with_line_and_column(self, tmp_path, bad):
        path = write(tmp_path, "a.csv", f"Region,AuthLatency\nNA,1\nEU,{bad}\n")
        with pytest.raises(SchemaError, match="row 3: column 'AuthLatency'.*not finite"):
            load(path, "csv", SchemaConfig(kpi=LAT_KPI))

    def test_csv_inferred_feature_rejected(self, tmp_path):
        path = write(tmp_path, "a.csv", "X,AuthLatency\n1,1\nnan,2\ninf,3\n")
        with pytest.raises(SchemaError, match="row 3: column 'X'.*not finite"):
            load(path, "csv", SchemaConfig(kpi=LAT_KPI))

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_jsonl_constant_rejected_with_line_and_column(self, tmp_path, bad):
        # the blank line 2 is skipped but still counted
        path = write(tmp_path, "a.jsonl", f'{{"AuthLatency": 1}}\n\n{{"AuthLatency": {bad}}}\n')
        with pytest.raises(SchemaError, match="row 3: column 'AuthLatency'.*not finite"):
            load(path, "jsonl", SchemaConfig(kpi=LAT_KPI))

    def test_jsonl_bad_value_names_its_own_line(self, tmp_path):
        path = write(tmp_path, "a.jsonl", '{"AuthLatency": "oops"}\n{"AuthLatency": 2}\n')
        with pytest.raises(SchemaError, match="row 1: column 'AuthLatency'.*not numeric"):
            load(path, "jsonl", SchemaConfig(kpi=LAT_KPI))

    def test_csv_row_after_a_multiline_field_names_its_line(self, tmp_path):
        path = write(tmp_path, "a.csv", 'Region,AuthLatency\n"North\nAmerica",1\nEU,inf\n')
        with pytest.raises(SchemaError, match="row 4: column 'AuthLatency'"):
            load(path, "csv", SchemaConfig(kpi=LAT_KPI))


def cardinalities(table):
    return {
        s.name: s.observed_cardinality for s in table.schema if s.kind is ColumnKind.CATEGORICAL
    }


class TestCardinality:
    def test_missing_is_excluded(self):
        table = make_table({"X": ("cat", ["a", "b", "a", None])})
        assert cardinalities(table)["X"] == 2

    def test_empty_table(self):
        table = make_table({"X": ("cat", []), "Y": ("cont", [])})
        assert cardinalities(table) == {"X": 0}

    def test_desk_scale_unique_ids(self):
        n = 50_000
        table = make_table({"Id": ("cat", [f"id{i}" for i in range(n)])})
        assert cardinalities(table)["Id"] == n

    def test_never_exceeds_row_count(self, rng):
        values = [str(v) for v in rng.integers(0, 40, size=200)]
        table = make_table({"X": ("cat", values)})
        assert cardinalities(table)["X"] <= table.row_count


class TestLogTable:
    def test_columns_must_align(self):
        from kpidiag.model import ColumnSpec

        specs = [
            ColumnSpec("A", ColumnKind.CATEGORICAL),
            ColumnSpec("B", ColumnKind.CONTINUOUS),
        ]
        with pytest.raises(SchemaError):
            LogTable.from_columns(specs, {"A": ["x"], "B": [1.0, 2.0]})

    def test_take_preserves_values(self):
        table = make_table(
            {"X": ("cat", ["a", "b", "c"]), "Y": ("cont", [1.0, 2.0, 3.0])}
        )
        sub = table.take(np.array([2, 0]))
        assert sub.row_count == 2
        assert cell(sub, "X", 0) == "c"
        assert cell(sub, "Y", 1) == 1.0

    def test_two_kpi_columns_rejected(self):
        from kpidiag.model import ColumnSpec

        specs = [
            ColumnSpec("A", ColumnKind.CONTINUOUS, ColumnRole.KPI),
            ColumnSpec("B", ColumnKind.CONTINUOUS, ColumnRole.KPI),
        ]
        with pytest.raises(SchemaError):
            LogTable.from_columns(specs, {"A": [1.0], "B": [2.0]})

    def test_predicate_mask_matches_row_evaluation(self, rng):
        from kpidiag.model import Predicate

        table = make_table(
            {
                "X": ("cat", [str(v) for v in rng.integers(0, 4, size=50)]),
                "Y": ("cont", list(rng.normal(size=50))),
            }
        )
        for p in [
            Predicate.equals("X", "2"),
            Predicate.equals("X", "2", polarity=False),
            Predicate.greater_than("Y", 0.1),
            Predicate.greater_than("Y", 0.1, polarity=False),
        ]:
            mask = table.predicate_mask(p)
            direct = [evaluate(p, row) for row in iter_rows(table)]
            assert mask.tolist() == direct


def test_write_csv_round_trips(tmp_path):
    table = make_table(
        {
            "Region": ("cat", ["NA", None, "EU,West", 'with "quote"']),
            "AuthLatency": ("cont", [1.5, 2.0, None, 4.0]),
        },
        kpi="AuthLatency",
    )
    path = tmp_path / "round.csv"
    write_csv(table, path)
    loaded = load(path, "csv", SchemaConfig(kpi=LAT_KPI))
    assert loaded == table
