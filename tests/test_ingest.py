import contextlib
import csv
import datetime
import json
import math
import multiprocessing.pool
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kpidiag import forest, ingest, synth
from kpidiag.errors import ConfigError, SchemaError
from kpidiag.ingest import LogTable, load, write_csv
from kpidiag.model import ColumnDecl, ColumnKind, ColumnRole, ColumnSpec, KpiKind, KpiSpec, SchemaConfig

from conftest import category_counts, make_table
from oracles import cell, evaluate, iter_rows, load_reference, table_from_columns, table_state, write_csv_reference

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

    def test_field_past_the_csv_limit_reports_line(self, tmp_path):
        big = "x" * (csv.field_size_limit() + 1)
        path = write(tmp_path, "a.csv", f'Region,AuthLatency\nNA,1\n"North\nAmerica",2\n{big},3\n')
        with pytest.raises(SchemaError, match=r"^row 5: field larger than field limit \(131072\)$"):
            load(path, "csv", SchemaConfig(kpi=LAT_KPI))

    def test_declared_kind_beats_inference(self, tmp_path):
        path = write(tmp_path, "a.csv", "Code,AuthLatency\n1234,1\n5678,2\n")
        config = SchemaConfig(
            kpi=LAT_KPI, columns={"Code": ColumnDecl(kind=ColumnKind.CATEGORICAL)}
        )
        table = load(path, "csv", config)
        assert table.spec("Code").kind is ColumnKind.CATEGORICAL
        assert cell(table, "Code", 0) == "1234"

    @pytest.mark.parametrize("workers", [1, 2, 3], ids=["1 range", "2 ranges", "3 ranges"])
    @pytest.mark.parametrize("first_x", ["1", "inf"], ids=["clean", "bad cell in the first X"])
    def test_repeated_header_name_is_a_schema_error(self, tmp_path, workers, first_x):
        # the header fails before any cell: a repeated name cannot be a column
        path = write(tmp_path, "a.csv", f"AuthLatency,X,X\n1,{first_x},a\n" + "2,3,b\n" * 3000)
        for loader in (load, load_reference):
            with split_into_ranges(workers), pytest.raises(SchemaError, match=r"^duplicate column names$"):
                loader(path, "csv", SchemaConfig(kpi=LAT_KPI))

    def test_kpi_column_absent_is_a_config_error(self, tmp_path):
        path = write(tmp_path, "a.csv", "Region\nNA\n")
        with pytest.raises(ConfigError, match="AuthLatency"):
            load(path, "csv", SchemaConfig(kpi=LAT_KPI))

    @pytest.mark.parametrize("format", ["csv", "jsonl"])
    def test_declared_column_absent_from_input_is_a_config_error(self, tmp_path, format):
        # a JSON key that only some lines carry is a column with missing cells
        text = "X,AuthLatency\na,1\n" if format == "csv" else '{"AuthLatency": 1}\n{"X": "a"}\n'
        path = write(tmp_path, f"a.{format}", text)
        assert load(path, format, SchemaConfig(kpi=LAT_KPI, columns={"X": ColumnDecl()})).row_count
        with pytest.raises(ConfigError, match=r"^columns\.x: "):
            load(path, format, SchemaConfig(kpi=LAT_KPI, columns={"x": ColumnDecl()}))

    def test_load_is_deterministic(self, tmp_path):
        path = write(
            tmp_path, "a.csv", "Region,AuthLatency\nNA,1\nEU,\n,3.5\nAP,4\n"
        )
        config = SchemaConfig(kpi=LAT_KPI)
        assert table_state(load(path, "csv", config)) == table_state(load(path, "csv", config))


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

    def test_integer_too_long_to_convert_reports_line(self, tmp_path):
        # json.loads raises a plain ValueError here, not a JSONDecodeError
        path = write(tmp_path, "a.jsonl", f'{{"AuthLatency": 1}}\n\n{{"AuthLatency": {"9" * 5000}}}\n')
        with pytest.raises(SchemaError, match="row 3: invalid JSON"):
            load(path, "jsonl", SchemaConfig(kpi=LAT_KPI))

    def test_lines_that_parse_only_when_joined_fail_at_the_first(self, tmp_path):
        lines = ['{"AuthLatency": 1}', '{"AuthLatency": 1},{"A": 0}', '{"B": 2, "AuthLatency": 0', '"A": 1}']
        path = write(tmp_path, "a.jsonl", "\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=r"^row 2: invalid JSON \(Extra data\)$"):
            load(path, "jsonl", SchemaConfig(kpi=LAT_KPI))

    def test_bad_line_beats_a_later_undecodable_byte_in_its_block(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_bytes(b'{"AuthLatency": 1}\nnot-json\n' + b'{"AuthLatency": 2}\n' * 2000 + b'{"A": "\xff"}\n')
        with pytest.raises(SchemaError, match=r"^row 2: invalid JSON"):
            load(path, "jsonl", SchemaConfig(kpi=LAT_KPI))

    def test_a_clean_block_is_decoded_whole(self, tmp_path):
        path = write(tmp_path, "a.jsonl", '{"AuthLatency": 1, "A": "x"}\n\n {"A": null}\r\n{"AuthLatency": 2.5}')
        with mock.patch.object(ingest, "_jsonl_object", wraps=ingest._jsonl_object) as per_line:
            table = load(path, "jsonl", SchemaConfig(kpi=LAT_KPI))
        assert per_line.call_count == 0
        assert [cell(table, "A", i) for i in range(3)] == ["x", None, None]
        assert [cell(table, "AuthLatency", i) for i in range(3)] == [1.0, None, 2.5]


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

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_jsonl_constant_in_declared_categorical_rejected(self, tmp_path, bad):
        path = write(
            tmp_path,
            "a.jsonl",
            f'{{"Tag": "a", "AuthLatency": 1}}\n{{"Tag": {bad}, "AuthLatency": 2}}\n',
        )
        config = SchemaConfig(
            kpi=LAT_KPI, columns={"Tag": ColumnDecl(kind=ColumnKind.CATEGORICAL)}
        )
        with pytest.raises(SchemaError, match="row 2: column 'Tag'.*not finite"):
            load(path, "jsonl", config)

    def test_jsonl_constant_in_inferred_categorical_rejected(self, tmp_path):
        # strings and a NaN: the column is inferred categorical
        path = write(
            tmp_path,
            "a.jsonl",
            '{"Tag": "a", "AuthLatency": 1}\n\n{"Tag": NaN, "AuthLatency": 2}\n',
        )
        with pytest.raises(SchemaError, match="row 3: column 'Tag'.*not finite"):
            load(path, "jsonl", SchemaConfig(kpi=LAT_KPI))

    def test_jsonl_integer_beyond_float_range_rejected(self, tmp_path):
        path = write(tmp_path, "a.jsonl", f'{{"AuthLatency": 1}}\n{{"AuthLatency": 1{"0" * 400}}}\n')
        with pytest.raises(SchemaError, match="row 2: column 'AuthLatency'.*not finite"):
            load(path, "jsonl", SchemaConfig(kpi=LAT_KPI))


# -- loader against the cell-by-cell reference --------------------------------

COLUMN_NAMES = ("K", "A", "Ärger", "日志")
NUMBER_TEXTS = ("1", "-2.5", "1e3", " 7", "0.1", "-0", "nan", "inf", "1_000", "١٢")
CATEGORY_TEXTS = ("a", "b", "Zürich", "東京", "a ", "1", "true", "")
TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n\x00"), max_size=4
)
NUMBERS = st.one_of(
    st.integers(),
    st.sampled_from([2**53 + 1, 10**400]),
    st.floats(),
)
CELLS = {
    "numbers": NUMBERS,
    "number texts": st.sampled_from(NUMBER_TEXTS),
    "categories": st.sampled_from(CATEGORY_TEXTS),
    "anything": st.one_of(NUMBERS, TEXT, st.booleans(), st.sampled_from(NUMBER_TEXTS)),
}


@st.composite
def tables(draw):
    """(columns as {name: cells}, schema config, omit JSONL keys of missing cells)."""
    names = ["K"] + draw(st.lists(st.sampled_from(COLUMN_NAMES[1:]), unique=True))
    rows = draw(st.integers(min_value=0, max_value=6))
    columns = {}
    for name in names:
        cell = st.one_of(st.none(), CELLS[draw(st.sampled_from(sorted(CELLS)))])
        columns[name] = draw(st.lists(cell, min_size=rows, max_size=rows))
    kinds = st.sampled_from([None, ColumnKind.CATEGORICAL, ColumnKind.CONTINUOUS])
    decls = {n: ColumnDecl(kind=draw(kinds)) for n in names[1:] if draw(st.booleans())}
    if draw(st.booleans()):
        kpi = KpiSpec(column="K", kind=KpiKind.CONTINUOUS, threshold=0.0)
    else:
        kpi = KpiSpec(column="K", kind=KpiKind.BINARY, positive_label="1")
    return columns, SchemaConfig(kpi=kpi, columns=decls), draw(st.booleans())


def csv_text(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return v if isinstance(v, str) else repr(v)


def write_both(dir: Path, columns: dict, omit_missing: bool) -> tuple[Path, Path]:
    csv_path, jsonl_path = dir / "t.csv", dir / "t.jsonl"
    names = list(columns)
    rows = list(zip(*columns.values()))
    with open(csv_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(names)
        writer.writerows([csv_text(v) for v in row] for row in rows)
    with open(jsonl_path, "w", encoding="utf-8") as f:
        for row in rows:
            obj = {n: v for n, v in zip(names, row) if not (omit_missing and v is None)}
            f.write(json.dumps(obj) + "\n")
    return csv_path, jsonl_path


def outcome(loader, path, format, config):
    """The loaded table, the (row, column, problem) a SchemaError names, or a
    ConfigError's message."""
    try:
        return loader(path, format, config)
    except ConfigError as e:
        return str(e)
    except SchemaError as e:
        named = re.fullmatch(r"row (\d+): column '(.*?)' .*(not numeric|not finite)", str(e))
        assert named, f"error names no row and column: {e}"
        return named.groups()


def comparable(result):
    """An outcome as a value `==` compares: a table as its table_state."""
    return table_state(result) if isinstance(result, LogTable) else result


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(tables())
    def test_load_equals_reference_or_both_name_the_same_cell(self, drawn):
        columns, config, omit_missing = drawn
        with tempfile.TemporaryDirectory() as dir:
            for path, format in zip(write_both(Path(dir), columns, omit_missing), ("csv", "jsonl")):
                expected = comparable(outcome(load_reference, path, format, config))
                assert comparable(outcome(load, path, format, config)) == expected, format

    def test_generated_day_with_missing_cells(self, tmp_path):
        attrs = tuple(
            synth.AttributeSpec(name=f"C{c}", kind=ColumnKind.CATEGORICAL, cardinality=c)
            for c in (3, 40, 3000)
        ) + tuple(synth.AttributeSpec(name=f"X{i}", kind=ColumnKind.CONTINUOUS) for i in range(3))
        kpi = synth.KpiProfile(column="Lat", kind=KpiKind.CONTINUOUS)
        table, _ = synth.generate(
            synth.GeneratorConfig(attrs, 12_000, kpi, (), seed=7), datetime.date(2026, 8, 10)
        )
        rng = np.random.default_rng(7)
        columns = {}
        for name in table.column_names:
            cells = [cell(table, name, i) for i in range(table.row_count)]
            if name != "Lat":
                cells = [None if m else v for v, m in zip(cells, rng.random(len(cells)) < 0.05)]
            columns[name] = cells
        config = SchemaConfig(kpi=KpiSpec(column="Lat", kind=KpiKind.CONTINUOUS, threshold=1.0))
        for path, format in zip(write_both(tmp_path, columns, True), ("csv", "jsonl")):
            assert table_state(load(path, format, config)) == table_state(load_reference(path, format, config)), format


class TestAcrossBlocks:
    """The file is encoded a block at a time; blocks must not show in the table."""

    @pytest.mark.parametrize("block_rows", [1, 2, 3])
    @settings(max_examples=150, deadline=None)
    @given(drawn=tables())
    def test_load_equals_reference_with_tiny_blocks(self, block_rows, drawn):
        columns, config, omit_missing = drawn
        with tempfile.TemporaryDirectory() as dir, mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
            for path, format in zip(write_both(Path(dir), columns, omit_missing), ("csv", "jsonl")):
                expected = comparable(outcome(load_reference, path, format, config))
                assert comparable(outcome(load, path, format, config)) == expected, format

    CONFIG = SchemaConfig(kpi=KpiSpec(column="K", kind=KpiKind.CONTINUOUS, threshold=0.0))

    def load_both(self, tmp_path, x: list, omit_missing=True, reads=1) -> list:
        """Each format's load of columns K (numbers) and X, checked against the reference."""
        columns = {"K": [float(i % 7) for i in range(len(x))], "X": x}
        tables = []
        for path, format in zip(write_both(tmp_path, columns, omit_missing), ("csv", "jsonl")):
            with mock.patch.object(ingest, "_encode", wraps=ingest._encode) as encode:
                got = outcome(load, path, format, self.CONFIG)
            assert comparable(got) == comparable(outcome(load_reference, path, format, self.CONFIG)), format
            assert encode.call_count == reads, format
            tables.append(got)
        return tables

    def test_column_numeric_for_5000_rows_then_text_is_read_again_as_categorical(self, tmp_path):
        x = [None if i % 11 == 0 else i / 4 for i in range(5000)] + ["abc", 2.5, None]
        for table in self.load_both(tmp_path, x, reads=2):
            assert table.spec("X").kind is ColumnKind.CATEGORICAL
            assert cell(table, "X", 1) == "0.25" and cell(table, "X", 5000) == "abc"

    @pytest.mark.parametrize("omit_missing", [True, False], ids=["key first seen in block 2", "null"])
    @pytest.mark.parametrize("later, kind", [
        ([1.5, None, 3], ColumnKind.CONTINUOUS), (["a", None, "b"], ColumnKind.CATEGORICAL),
    ])
    def test_column_empty_for_the_whole_first_block(self, tmp_path, omit_missing, later, kind):
        for table in self.load_both(tmp_path, [None] * 4100 + later, omit_missing):
            assert table.spec("X").kind is kind
            assert cell(table, "X", 4099) is None and cell(table, "X", 4100) is not None

    def test_inf_in_block_1_of_a_column_that_turns_categorical_is_a_category(self, tmp_path):
        x = ["1.5"] * 10 + ["inf"] + ["2"] * 4500 + ["abc"]
        for table in self.load_both(tmp_path, x, reads=2):
            assert table.categories("X") == ("1.5", "2", "abc", "inf")

    def test_inf_in_block_1_of_a_numeric_column_is_named_at_its_line(self, tmp_path):
        x = [1.5] * 10 + [float("inf")] + [2.0] * 4500 + [float("nan")]
        # a CSV file's line 1 is its header
        assert self.load_both(tmp_path, x) == [("12", "X", "not finite"), ("11", "X", "not finite")]

    def test_not_numeric_in_a_later_block_wins_over_an_earlier_inf(self, tmp_path):
        path = write(tmp_path, "a.csv", "K,X\n1,inf\n" + "1,2\n" * 5000 + "1,oops\n")
        config = SchemaConfig(kpi=self.CONFIG.kpi, columns={"X": ColumnDecl(kind=ColumnKind.CONTINUOUS)})
        assert outcome(load, path, "csv", config) == ("5003", "X", "not numeric")
        assert outcome(load_reference, path, "csv", config) == ("5003", "X", "not numeric")

    def test_traced_peak_of_a_40k_row_day_stays_near_one_block(self, tmp_path):
        # The table is 40,000 x (3 int32 + 4 float64) = 1.8 MB, about ten
        # blocks. Holding every cell until the file ends, as a whole-file
        # reader does, peaked at 21 MiB for the CSV and 37 MiB for the JSONL
        # under tracemalloc; streamed blocks stay under 10 MiB in both. One
        # CPU keeps the whole file in this process, where tracemalloc sees it.
        config = SchemaConfig(kpi=KpiSpec(column="Lat", kind=KpiKind.CONTINUOUS, threshold=1.0))
        for path, format in zip(write_both(tmp_path, forty_k_row_day(), True), ("csv", "jsonl")):
            with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True):
                loaded, peak = traced_load(path, format, config)
            assert table_state(loaded) == table_state(load_reference(path, format, config)), format
            assert peak < 10 * 2**20, f"{format}: traced peak {peak / 2**20:.1f} MiB"


def forty_k_row_day() -> dict:
    """Columns of a generated 40,000-row day: three categorical, four continuous."""
    attrs = tuple(
        synth.AttributeSpec(name=f"C{c}", kind=ColumnKind.CATEGORICAL, cardinality=c)
        for c in (3, 40, 3000)
    ) + tuple(synth.AttributeSpec(name=f"X{i}", kind=ColumnKind.CONTINUOUS) for i in range(3))
    kpi = synth.KpiProfile(column="Lat", kind=KpiKind.CONTINUOUS)
    table, _ = synth.generate(
        synth.GeneratorConfig(attrs, 40_000, kpi, (), seed=7), datetime.date(2026, 8, 10)
    )
    return {n: [cell(table, n, i) for i in range(table.row_count)] for n in table.column_names}


def traced_load(path, format, config) -> tuple:
    """(the loaded table, the peak bytes tracemalloc saw in this process while loading)."""
    tracemalloc.start()
    try:
        loaded = load(path, format, config)
        return loaded, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def split_into_ranges(workers: int):
    """Every load below splits its file into `workers` byte ranges, however small the file."""
    with mock.patch.object(ingest, "_RANGE_BYTES", 1), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(workers)), create=True):
        yield


@contextlib.contextmanager
def no_longer_than(seconds: int):
    """Fails the block once `seconds` have passed, even while it waits in a
    system call: a reader that opens a pipe a second time waits for a writer
    that never comes."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# the patches of a function-scoped fixture are the same for every example
IN_RANGES = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestAgainstReferenceInRanges(TestAgainstReference):
    """TestAgainstReference with each file read as 2 or 3 byte ranges, in worker processes."""

    @pytest.fixture(autouse=True, params=[2, 3], ids=["2 ranges", "3 ranges"])
    def ranges(self, request):
        with split_into_ranges(request.param):
            yield

    @IN_RANGES
    @given(tables())
    def test_load_equals_reference_or_both_name_the_same_cell(self, drawn):
        columns, config, omit_missing = drawn
        with tempfile.TemporaryDirectory() as dir:
            for path, format in zip(write_both(Path(dir), columns, omit_missing), ("csv", "jsonl")):
                expected = comparable(outcome(load_reference, path, format, config))
                assert comparable(outcome(load, path, format, config)) == expected, format


class TestAcrossRanges(TestAcrossBlocks):
    """TestAcrossBlocks with each file read as 2 or 3 byte ranges, in worker
    processes; the ranges' columns, dictionaries, inference states and
    errors must merge to what one reader going through the file gives."""

    @pytest.fixture(autouse=True, params=[2, 3], ids=["2 ranges", "3 ranges"])
    def ranges(self, request):
        with split_into_ranges(request.param):
            yield

    @pytest.mark.parametrize("block_rows", [1, 2, 3])
    @IN_RANGES
    @given(drawn=tables())
    def test_load_equals_reference_with_tiny_blocks(self, block_rows, drawn):
        columns, config, omit_missing = drawn
        with tempfile.TemporaryDirectory() as dir, mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
            for path, format in zip(write_both(Path(dir), columns, omit_missing), ("csv", "jsonl")):
                expected = comparable(outcome(load_reference, path, format, config))
                assert comparable(outcome(load, path, format, config)) == expected, format

    def test_row_error_in_a_later_range_beats_a_cell_error_in_an_earlier_one(self, tmp_path):
        csv_path = write(tmp_path, "a.csv", "K,X\n1,inf\n" + "1,2\n" * 3000 + "1\n")
        with pytest.raises(SchemaError, match=r"^row 3003: expected 2 fields, got 1$"):
            load(csv_path, "csv", self.CONFIG)
        jsonl_path = write(tmp_path, "a.jsonl", '{"K": 1, "X": NaN}\n' + '{"K": 1, "X": 2}\n' * 3000 + "[1]\n")
        with pytest.raises(SchemaError, match=r"^row 3002: expected a flat JSON object$"):
            load(jsonl_path, "jsonl", self.CONFIG)

    @pytest.mark.parametrize("numbers_first", [True, False], ids=["numbers, then texts", "texts, then numbers"])
    def test_column_categorical_in_one_range_and_numeric_in_another_is_read_again(self, tmp_path, numbers_first):
        numbers, texts = [i / 4 for i in range(3000)], [f"t{i % 7}" for i in range(3000)]
        x = numbers + texts if numbers_first else texts + numbers
        for table in self.load_both(tmp_path, x, reads=2):
            assert table.spec("X").kind is ColumnKind.CATEGORICAL
            assert cell(table, "X", 1) == ("0.25" if numbers_first else "t1")

    def test_jsonl_key_first_seen_in_the_last_range(self, tmp_path):
        lines = [{"K": i, "A": f"a{i % 3}"} for i in range(3000)]
        lines += [{"K": i, "Late": f"z{i % 5}", "A": "b"} for i in range(1000)]
        path = write(tmp_path, "a.jsonl", "".join(json.dumps(obj) + "\n" for obj in lines))
        table = load(path, "jsonl", self.CONFIG)
        assert table_state(table) == table_state(load_reference(path, "jsonl", self.CONFIG))
        assert table.column_names == ("K", "A", "Late")
        assert cell(table, "Late", 2999) is None and cell(table, "Late", 3000) == "z0"

    def test_csv_with_a_quoted_line_end_near_a_boundary_is_one_range(self, tmp_path):
        rows = [f"{i},x{i % 4}\n" for i in range(1000)]
        rows[500] = '500,"two\nlines"\n'
        path = write(tmp_path, "a.csv", "K,X\n" + "".join(rows))
        with mock.patch("multiprocessing.pool.Pool", side_effect=AssertionError("no pool for a quoted CSV")):
            table = load(path, "csv", self.CONFIG)
        assert table_state(table) == table_state(load_reference(path, "csv", self.CONFIG))
        assert cell(table, "X", 500) == "two\nlines" and table.row_count == 1000


# -- JSON lines decoded a block at a time ---------------------------------------

JSONL_KEYS = ("K", "A", "B")
JSONL_CELLS = st.one_of(
    st.integers(-5, 5),
    st.floats(-1e3, 1e3),
    st.sampled_from([True, False, None, "x", "Zürich", math.nan, math.inf, -math.inf]),
)
# one list of three flat objects when joined, though no line parses alone
JOINED_ONLY = ['{"K": 1},{"A": 0}', '{"B": 2,"K": 0', '"A": 1}']
# each an injected fault, as the lines that carry it; None is no fault
JSONL_FAULTS = (
    None,
    ["not-json"],
    ['{"K": 1'],
    ["[1, 2]"],
    ['"K"'],
    ["7"],
    ['{"K": 1, "A": {"x": 1}}'],
    ['{"A": [1], "K": 2}'],
    ['{"K": ' + "9" * 5000 + "}"],  # an integer past int_max_str_digits
    JOINED_ONLY,
    JOINED_ONLY,
)


@st.composite
def jsonl_texts(draw):
    """A JSONL file's text: flat objects (keys first seen anywhere, some
    absent), blank and whitespace-only lines, CRLF or LF line ends, maybe no
    final line end, maybe one fault."""
    lines = []
    for _ in range(draw(st.integers(0, 9))):
        keys = draw(st.lists(st.sampled_from(JSONL_KEYS), unique=True))
        row = {k: draw(JSONL_CELLS) for k in keys}
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + json.dumps(row) + draw(st.sampled_from(["", " "])))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", " \t "])))
    at = draw(st.integers(0, len(lines)))
    lines[at:at] = draw(st.sampled_from(JSONL_FAULTS)) or []
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + (end if lines and draw(st.booleans()) else "")


def jsonl_outcome(path, config):
    """The loaded table's table_state, or the error's type and text."""
    try:
        return table_state(load(path, "jsonl", config))
    except (ConfigError, SchemaError) as e:
        return type(e).__name__, str(e)


class TestJsonlBlocks:
    """A block of JSON lines is decoded as one JSON list when that must give
    each line's own object; the table and every error are those of decoding
    each line by itself."""

    CONFIG = SchemaConfig(kpi=KpiSpec(column="K", kind=KpiKind.CONTINUOUS, threshold=0.0))

    @pytest.fixture(autouse=True, params=[1, 2], ids=["1 range", "2 ranges"])
    def ranges(self, request):
        with split_into_ranges(request.param):
            yield

    @pytest.mark.parametrize("block_rows", [2, 3, 4096])
    @settings(IN_RANGES, max_examples=80)
    @given(text=jsonl_texts())
    def test_block_decoder_equals_the_per_line_decoder(self, block_rows, text):
        with tempfile.TemporaryDirectory() as dir, mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
            path = Path(dir) / "t.jsonl"
            path.write_bytes(text.encode("utf-8"))
            per_line = mock.patch.object(ingest, "_joined", lambda texts: None)
            with per_line:
                expected = jsonl_outcome(path, self.CONFIG)
            assert jsonl_outcome(path, self.CONFIG) == expected


FORKED_MAP_PROBE = """
from kpidiag import ingest
def fail(results):
    next(results)
    raise ValueError
for _ in range(30):
    try:
        ingest.forked_map(lambda i: b"x" * (8 << 20), range(6), 2, fail)
    except ValueError:
        pass
"""


def test_forked_map_returns_when_consume_raises_while_workers_send():
    # Leaving a pool terminates its workers; one killed while it sent a
    # result held the result queue's lock, and the pool waited on it
    # forever, in 6 of 6 probe runs. A fresh process, so that such a hang
    # ends at the timeout.
    env = dict(os.environ, PYTHONPATH=str(Path(ingest.__file__).parent.parent))
    subprocess.run([sys.executable, "-c", FORKED_MAP_PROBE], env=env, check=True, timeout=120)


class TestRanges:
    def test_traced_peak_of_the_parent_merging_a_40k_row_day_stays_near_one_block(self, tmp_path):
        # Workers encode the ranges; the parent holds the table so far and
        # one range's columns as they arrive: 3.5 to 4.1 MiB traced with 2
        # or 3 ranges, where one process encoding every block peaks at 7 MiB.
        config = SchemaConfig(kpi=KpiSpec(column="Lat", kind=KpiKind.CONTINUOUS, threshold=1.0))
        for path, format in zip(write_both(tmp_path, forty_k_row_day(), True), ("csv", "jsonl")):
            with mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}, create=True):
                assert len(ingest._ranges(path, format)) == 2, format
                loaded, peak = traced_load(path, format, config)
            assert table_state(loaded) == table_state(load_reference(path, format, config)), format
            assert peak < 6 * 2**20, f"{format}: traced peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("format", ["csv", "jsonl"])
    def test_a_pipe_is_read_as_it_comes(self, tmp_path, format):
        rows = [{"K": i, "X": f"x{i % 4}"} for i in range(3000)]
        if format == "csv":
            text = "K,X\n" + "".join(f"{r['K']},{r['X']}\n" for r in rows)
        else:
            text = "".join(json.dumps(r) + "\n" for r in rows)
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        # the writer's open waits for the reader's; a daemon thread cannot hang the suite
        threading.Thread(target=pipe.write_text, args=(text,), kwargs={"encoding": "utf-8"}, daemon=True).start()
        with split_into_ranges(2), no_longer_than(30), \
                mock.patch("multiprocessing.pool.Pool", side_effect=AssertionError("a pool for a pipe")):
            table = load(pipe, format, TestAcrossBlocks.CONFIG)
        assert table_state(table) == table_state(load(write(tmp_path, f"a.{format}", text), format, TestAcrossBlocks.CONFIG))
        assert table.row_count == 3000

    @pytest.mark.parametrize("format", ["csv", "jsonl"])
    def test_a_column_that_turns_categorical_in_a_pipe_is_an_error(self, tmp_path, format):
        # a file is read again with X categorical; a pipe cannot be
        if format == "csv":
            text = "K,X\n" + "".join(f"{i},{i / 4}\n" for i in range(5000)) + "5000,abc\n5001,2\n"
        else:
            text = "".join(json.dumps({"K": i, "X": i / 4}) + "\n" for i in range(5000))
            text += '{"K": 5000, "X": "abc"}\n{"K": 5001, "X": 2}\n'
        line = text.count("\n") - 1
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        threading.Thread(target=pipe.write_text, args=(text,), kwargs={"encoding": "utf-8"}, daemon=True).start()
        message = rf"^row {line}: column 'X' turns categorical after numbers, .* declare the column's kind"
        with no_longer_than(30), pytest.raises(SchemaError, match=message):
            load(pipe, format, TestAcrossBlocks.CONFIG)

    @pytest.mark.parametrize("ranges", [1, 2])
    @pytest.mark.parametrize("format", ["csv", "jsonl"])
    def test_bytes_that_are_not_utf8_name_their_line_and_file_offset(self, tmp_path, format, ranges):
        # a long first line puts line 2 in the second of 2 ranges
        if format == "csv":
            data = b"K," + b"X" * 40 + b"\n1,a\xffb\n2,c\n"
        else:
            data = b'{"K": 1, "X": "' + b"a" * 40 + b'"}\n{"K": 2, "X": "b\xff"}\n{"K": 3, "X": "c"}\n'
        path = tmp_path / f"a.{format}"
        path.write_bytes(data)
        offset = data.index(b"\xff")
        with split_into_ranges(ranges):
            assert [a for a, _ in ingest._ranges(path, format)] == [0, data.index(b"\n") + 1][:ranges]
            with pytest.raises(SchemaError, match=rf"^row 2: byte 0xff at offset {offset} of the file is not UTF-8$"):
                load(path, format, TestAcrossBlocks.CONFIG)

    def test_ranges_cover_the_file_and_end_at_line_ends(self, tmp_path):
        path = write(tmp_path, "a.jsonl", "".join(f'{{"K": {i}}}\n' for i in range(5000)))
        data = path.read_bytes()
        for workers in (2, 3, 7):
            with split_into_ranges(workers):
                ranges = ingest._ranges(path, "jsonl")
            assert len(ranges) == workers
            assert [a for a, _ in ranges[1:]] == [b for _, b in ranges[:-1]]
            assert ranges[0][0] == 0 and ranges[-1][1] == len(data)
            assert all(data[a - 1:a] == b"\n" for a, _ in ranges[1:])

    def test_a_range_is_at_least_the_floor(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        path = write(tmp_path, "a.csv", "K\n" + "1\n" * (ingest._RANGE_BYTES // 2 * 3))
        assert len(ingest._ranges(path, "csv")) == 3
        path.write_text('"K"\n' + "1\n" * (ingest._RANGE_BYTES // 2 * 3))
        assert len(ingest._ranges(path, "csv")) == 1

    def test_no_worker_outlives_a_failed_load_or_a_pooled_training(self, tmp_path, monkeypatch):
        good = "K,X\n" + "".join(f"{i},x{i % 3}\n" for i in range(1000))
        path = write(tmp_path, "a.csv", good + "7,x,y\n")  # the bad row is in the second range
        pool = mock.patch("multiprocessing.pool.Pool", wraps=multiprocessing.pool.Pool)
        with split_into_ranges(2), pool as started:
            assert len(ingest._ranges(path, "csv")) == 2
            with pytest.raises(SchemaError, match=r"^row 1002: expected 2 fields, got 3$"):
                load(path, "csv", TestAcrossBlocks.CONFIG)
            assert started.call_count == 1
        assert multiprocessing.active_children() == []
        table = load(write(tmp_path, "b.csv", good), "csv", TestAcrossBlocks.CONFIG)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(forest, "_POOL_SEARCHES", 0)
        with pool as started:
            model = forest.train(table, table.values("K"), forest.Hyperparams(min_rows_in_leaf=50, num_trees=4))
            assert started.call_count == 1
        assert len(model.trees) == 4
        assert multiprocessing.active_children() == []

    def test_a_small_file_is_loaded_without_a_pool(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        path = write(tmp_path, "a.csv", "K,X\n" + "1,a\n" * 10_000)
        with mock.patch("multiprocessing.pool.Pool", side_effect=AssertionError("a pool for a small file")):
            assert load(path, "csv", TestAcrossBlocks.CONFIG).row_count == 10_000


class TestCardinality:
    def test_missing_is_excluded(self):
        table = make_table({"X": ("cat", ["a", "b", "a", None])})
        assert category_counts(table)["X"] == 2

    def test_empty_table(self):
        table = make_table({"X": ("cat", []), "Y": ("cont", [])})
        assert category_counts(table) == {"X": 0}

    def test_desk_scale_unique_ids(self):
        n = 50_000
        table = make_table({"Id": ("cat", [f"id{i}" for i in range(n)])})
        assert category_counts(table)["Id"] == n

    def test_never_exceeds_row_count(self, rng):
        values = [str(v) for v in rng.integers(0, 40, size=200)]
        table = make_table({"X": ("cat", values)})
        assert category_counts(table)["X"] <= table.row_count


class TestLogTable:
    def test_columns_must_align(self):
        specs = [
            ColumnSpec("A", ColumnKind.CATEGORICAL),
            ColumnSpec("B", ColumnKind.CONTINUOUS),
        ]
        with pytest.raises(SchemaError):
            table_from_columns(specs, {"A": ["x"], "B": [1.0, 2.0]})

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
            table_from_columns(specs, {"A": [1.0], "B": [2.0]})

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
    assert table_state(loaded) == table_state(table)


# Texts csv.writer must quote, or must not: separators, quotes, line ends,
# surrounding spaces, non-ASCII and the empty string.
AWKWARD_TEXTS = st.one_of(
    st.sampled_from(["", " ", "a,b", 'say "hi"', '"', "a\rb", "a\nb", "\r\n", " lead", "trail ", "Zürich", "東京", "x"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)
# Floats format_number treats apart: integral, signed zeros, at and past
# 1e16, subnormal, NaN (missing); and any other finite float.
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 47.0, -3.0, 1e16, -1e16, 9999999999999998.0, 2.5e16, 5e-324, 1e-310, math.nan]),
    st.integers(min_value=-(2**60), max_value=2**60).map(float),
    st.floats(allow_infinity=False),
)


@st.composite
def writable_tables(draw):
    """A table of one to four columns and zero to nine rows, with awkward names and cells."""
    names = draw(st.lists(AWKWARD_TEXTS, min_size=1, max_size=4, unique=True))
    rows = draw(st.integers(min_value=0, max_value=9))
    schema, data = [], {}
    for name in names:
        kind = draw(st.sampled_from([ColumnKind.CATEGORICAL, ColumnKind.CONTINUOUS]))
        cells = st.one_of(st.none(), AWKWARD_TEXTS) if kind is ColumnKind.CATEGORICAL else EDGE_FLOATS
        schema.append(ColumnSpec(name, kind, ColumnRole.FEATURE))
        data[name] = draw(st.lists(cells, min_size=rows, max_size=rows))
    return table_from_columns(schema, data)


def written(writer, table, dir) -> bytes:
    path = Path(dir) / f"{writer.__name__}.csv"
    writer(table, path)
    return path.read_bytes()


class TestWriteCsv:
    @pytest.mark.parametrize("block_rows", [1, 2, 3, 4096])
    @settings(max_examples=150, deadline=None)
    @given(table=writable_tables())
    def test_writes_the_reference_bytes(self, block_rows, table):
        with tempfile.TemporaryDirectory() as dir, mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
            assert written(write_csv, table, dir) == written(write_csv_reference, table, dir)

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_value_is_refused_before_the_file_is_opened(self, tmp_path, value):
        table = make_table({"Region": ("cat", ["NA", "EU"]), "Lat": ("cont", [1.0, value])})
        path = tmp_path / "t.csv"
        with pytest.raises(SchemaError, match="column 'Lat' holds an infinite value"):
            write_csv(table, path)
        assert not path.exists()

    def test_holds_about_one_block_of_cell_texts(self, tmp_path):
        # 50,000 rows x 21 columns. The reference writer holds every cell's
        # text at once; write_csv holds one 4,096-row block of them.
        attrs = tuple(
            synth.AttributeSpec(name=f"C{i}", kind=ColumnKind.CATEGORICAL, cardinality=5 + 40 * i)
            for i in range(12)
        ) + tuple(synth.AttributeSpec(name=f"X{i}", kind=ColumnKind.CONTINUOUS) for i in range(8))
        kpi = synth.KpiProfile(column="Lat", kind=KpiKind.CONTINUOUS)
        table, _ = synth.generate(
            synth.GeneratorConfig(attrs, 50_000, kpi, (), seed=11), datetime.date(2026, 8, 10)
        )
        peaks = {}
        for writer in (write_csv_reference, write_csv):
            tracemalloc.start()
            try:
                writer(table, tmp_path / f"{writer.__name__}.csv")
                peaks[writer] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (tmp_path / "write_csv.csv").read_bytes() == (tmp_path / "write_csv_reference.csv").read_bytes()
        assert peaks[write_csv] < peaks[write_csv_reference] / 4, {w.__name__: p for w, p in peaks.items()}
