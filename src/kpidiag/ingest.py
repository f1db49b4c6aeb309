"""Load structured logs into an in-memory columnar table.

Categorical columns are stored as int32 codes into a sorted category list
(-1 = missing); continuous columns as float64 arrays (NaN = missing). One
joined file per run: CSV (first row = header) or JSON lines (one flat
object per line). A schema config declares column kinds and roles and
names the KPI column; undeclared columns get inferred kinds.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, SchemaError
from .model import (
    ColumnKind,
    ColumnRole,
    ColumnSpec,
    KpiKind,
    KpiSpec,
    Predicate,
    PredicateOp,
    format_number,
)


@dataclass(frozen=True)
class ColumnDecl:
    """Declared kind/role for one column; kind=None means infer."""

    kind: ColumnKind | None = None
    role: ColumnRole = ColumnRole.FEATURE


@dataclass(frozen=True)
class SchemaConfig:
    """Column declarations plus the KPI criterion. Declarations win over inference."""

    kpi: KpiSpec
    columns: Mapping[str, ColumnDecl] = field(default_factory=dict)

    def decl(self, name: str) -> ColumnDecl:
        return self.columns.get(name, ColumnDecl())


class LogTable:
    """Immutable columnar table of mixed-type rows with explicit missing markers."""

    def __init__(
        self,
        schema: Sequence[ColumnSpec],
        codes: Mapping[str, np.ndarray],
        categories: Mapping[str, tuple[str, ...]],
        values: Mapping[str, np.ndarray],
        row_count: int,
    ):
        self._codes = dict(codes)
        self._categories = dict(categories)
        self._values = dict(values)
        self.row_count = row_count
        self.schema: tuple[ColumnSpec, ...] = tuple(schema)
        for spec in self.schema:
            col = (self._codes if spec.kind is ColumnKind.CATEGORICAL else self._values)[spec.name]
            if col.shape != (row_count,):
                raise SchemaError(f"column {spec.name!r} length != row count")
        self._by_name = {s.name: s for s in self.schema}
        if len(self._by_name) != len(self.schema):
            raise SchemaError("duplicate column names")
        kpi_cols = [s for s in self.schema if s.role is ColumnRole.KPI]
        if len(kpi_cols) > 1:
            raise SchemaError("more than one KPI column")

    # -- column access -------------------------------------------------

    def spec(self, name: str) -> ColumnSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"no such column: {name!r}") from None

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.schema)

    def feature_columns(self) -> tuple[ColumnSpec, ...]:
        return tuple(s for s in self.schema if s.role is ColumnRole.FEATURE)

    def codes(self, name: str) -> np.ndarray:
        """int32 category codes for a categorical column (-1 = missing)."""
        if self.spec(name).kind is not ColumnKind.CATEGORICAL:
            raise SchemaError(f"column {name!r} is not categorical")
        return self._codes[name]

    def categories(self, name: str) -> tuple[str, ...]:
        """Sorted distinct category list the codes index into."""
        self.codes(name)
        return self._categories[name]

    def values(self, name: str) -> np.ndarray:
        """float64 values for a continuous column (NaN = missing)."""
        if self.spec(name).kind is not ColumnKind.CONTINUOUS:
            raise SchemaError(f"column {name!r} is not continuous")
        return self._values[name]

    def category_mask(self, name: str, value: str) -> np.ndarray:
        """Rows of a categorical column whose category is `value` (none if absent)."""
        cats = self.categories(name)
        pos = bisect.bisect_left(cats, value)
        if pos < len(cats) and cats[pos] == value:
            return self._codes[name] == pos
        return np.zeros(self.row_count, dtype=bool)

    # -- bulk operations -----------------------------------------------

    def take(self, indices: np.ndarray) -> "LogTable":
        """New table holding the given rows (positions, in the given order)."""
        codes = {n: c[indices] for n, c in self._codes.items()}
        values = {n: v[indices] for n, v in self._values.items()}
        return LogTable(self.schema, codes, self._categories, values, len(indices))

    def predicate_mask(self, p: Predicate) -> np.ndarray:
        """Vectorized predicate evaluation; rows are assumed imputed."""
        spec = self.spec(p.attribute)
        if p.op is PredicateOp.EQUALS:
            if spec.kind is not ColumnKind.CATEGORICAL:
                raise SchemaError(f"equality predicate on continuous column {p.attribute!r}")
            base = self.category_mask(p.attribute, p.value)
        else:
            if spec.kind is not ColumnKind.CONTINUOUS:
                raise SchemaError(f"threshold predicate on categorical column {p.attribute!r}")
            base = self._values[p.attribute] > p.value
        return base if p.polarity else ~base

    def conjunction_mask(self, predicates: Iterable[Predicate]) -> np.ndarray:
        mask = np.ones(self.row_count, dtype=bool)
        for p in predicates:
            mask &= self.predicate_mask(p)
        return mask

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogTable):
            return NotImplemented
        if self.schema != other.schema or self.row_count != other.row_count:
            return False
        for name in self._codes:
            if self._categories[name] != other._categories[name]:
                return False
            if not np.array_equal(self._codes[name], other._codes[name]):
                return False
        for name in self._values:
            if not np.array_equal(self._values[name], other._values[name], equal_nan=True):
                return False
        return True

    def __repr__(self) -> str:
        return f"LogTable({len(self.schema)} columns, {self.row_count} rows)"


def _dictionary_encode(texts: Sequence[str | None]) -> tuple[np.ndarray, tuple[str, ...]]:
    """int32 codes into the sorted distinct texts (None = missing = -1)."""
    distinct = dict.fromkeys(texts)
    distinct.pop(None, None)
    cats = sorted(distinct)
    lookup = dict(zip(cats, range(len(cats))))
    lookup[None] = -1
    codes = np.fromiter(map(lookup.__getitem__, texts), dtype=np.int32, count=len(texts))
    return codes, tuple(cats)


# -- file loading --------------------------------------------------------


def load(path, format: str, schema_config: SchemaConfig) -> LogTable:
    """Load a CSV or JSONL file into a LogTable.

    Declared kinds from the config are authoritative; undeclared columns are
    inferred (all-numeric -> continuous, else categorical). Empty CSV cells
    and absent/null JSONL fields become missing. The KPI column must be
    present and takes its kind from the KPI spec. A continuous cell that is
    not a finite number (`inf`, `nan`, JSON `NaN`/`Infinity`), or a JSON
    `NaN`/`Infinity` in a categorical column, is a SchemaError; errors name
    the file line ("row N") and the column.
    """
    if format == "csv":
        names, columns, row_lines = _read_csv(path)
    elif format == "jsonl":
        names, columns, row_lines = _read_jsonl(path, schema_config)
    else:
        raise ConfigError(f"unknown input format: {format!r}")

    kpi = schema_config.kpi
    if kpi.column not in names:
        raise ConfigError(f"KPI column {kpi.column!r} absent from input")

    schema: list[ColumnSpec] = []
    codes: dict[str, np.ndarray] = {}
    categories: dict[str, tuple[str, ...]] = {}
    values: dict[str, np.ndarray] = {}

    for name, col in zip(names, columns):
        decl = schema_config.decl(name)
        kind = decl.kind
        role = decl.role
        if name == kpi.column:
            role = ColumnRole.KPI
            kind = ColumnKind.CONTINUOUS if kpi.kind is KpiKind.CONTINUOUS else ColumnKind.CATEGORICAL
        cell_types = set(map(type, col)) - {type(None)}
        if bool in cell_types:
            col = ["true" if v is True else "false" if v is False else v for v in col]
            cell_types = cell_types - {bool} | {str}
        floats = None
        if kind is None:
            kind = ColumnKind.CATEGORICAL
            if cell_types and cell_types <= {int, float}:
                kind = ColumnKind.CONTINUOUS
            elif cell_types == {str}:
                try:
                    floats = np.array(col, dtype=np.float64)
                    kind = ColumnKind.CONTINUOUS
                except ValueError:
                    pass
        if kind is ColumnKind.CONTINUOUS:
            values[name] = _parse_continuous(name, col, row_lines, floats)
        else:
            texts = col if cell_types <= {str} else _category_texts(name, col, row_lines)
            codes[name], categories[name] = _dictionary_encode(texts)
        schema.append(ColumnSpec(name=name, kind=kind, role=role))
    return LogTable(schema, codes, categories, values, len(row_lines))


# Rows transposed into columns at a time; transposing the whole file at once
# holds every row and every column in memory together.
_CSV_BLOCK_ROWS = 4096


def _read_csv(path):
    """(names, cells per column with None for an empty cell, file line of each row)."""
    row_lines = array("q")
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        end = 0
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaError("empty CSV file: missing header row")
            columns: list[list[str | None]] = [[] for _ in header]
            block: list[list[str]] = []
            end = reader.line_num
            for row in reader:
                # a quoted field may span lines: a row starts after the last one ended
                line_no, end = end + 1, reader.line_num
                if len(row) != len(header):
                    raise SchemaError(f"row {line_no}: expected {len(header)} fields, got {len(row)}")
                row_lines.append(line_no)
                block.append(row)
                if len(block) == _CSV_BLOCK_ROWS:
                    _append_rows(columns, block)
                    block = []
        except csv.Error as e:  # e.g. a field past csv.field_size_limit()
            raise SchemaError(f"row {end + 1}: {e}") from None
        _append_rows(columns, block)
    return list(header), columns, row_lines


def _append_rows(columns: list[list[str | None]], rows: list[list[str]]) -> None:
    for acc, cells in zip(columns, zip(*rows)):
        acc += [cell or None for cell in cells]


_NESTED = frozenset((dict, list))


def _read_jsonl(path, schema_config: SchemaConfig):
    """(names, cells per column with None for an absent or null field, file line of each row)."""
    records = []
    row_lines = array("q")
    keys = list(dict.fromkeys([*schema_config.columns, schema_config.kpi.column]))
    seen = set(keys)
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError as e:  # JSONDecodeError, or an integer too long to convert
                raise SchemaError(f"row {line_no}: invalid JSON ({getattr(e, 'msg', e)})") from None
            if not isinstance(obj, dict):
                raise SchemaError(f"row {line_no}: expected a flat JSON object")
            if not _NESTED.isdisjoint(map(type, obj.values())):
                k = next(k for k, v in obj.items() if type(v) in _NESTED)
                raise SchemaError(f"row {line_no}: field {k!r} is nested; flatten upstream")
            if not seen.issuperset(obj):
                new = [k for k in obj if k not in seen]
                seen.update(new)
                keys += new
            records.append(obj)
            row_lines.append(line_no)
    return keys, [[obj.get(k) for obj in records] for k in keys], row_lines


def _parse_continuous(name: str, col: list, row_lines, floats: np.ndarray | None) -> np.ndarray:
    """float64 values (None -> NaN) of a column, parsed unless `floats` already holds them."""
    if floats is None:
        try:
            floats = np.array(col, dtype=np.float64)
        except (ValueError, TypeError, OverflowError):
            for i, v in enumerate(col):
                if v is None:
                    continue
                try:
                    float(v)
                except OverflowError:
                    raise SchemaError(
                        f"row {row_lines[i]}: column {name!r} value {v!r} is not finite"
                    ) from None
                except (ValueError, TypeError):
                    raise SchemaError(
                        f"row {row_lines[i]}: column {name!r} declared continuous but "
                        f"value {v!r} is not numeric"
                    ) from None
            raise
    for i in np.flatnonzero(~np.isfinite(floats)).tolist():
        if col[i] is not None:
            raise SchemaError(f"row {row_lines[i]}: column {name!r} value {col[i]!r} is not finite")
    return floats


def _category_texts(name: str, col: list, row_lines) -> list[str | None]:
    """Each cell's category text; numbers take their shortest exact form."""
    try:
        return [format_number(v) if type(v) is float else v if v is None else str(v) for v in col]
    except (ValueError, OverflowError):
        # format_number cannot take a NaN or an infinity
        for i, v in enumerate(col):
            if type(v) is float and not math.isfinite(v):
                raise SchemaError(
                    f"row {row_lines[i]}: column {name!r} value {v!r} is not finite"
                ) from None
        raise


def write_csv(table: LogTable, path) -> None:
    """Write a table back out as CSV (missing cells -> empty)."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(table.column_names)
        cols = []
        for spec in table.schema:
            if spec.kind is ColumnKind.CATEGORICAL:
                cats = table.categories(spec.name)
                codes = table.codes(spec.name)
                cols.append([("" if c < 0 else cats[c]) for c in codes])
            else:
                cols.append(
                    ["" if np.isnan(v) else format_number(float(v)) for v in table.values(spec.name)]
                )
        for row in zip(*cols):
            writer.writerow(row)
