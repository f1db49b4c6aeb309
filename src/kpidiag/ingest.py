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
from array import array
from dataclasses import dataclass, field, replace
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
        final_schema = []
        for spec in schema:
            if spec.kind is ColumnKind.CATEGORICAL:
                col = self._codes[spec.name]
                if col.shape != (row_count,):
                    raise SchemaError(f"column {spec.name!r} length != row count")
                card = _distinct_codes(col, len(self._categories[spec.name]))
                final_schema.append(replace(spec, observed_cardinality=card))
            else:
                col = self._values[spec.name]
                if col.shape != (row_count,):
                    raise SchemaError(f"column {spec.name!r} length != row count")
                final_schema.append(replace(spec, observed_cardinality=None))
        self.schema: tuple[ColumnSpec, ...] = tuple(final_schema)
        self._by_name = {s.name: s for s in self.schema}
        if len(self._by_name) != len(self.schema):
            raise SchemaError("duplicate column names")
        kpi_cols = [s for s in self.schema if s.role is ColumnRole.KPI]
        if len(kpi_cols) > 1:
            raise SchemaError("more than one KPI column")

    @classmethod
    def from_columns(
        cls,
        schema: Sequence[ColumnSpec],
        data: Mapping[str, Sequence[object]],
    ) -> "LogTable":
        """Build from per-column Python sequences (None = missing)."""
        codes: dict[str, np.ndarray] = {}
        categories: dict[str, tuple[str, ...]] = {}
        values: dict[str, np.ndarray] = {}
        row_count = len(next(iter(data.values()))) if data else 0
        for spec in schema:
            col = data[spec.name]
            if spec.kind is ColumnKind.CATEGORICAL:
                texts = ["" if v is None else str(v) for v in col]
                missing = np.array([v is None for v in col], dtype=bool)
                codes[spec.name], categories[spec.name] = _encode_categorical(texts, missing)
            else:
                values[spec.name] = _encode_continuous(col)
        return cls(schema, codes, categories, values, row_count)

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

    def kpi_column(self) -> ColumnSpec | None:
        for s in self.schema:
            if s.role is ColumnRole.KPI:
                return s
        return None

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


def _encode_categorical(
    texts: Sequence[str], missing: np.ndarray
) -> tuple[np.ndarray, tuple[str, ...]]:
    """int32 codes into the sorted distinct texts of the present cells (-1 = missing)."""
    codes = np.full(len(texts), -1, dtype=np.int32)
    if missing.all():
        return codes, ()
    cats, inverse = np.unique(np.array(texts, dtype=object)[~missing], return_inverse=True)
    codes[~missing] = inverse
    return codes, tuple(str(c) for c in cats)


def _encode_continuous(col: Sequence[object]) -> np.ndarray:
    return np.array([np.nan if v is None else float(v) for v in col], dtype=np.float64)


def _distinct_codes(codes: np.ndarray, n_categories: int) -> int:
    present = codes[codes >= 0]
    if present.size == 0:
        return 0
    if n_categories and present.size > n_categories:
        return int(np.count_nonzero(np.bincount(present, minlength=n_categories)))
    return int(np.unique(present).size)


# -- file loading --------------------------------------------------------


def load(path, format: str, schema_config: SchemaConfig) -> LogTable:
    """Load a CSV or JSONL file into a LogTable.

    Declared kinds from the config are authoritative; undeclared columns are
    inferred (all-numeric -> continuous, else categorical). Empty CSV cells
    and absent/null JSONL fields become missing. The KPI column must be
    present and takes its kind from the KPI spec. A continuous cell that is
    not a finite number (`inf`, `nan`, JSON `NaN`/`Infinity`) is a
    SchemaError; errors name the file line ("row N") and the column.
    """
    if format == "csv":
        names, raw_columns, missing, row_lines = _read_csv(path)
    elif format == "jsonl":
        names, raw_columns, missing, row_lines = _read_jsonl(path, schema_config)
    else:
        raise ConfigError(f"unknown input format: {format!r}")

    kpi = schema_config.kpi
    if kpi.column not in names:
        raise ConfigError(f"KPI column {kpi.column!r} absent from input")

    schema: list[ColumnSpec] = []
    codes: dict[str, np.ndarray] = {}
    categories: dict[str, tuple[str, ...]] = {}
    values: dict[str, np.ndarray] = {}
    row_count = len(raw_columns[names[0]]) if names else 0

    for name in names:
        decl = schema_config.decl(name)
        kind = decl.kind
        role = decl.role
        if name == kpi.column:
            role = ColumnRole.KPI
            kind = ColumnKind.CONTINUOUS if kpi.kind is KpiKind.CONTINUOUS else ColumnKind.CATEGORICAL
        raw = raw_columns[name]
        miss = missing[name]
        if kind is None:
            kind = _infer_kind(raw, miss)
        if kind is ColumnKind.CONTINUOUS:
            values[name] = _parse_continuous(name, raw, miss, row_lines)
        else:
            texts = [_categorical_text(v) for v in raw]
            codes[name], categories[name] = _encode_categorical(texts, miss)
        schema.append(ColumnSpec(name=name, kind=kind, role=role))
    return LogTable(schema, codes, categories, values, row_count)


def _read_csv(path):
    """(names, raw cells per column, missing masks, file line of each row)."""
    row_lines = array("q")
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty CSV file: missing header row") from None
        columns: list[list[str]] = [[] for _ in header]
        end = reader.line_num
        for row in reader:
            # a quoted field may span lines: a row starts after the last one ended
            line_no, end = end + 1, reader.line_num
            if len(row) != len(header):
                raise SchemaError(
                    f"row {line_no}: expected {len(header)} fields, got {len(row)}"
                )
            row_lines.append(line_no)
            for acc, cell in zip(columns, row):
                acc.append(cell)
    raw = {name: col for name, col in zip(header, columns)}
    missing = {
        name: np.array([cell == "" for cell in col], dtype=bool)
        for name, col in raw.items()
    }
    return list(header), raw, missing, row_lines


def _read_jsonl(path, schema_config: SchemaConfig):
    records = []
    row_lines = array("q")
    keys: list[str] = [n for n in schema_config.columns]
    if schema_config.kpi.column not in keys:
        keys.append(schema_config.kpi.column)
    seen = set(keys)
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise SchemaError(f"row {line_no}: invalid JSON ({e.msg})") from None
            if not isinstance(obj, dict):
                raise SchemaError(f"row {line_no}: expected a flat JSON object")
            for k, v in obj.items():
                if isinstance(v, (dict, list)):
                    raise SchemaError(f"row {line_no}: field {k!r} is nested; flatten upstream")
                if k not in seen:
                    seen.add(k)
                    keys.append(k)
            records.append(obj)
            row_lines.append(line_no)
    raw: dict[str, list] = {k: [] for k in keys}
    missing: dict[str, list[bool]] = {k: [] for k in keys}
    for obj in records:
        for k in keys:
            v = obj.get(k)
            if v is None:
                raw[k].append("")
                missing[k].append(True)
            else:
                if isinstance(v, bool):
                    v = "true" if v else "false"
                raw[k].append(v)
                missing[k].append(False)
    return keys, raw, {k: np.array(m, dtype=bool) for k, m in missing.items()}, row_lines


def _infer_kind(raw: list, miss: np.ndarray) -> ColumnKind:
    present = [v for v, m in zip(raw, miss) if not m]
    if not present:
        return ColumnKind.CATEGORICAL
    if all(isinstance(v, (int, float)) for v in present):
        return ColumnKind.CONTINUOUS
    if any(not isinstance(v, str) for v in present):
        return ColumnKind.CATEGORICAL
    try:
        np.array(present, dtype=np.float64)
    except ValueError:
        return ColumnKind.CATEGORICAL
    return ColumnKind.CONTINUOUS


def _parse_continuous(name: str, raw: list, miss: np.ndarray, row_lines) -> np.ndarray:
    out = np.full(len(raw), np.nan, dtype=np.float64)
    try:
        out[~miss] = np.array([v for v, m in zip(raw, miss) if not m], dtype=np.float64)
    except (ValueError, TypeError):
        for i, (v, m) in enumerate(zip(raw, miss)):
            if m:
                continue
            try:
                float(v)
            except (ValueError, TypeError):
                raise SchemaError(
                    f"row {row_lines[i]}: column {name!r} declared continuous but "
                    f"value {v!r} is not numeric"
                ) from None
        raise
    bad = np.flatnonzero(~(np.isfinite(out) | miss))
    if bad.size:
        i = int(bad[0])
        raise SchemaError(f"row {row_lines[i]}: column {name!r} value {raw[i]!r} is not finite")
    return out


def _categorical_text(v: object) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, float):
        return format_number(v)
    return str(v)


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
