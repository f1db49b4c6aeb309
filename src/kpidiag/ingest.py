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


# -- file loading --------------------------------------------------------

# Rows read and encoded at a time. A block's cells are the only per-cell
# Python objects alive, so a load peaks at about the table plus one block.
_BLOCK_ROWS = 4096
# What an undeclared column has held so far besides missing cells; any other mix is categorical.
_NUMBERS, _NUMERIC_TEXTS = "numbers", "numeric texts"


def load(path, format: str, schema_config: SchemaConfig) -> LogTable:
    """Load a CSV or JSONL file into a LogTable.

    Declared kinds from the config are authoritative; undeclared columns are
    inferred (all-numeric -> continuous, else categorical). Empty CSV cells
    and absent/null JSONL fields become missing. The KPI column and every
    declared column must be in the input (else a ConfigError); the KPI takes
    its kind from the KPI spec. A continuous cell that is
    not a finite number (`inf`, `nan`, JSON `NaN`/`Infinity`), or a JSON
    `NaN`/`Infinity` in a categorical column, is a SchemaError; errors name
    the file line ("row N") and the column.

    The file is encoded _BLOCK_ROWS rows at a time. A bad row fails at its
    line; a bad cell fails once the whole file is read, in the first column
    that has one. An undeclared column that turns categorical after a block
    of numbers has lost those cells, so the file is read once more.
    """
    if format not in ("csv", "jsonl"):
        raise ConfigError(f"unknown input format: {format!r}")
    columns, row_count = _encode(path, format, schema_config, frozenset())
    if flipped := frozenset(c.name for c in columns if c.flipped):
        del columns  # not held while the file is read again
        columns, row_count = _encode(path, format, schema_config, flipped)
    if error := next(filter(None, (c.parse_error or c.finite_error for c in columns)), None):
        raise SchemaError(error)
    schema, codes, categories, values = [], {}, {}, {}
    for c in columns:
        kind, col, cats = c.finish()
        if kind is ColumnKind.CONTINUOUS:
            values[c.name] = col
        else:
            codes[c.name], categories[c.name] = col, cats
        schema.append(ColumnSpec(name=c.name, kind=kind, role=c.role))
    return LogTable(schema, codes, categories, values, row_count)


def _encode(path, format: str, schema_config: SchemaConfig, categorical: frozenset):
    """(a _Column per column in file order, row count); `categorical` names columns taken as categorical."""
    kpi = schema_config.kpi
    blocks = _read_csv(path, schema_config) if format == "csv" else _read_jsonl(path, schema_config)
    columns: list[_Column] = []
    rows = 0
    for names, lines, cells in blocks:
        for name in names[len(columns):]:
            decl = schema_config.decl(name)
            kind = ColumnKind.CATEGORICAL if name in categorical else decl.kind
            role = decl.role
            if name == kpi.column:
                role = ColumnRole.KPI
                kind = ColumnKind.CONTINUOUS if kpi.kind is KpiKind.CONTINUOUS else ColumnKind.CATEGORICAL
            columns.append(_Column(name, kind, role, rows))
        for column, block in zip(columns, cells):
            column.add(block, lines)
        rows += len(lines)
    return columns, rows


class _Column:
    """One column's encoder, fed a block of cells at a time: float64 chunks,
    or int32 codes into one insertion-order dict (0 = missing) that finish()
    remaps to codes into the sorted categories. The first cell float()
    rejects (parse_error) wins over the first that is not finite."""

    def __init__(self, name: str, kind: ColumnKind | None, role: ColumnRole, missing: int):
        self.name, self.kind, self.role = name, kind, role
        self.state = None  # while undeclared and not categorical: None, _NUMBERS or _NUMERIC_TEXTS
        self.missing = missing  # leading rows, all missing, not yet in chunks
        self.chunks: list[np.ndarray] = []
        self.index: dict[str | None, int] = {None: 0}
        self.flipped = False  # turned categorical after a block of numbers
        self.parse_error = self.finite_error = None

    def add(self, cells: Sequence, lines: Sequence[int]) -> None:
        types = set(map(type, cells)) - {type(None)}
        if bool in types:
            cells = ["true" if v is True else "false" if v is False else v for v in cells]
            types = types - {bool} | {str}
        floats = None
        if self.kind is None and types:
            state = _NUMBERS if types <= {int, float} else _NUMERIC_TEXTS if types == {str} else None
            if state is _NUMERIC_TEXTS:
                try:
                    floats = np.array(cells, dtype=np.float64)
                except ValueError:
                    state = None
            if state is None or self.state not in (None, state):
                self.flipped = self.state is not None
                self.kind = ColumnKind.CATEGORICAL
            else:
                self.state = state
        kind = self.kind or (ColumnKind.CONTINUOUS if self.state else None)
        if self.flipped or kind is None:
            self.missing += len(cells)
            return
        continuous = kind is ColumnKind.CONTINUOUS
        if self.missing:
            self.chunks.append(np.full(self.missing, np.nan) if continuous else np.zeros(self.missing, np.int32))
            self.missing = 0
        if continuous:
            self.chunks.append(self._floats(cells, lines, floats))
        else:
            self._codes(cells if types <= {str} else self._texts(cells, lines))

    def _floats(self, cells: Sequence, lines: Sequence[int], floats: np.ndarray | None) -> np.ndarray:
        """float64 values (None -> NaN) of a block, parsed unless `floats` already holds them."""
        if floats is None:
            try:
                floats = np.array(cells, dtype=np.float64)
            except (ValueError, OverflowError):
                floats = np.array([self._float(v, line) for v, line in zip(cells, lines)])
        if self.finite_error is None:
            for i in np.flatnonzero(~np.isfinite(floats)).tolist():
                if cells[i] is not None:
                    self.finite_error = self._not_finite(lines[i], cells[i])
                    break
        return floats

    def _float(self, v, line: int) -> float:
        try:
            return math.nan if v is None else float(v)
        except OverflowError:
            self.parse_error = self.parse_error or self._not_finite(line, v)
        except ValueError:
            problem = f"row {line}: column {self.name!r} declared continuous but value {v!r} is not numeric"
            self.parse_error = self.parse_error or problem
        return math.nan

    def _texts(self, cells: Sequence, lines: Sequence[int]) -> list[str | None]:
        """Each cell's category text; numbers take their shortest exact form."""
        try:
            return [format_number(v) if type(v) is float else v if v is None else str(v) for v in cells]
        except (ValueError, OverflowError):  # format_number cannot take a NaN or an infinity
            i = next(i for i, v in enumerate(cells) if type(v) is float and not math.isfinite(v))
            self.finite_error = self.finite_error or self._not_finite(lines[i], cells[i])
            return [None] * len(cells)

    def _codes(self, texts: Sequence[str | None]) -> None:
        index = self.index
        new = [t for t in dict.fromkeys(texts) if t not in index]
        index.update(zip(new, range(len(index), len(index) + len(new))))
        self.chunks.append(np.fromiter(map(index.__getitem__, texts), dtype=np.int32, count=len(texts)))

    def finish(self) -> tuple[ColumnKind, np.ndarray, tuple[str, ...]]:
        """(kind, values or codes into the sorted categories, those categories)."""
        self.kind = self.kind or (ColumnKind.CONTINUOUS if self.state else ColumnKind.CATEGORICAL)
        self.add([], [])  # appends the leading missing rows if no block did
        col, self.chunks = np.concatenate(self.chunks), []
        if self.kind is ColumnKind.CONTINUOUS:
            return self.kind, col, ()
        cats = sorted(t for t in self.index if t is not None)
        rank = {None: -1} | dict(zip(cats, range(len(cats))))
        remap = np.fromiter(map(rank.__getitem__, self.index), dtype=np.int32, count=len(self.index))
        return self.kind, remap[col], tuple(cats)

    def _not_finite(self, line: int, v) -> str:
        return f"row {line}: column {self.name!r} value {v!r} is not finite"


def _read_csv(path, schema_config: SchemaConfig):
    """Per block: (column names, file line of each row, cells per column with None for an empty cell)."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        end = 0
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaError("empty CSV file: missing header row")
            if schema_config.kpi.column not in header:
                raise ConfigError(f"KPI column {schema_config.kpi.column!r} absent from input")
            if absent := [name for name in schema_config.columns if name not in header]:
                raise ConfigError(f"columns.{absent[0]}: the input has no column {absent[0]!r}")
            lines, rows, end = [], [], reader.line_num
            for row in reader:
                # a quoted field may span lines: a row starts after the last one ended
                line_no, end = end + 1, reader.line_num
                if len(row) != len(header):
                    raise SchemaError(f"row {line_no}: expected {len(header)} fields, got {len(row)}")
                lines.append(line_no)
                rows.append(row)
                if len(rows) == _BLOCK_ROWS:
                    yield header, lines, [[cell or None for cell in col] for col in zip(*rows)]
                    lines, rows = [], []
        except csv.Error as e:  # e.g. a field past csv.field_size_limit()
            raise SchemaError(f"row {end + 1}: {e}") from None
    yield header, lines, [[cell or None for cell in col] for col in zip(*rows)]


_NESTED = frozenset((dict, list))


def _read_jsonl(path, schema_config: SchemaConfig):
    """Per block: (keys so far, file line of each row, cells per key with None for absent or null)."""
    keys = list(dict.fromkeys([*schema_config.columns, schema_config.kpi.column]))
    seen = {schema_config.kpi.column}  # and every key some line carries
    lines, records = [], []
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
                seen.update(obj)
                keys += [k for k in obj if k not in keys]
            lines.append(line_no)
            records.append(obj)
            if len(records) == _BLOCK_ROWS:
                yield keys, lines, [[obj.get(k) for obj in records] for k in keys]
                lines, records = [], []
    if absent := [name for name in schema_config.columns if name not in seen]:
        raise ConfigError(f"columns.{absent[0]}: no line of the input has the key {absent[0]!r}")
    yield keys, lines, [[obj.get(k) for obj in records] for k in keys]


def write_csv(table: LogTable, path) -> None:
    """Write a table back out as CSV (missing cells -> empty)."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(table.column_names)
        cols = []
        for spec in table.schema:
            if spec.kind is ColumnKind.CATEGORICAL:
                cats = table.categories(spec.name)
                cols.append(["" if c < 0 else cats[c] for c in table.codes(spec.name)])
            else:
                cols.append(["" if np.isnan(v) else format_number(float(v)) for v in table.values(spec.name)])
        for row in zip(*cols):
            writer.writerow(row)
