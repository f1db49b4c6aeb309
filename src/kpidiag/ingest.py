"""Load structured logs into an in-memory columnar table.

Categorical columns are stored as int32 codes into a sorted category list
(-1 = missing); continuous columns as float64 arrays (NaN = missing). One
joined file per run: CSV (first row = header) or JSON lines (one flat
object per line). A schema config declares column kinds and roles and
names the KPI column; undeclared columns get inferred kinds.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import functools
import io
import itertools
import json
import math
import operator
import os
import stat
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, SchemaError
from .model import (
    ColumnKind,
    ColumnRole,
    ColumnSpec,
    KpiKind,
    Predicate,
    PredicateOp,
    SchemaConfig,
    format_number,
)


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

    def __repr__(self) -> str:
        return f"LogTable({len(self.schema)} columns, {self.row_count} rows)"


# -- file loading --------------------------------------------------------

# Rows read and encoded at a time. A block's cells are the only per-cell
# Python objects alive, so a load peaks at about the table plus one block.
_BLOCK_ROWS = 4096
# What an undeclared column has held so far besides missing cells; any other mix is categorical.
_NUMBERS, _NUMERIC_TEXTS = "numbers", "numeric texts"
# Bytes of input per worker below which a load stays in one process: a
# worker's fork, start and result transfer cost about what encoding this
# many bytes saves (see README).
_RANGE_BYTES = 1 << 20


def worker_count(units: int) -> int:
    """Processes to spread `units` independent pieces of work over: one per
    CPU this process may run on, at most one per unit, and one (in-process)
    where the OS cannot say which CPUs those are. Callers count as units
    only pieces large enough to repay a worker's start."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cpus, units))


_task = None  # forked_map's function while its pool runs; the workers inherit it


def _run_task(item):
    return _task(item)


def forked_map(fn, items, workers: int, consume):
    """consume(fn(item) for each item, in order): in this process for one
    worker, else in a `fork` pool (a spawned worker would import the package
    again) whose workers inherit fn and are sent only the items. The pool is
    closed and joined before this returns or raises."""
    global _task
    if workers == 1:
        return consume(map(fn, items))
    import multiprocessing  # here, not at module level: most runs start no pool

    _task = fn
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        try:
            return consume(pool.imap(_run_task, items, chunksize=1))
        finally:  # the with's terminate() alone could kill a worker holding the result queue's lock, and hang
            _task = None
            pool.close()
            pool.join()


def load(path, format: str, schema_config: SchemaConfig) -> LogTable:
    """Load a CSV or JSONL file into a LogTable.

    Declared kinds from the config are authoritative; undeclared columns are
    inferred (all-numeric -> continuous, else categorical). Empty CSV cells
    and absent/null JSONL fields become missing. The KPI column and every
    declared column must be in the input (else a ConfigError); the KPI takes
    its kind from the KPI spec. A continuous cell that is
    not a finite number (`inf`, `nan`, JSON `NaN`/`Infinity`), or a JSON
    `NaN`/`Infinity` in a categorical column, is a SchemaError; errors name
    the file line ("row N") and the column. So is a CSV header that repeats
    a name, before any row is read.

    The file is split at line ends into byte ranges, one per worker process,
    and each range is encoded _BLOCK_ROWS rows at a time; the table and any
    error are those of one reader going through the file in order. A bad row
    fails at its line; a bad cell fails once the whole file is read, in the
    first column that has one. An undeclared column that turns categorical
    after a block or range of numbers has lost those cells, so the file is
    read once more; a pipe cannot be, so there that is a SchemaError naming
    the column and the line where it turned. Bytes that are not UTF-8 are a
    SchemaError naming their line and offset in the file.
    """
    if format not in ("csv", "jsonl"):
        raise ConfigError(f"unknown input format: {format!r}")
    columns, row_count = _encode(path, format, schema_config, frozenset())
    if flipped := frozenset(c.name for c in columns if c.flipped):
        if not stat.S_ISREG(os.stat(path).st_mode):
            turned = min((c for c in columns if c.flipped), key=lambda c: c.flipped)
            raise SchemaError(
                f"row {turned.flipped}: column {turned.name!r} turns categorical after numbers, and "
                f"a pipe cannot be read again; declare the column's kind in the config"
            )
        del columns  # not held while the file is read again
        columns, row_count = _encode(path, format, schema_config, flipped)
    if error := next(filter(None, (c.parse_error or c.finite_error for c in columns)), None):
        raise SchemaError("row %d: %s" % error)
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
    """(a _Column per column in file order, row count) from one pass over the
    file; `categorical` names columns taken as categorical."""
    ranges = _ranges(path, format)
    encode = functools.partial(_encode_range, path, format, schema_config, categorical)
    return forked_map(encode, ranges, len(ranges), lambda parts: _merge(parts, schema_config, categorical))


def _ranges(path, format: str) -> list[tuple[int, int | None]]:
    """The file's byte ranges, one per worker, each ending at a line end. A
    CSV file that holds a quote is one range: a quoted field may span lines.
    So is a pipe, read as it comes: (0, None)."""
    status = os.stat(path)
    if not stat.S_ISREG(status.st_mode):
        return [(0, None)]
    size = status.st_size
    workers = worker_count(size // _RANGE_BYTES)
    cuts = [0]
    with open(path, "rb") as f:
        if workers > 1 and format == "csv" and any(b'"' in chunk for chunk in iter(lambda: f.read(1 << 20), b"")):
            workers = 1
        for i in range(1, workers):
            f.seek(max(size * i // workers, cuts[-1]))
            f.readline()
            if f.tell() < size:
                cuts.append(f.tell())
    return list(zip(cuts, cuts[1:] + [size]))


class _RowError(Exception):
    """A bad row: (its line counted from the start of its byte range, the problem)."""


@dataclass
class _Part:
    """One byte range's encoding: its columns in order of appearance, its row
    and line counts, and the column names its lines carry."""

    columns: list = field(default_factory=list)
    rows: int = 0
    lines: int = 0
    seen: set = field(default_factory=set)


def _column(name: str, schema_config: SchemaConfig, categorical: frozenset, missing: int):
    decl = schema_config.decl(name)
    kind = ColumnKind.CATEGORICAL if name in categorical else decl.kind
    role = decl.role
    kpi = schema_config.kpi
    if name == kpi.column:
        role = ColumnRole.KPI
        kind = ColumnKind.CONTINUOUS if kpi.kind is KpiKind.CONTINUOUS else ColumnKind.CATEGORICAL
    return _Column(name, kind, role, missing)


def _encode_range(path, format: str, schema_config: SchemaConfig, categorical: frozenset, span) -> _Part:
    part = _Part()
    read = _read_csv if format == "csv" else _read_jsonl
    for names, lines, cells, types in read(path, span, schema_config, part):
        for name in names[len(part.columns):]:
            part.columns.append(_column(name, schema_config, categorical, part.rows))
        for column, block, block_types in zip(part.columns, cells, types):
            column.add(block, lines, block_types)
        part.rows += len(lines)
    return part


def _merge(parts, schema_config: SchemaConfig, categorical: frozenset):
    """(the file's columns, row count) from its ranges' parts in file order;
    raises the first bad row, then a declared column no line carries."""
    columns: dict[str, _Column] = {}
    rows = lines = 0
    seen = set()
    try:
        for part in parts:
            for c in part.columns:
                if c.name not in columns:
                    columns[c.name] = _column(c.name, schema_config, categorical, rows)
            own = {c.name: c for c in part.columns}
            for name, column in columns.items():
                column.extend(own.get(name), part.rows, lines)
            rows, lines, seen = rows + part.rows, lines + part.lines, seen | part.seen
    except _RowError as e:
        raise SchemaError("row %d: %s" % (e.args[0] + lines, e.args[1])) from None
    if absent := [name for name in schema_config.columns if name not in seen]:
        # a CSV header without a declared column has failed already
        raise ConfigError(f"columns.{absent[0]}: no line of the input has the key {absent[0]!r}")
    return list(columns.values()), rows


class _Column:
    """One column's encoder, fed a block of cells at a time: float64 chunks,
    or int32 codes into one insertion-order dict (0 = missing) that finish()
    remaps to codes into the sorted categories. The first cell float()
    rejects (parse_error) wins over the first that is not finite; each
    error is (file line, problem)."""

    def __init__(self, name: str, kind: ColumnKind | None, role: ColumnRole, missing: int):
        self.name, self.kind, self.role = name, kind, role
        self.state = None  # while undeclared and not categorical: None, _NUMBERS or _NUMERIC_TEXTS
        self.missing = missing  # missing rows not yet in chunks, all after the chunks
        self.chunks: list[np.ndarray] = []
        self.index: dict[str | None, int] = {None: 0}
        self.flipped = None  # the line where it turned categorical after numbers
        self.parse_error = self.finite_error = None

    def add(self, cells: Sequence, lines: Sequence[int], types: set | None = None) -> None:
        """Encode a block; `types` is the set of its cells' types besides None, if known."""
        if types is None:
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
                if self.state is not None:
                    self.flipped = next(line for v, line in zip(cells, lines) if not self._fits(v))
                self.kind = ColumnKind.CATEGORICAL
            else:
                self.state = state
        kind = self.kind or (ColumnKind.CONTINUOUS if self.state else None)
        if self.flipped or kind is None:
            self.missing += len(cells)
            return
        continuous = kind is ColumnKind.CONTINUOUS
        self._pad(continuous)
        if continuous:
            self.chunks.append(self._floats(cells, lines, floats))
        else:
            self.chunks.append(self._intern(cells if types <= {str} else self._texts(cells, lines)))

    def extend(self, other: "_Column | None", rows: int, lines: int) -> None:
        """Append the next byte range, whose `rows` rows `other` encoded (None:
        no line of the range has this column) after `lines` file lines."""
        if other is None or not (other.chunks or other.flipped):
            self.missing += rows
            return
        for attr in ("parse_error", "finite_error"):
            if getattr(self, attr) is None and (error := getattr(other, attr)):
                setattr(self, attr, (error[0] + lines, error[1]))
        if other.flipped or self.chunks and (self.kind, self.state) != (other.kind, other.state):
            # where the other range turned, or else where it starts
            self.kind, self.flipped = ColumnKind.CATEGORICAL, self.flipped or lines + (other.flipped or 1)
        if self.flipped:
            return
        continuous = (other.kind or ColumnKind.CONTINUOUS) is ColumnKind.CONTINUOUS
        if not self.chunks:
            self.kind, self.state, self.index = other.kind, other.state, other.index
        self._pad(continuous)
        if continuous or other.index is self.index:
            self.chunks += other.chunks
            return
        remap = self._intern(other.index)
        self.chunks += [remap[codes] for codes in other.chunks]

    def _fits(self, v) -> bool:
        """Whether a cell is missing or of the undeclared column's state so far."""
        if v is None:
            return True
        if self.state is _NUMBERS:
            return type(v) in (int, float)
        if type(v) is not str:
            return False
        try:
            float(v)
        except ValueError:
            return False
        return True

    def _pad(self, continuous: bool) -> None:
        """Move the pending missing rows into chunks."""
        if self.missing:
            self.chunks.append(np.full(self.missing, np.nan) if continuous else np.zeros(self.missing, np.int32))
            self.missing = 0

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
            problem = f"column {self.name!r} declared continuous but value {v!r} is not numeric"
            self.parse_error = self.parse_error or (line, problem)
        return math.nan

    def _texts(self, cells: Sequence, lines: Sequence[int]) -> list[str | None]:
        """Each cell's category text; numbers take their shortest exact form."""
        try:
            return [format_number(v) if type(v) is float else v if v is None else str(v) for v in cells]
        except (ValueError, OverflowError):  # format_number cannot take a NaN or an infinity
            i = next(i for i, v in enumerate(cells) if type(v) is float and not math.isfinite(v))
            self.finite_error = self.finite_error or self._not_finite(lines[i], cells[i])
            return [None] * len(cells)

    def _intern(self, texts: Sequence[str | None]) -> np.ndarray:
        """The codes of `texts`, adding the texts not yet in the dict."""
        index = self.index
        new = [t for t in dict.fromkeys(texts) if t not in index]
        index.update(zip(new, range(len(index), len(index) + len(new))))
        return np.fromiter(map(index.__getitem__, texts), dtype=np.int32, count=len(texts))

    def finish(self) -> tuple[ColumnKind, np.ndarray, tuple[str, ...]]:
        """(kind, values or codes into the sorted categories, those categories)."""
        self.kind = self.kind or (ColumnKind.CONTINUOUS if self.state else ColumnKind.CATEGORICAL)
        self.add([], [])  # appends the pending missing rows
        col, self.chunks = np.concatenate(self.chunks), []
        if self.kind is ColumnKind.CONTINUOUS:
            return self.kind, col, ()
        cats = sorted(t for t in self.index if t is not None)
        rank = {None: -1} | dict(zip(cats, range(len(cats))))
        remap = np.fromiter(map(rank.__getitem__, self.index), dtype=np.int32, count=len(self.index))
        return self.kind, remap[col], tuple(cats)

    def _not_finite(self, line: int, v) -> tuple[int, str]:
        return line, f"column {self.name!r} value {v!r} is not finite"


class _Bytes(io.FileIO):
    """Bytes [start, end) of a file, or all of a pipe (end None), for a text
    stream to decode; counts the bytes and line ends it hands out."""

    handed = newlines = 0

    def __init__(self, path, span: tuple[int, int | None]):
        super().__init__(path)
        if span[0]:
            self.seek(span[0])
        self._size = None if span[1] is None else span[1] - span[0]

    def read(self, size: int = -1) -> bytes:
        if self._size is not None:
            left = self._size - self.handed
            size = left if size < 0 else min(size, left)
        data = super().read(size)
        self.handed += len(data)
        self.newlines += data.count(b"\n")
        return data


def _text(path, span: tuple[int, int | None], newline: str | None) -> io.TextIOWrapper:
    return io.TextIOWrapper(_Bytes(path, span), encoding="utf-8", newline=newline)


@contextlib.contextmanager
def _utf8(f: io.TextIOWrapper, start: int):
    """Reading f, a byte range's text from file offset `start`: bytes that are
    not UTF-8 are a _RowError naming their line and file offset."""
    try:
        yield
    except UnicodeDecodeError as e:  # e.object: the tail of the bytes f took in
        line = f.buffer.newlines - e.object.count(b"\n", e.start) + 1
        at = start + f.buffer.handed - len(e.object) + e.start
        raise _RowError(line, f"byte 0x{e.object[e.start]:02x} at offset {at} of the file is not UTF-8") from None


def _read_csv(path, span: tuple[int, int | None], schema_config: SchemaConfig, part: _Part):
    """Per block: (column names, line of each row counted from the range's
    start, cells per column with None for an empty cell). The first range
    reads and checks the header; a later one, of a file without quotes, takes
    it from the file's first line."""
    with _text(path, span, newline="") as f, _utf8(f, span[0]):
        reader = csv.reader(f)
        end = 0
        try:
            if span[0]:
                with _text(path, (0, span[0]), newline="") as head:
                    header = next(csv.reader(head))
            else:
                header = next(reader, None)
                if header is None:
                    raise SchemaError("empty CSV file: missing header row")
                if schema_config.kpi.column not in header:
                    raise ConfigError(f"KPI column {schema_config.kpi.column!r} absent from input")
                if absent := [name for name in schema_config.columns if name not in header]:
                    raise ConfigError(f"columns.{absent[0]}: the input has no column {absent[0]!r}")
                if len(set(header)) != len(header):
                    raise SchemaError("duplicate column names")
            part.seen = set(header)
            lines, rows, end = [], [], reader.line_num
            for row in reader:
                # a quoted field may span lines: a row starts after the last one ended
                line_no, end = end + 1, reader.line_num
                if len(row) != len(header):
                    raise _RowError(line_no, f"expected {len(header)} fields, got {len(row)}")
                lines.append(line_no)
                rows.append(row)
                if len(rows) == _BLOCK_ROWS:
                    yield header, lines, [[cell or None for cell in col] for col in zip(*rows)], _UNTYPED
                    lines, rows = [], []
        except csv.Error as e:  # e.g. a field past csv.field_size_limit()
            raise _RowError(end + 1, str(e)) from None
        part.lines = reader.line_num
    yield header, lines, [[cell or None for cell in col] for col in zip(*rows)], _UNTYPED


_UNTYPED = itertools.repeat(None)  # a CSV block's cell types: _Column.add finds them
_NESTED = frozenset((dict, list))


def _read_jsonl(path, span: tuple[int, int | None], schema_config: SchemaConfig, part: _Part):
    """Per block: (keys so far, line of each row counted from the range's
    start, cells per key with None for absent or null, each key's cell types)."""
    keys = list(dict.fromkeys([*schema_config.columns, schema_config.kpi.column]))
    part.seen = {schema_config.kpi.column}  # and every key some line carries
    lines, texts = [], []
    line_no = 0
    with _text(path, span, newline=None) as f, _utf8(f, span[0]):
        try:
            for line_no, line in enumerate(f, start=1):
                if line.strip():
                    lines.append(line_no)
                    texts.append(line)
                    if len(texts) == _BLOCK_ROWS:
                        yield _jsonl_block(texts, lines, keys, part.seen)
                        lines, texts = [], []
        except UnicodeDecodeError:  # comes after any bad line read before it
            list(map(_jsonl_object, texts, lines))
            raise
    part.lines = line_no
    yield _jsonl_block(texts, lines, keys, part.seen)


def _jsonl_block(texts: list[str], lines: list[int], keys: list[str], seen: set):
    """One block's (keys so far, lines, cells per key, each key's cell types
    besides None); a block _joined refuses is decoded line by line."""
    objects = _joined(texts) or list(map(_jsonl_object, texts, lines))
    for obj in objects:
        if not seen.issuperset(obj):
            seen.update(obj)
            keys += [k for k in obj if k not in keys]
    get = operator.itemgetter(*keys)
    try:
        cells = list(zip(*map(get, objects))) if len(keys) > 1 else [list(map(get, objects))]
    except KeyError:  # a line without some key
        cells = [[obj.get(k) for obj in objects] for k in keys]
    cells = cells or [[] for _ in keys]
    types = [set(map(type, column)) - {type(None)} for column in cells]
    if any(not _NESTED.isdisjoint(t) for t in types):
        list(map(_jsonl_object, texts, lines))  # raises at the first bad line
    return keys, lines, cells, types


def _joined(texts: list[str]) -> list[dict] | None:
    """The block's lines decoded as one JSON list, if it holds one object per
    line and every line starts with "{". A string cannot span a line end, so
    each object is then its line's own, unless some object holds a nested value."""
    if not all(text.lstrip().startswith("{") for text in texts):
        return None
    try:
        objects = json.loads("[" + ",".join(texts) + "]")
    except ValueError:  # JSONDecodeError, or an integer too long to convert
        return None
    return objects if len(objects) == len(texts) and all(type(obj) is dict for obj in objects) else None


def _jsonl_object(text: str, line_no: int) -> dict:
    """One line's flat object, or a _RowError naming the line."""
    try:
        obj = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an integer too long to convert
        raise _RowError(line_no, f"invalid JSON ({getattr(e, 'msg', e)})") from None
    if not isinstance(obj, dict):
        raise _RowError(line_no, "expected a flat JSON object")
    if not _NESTED.isdisjoint(map(type, obj.values())):
        k = next(k for k, v in obj.items() if type(v) in _NESTED)
        raise _RowError(line_no, f"field {k!r} is nested; flatten upstream")
    return obj


def write_csv(table: LogTable, path) -> None:
    """Write a table as `csv.writer` would (missing cells -> empty), _BLOCK_ROWS rows at a time."""
    for spec in table.schema:
        if spec.kind is ColumnKind.CONTINUOUS and np.isinf(table.values(spec.name)).any():
            raise SchemaError(f"column {spec.name!r} holds an infinite value, which a log file may not hold")
    fields = {s.name: np.array([*_csv_fields(table.categories(s.name)), ""], dtype=object)  # code -1 -> ""
              for s in table.schema if s.kind is ColumnKind.CATEGORICAL}
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerow(table.column_names)
        for start in range(0, table.row_count, _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            # a generator, so only zip holds the cells: they are freed before the text is encoded and written
            cols = (fields[s.name][table.codes(s.name)[rows]].tolist() if s.name in fields
                    else _number_fields(table.values(s.name)[rows]) for s in table.schema)
            f.write("".join([(",".join(cells) or '""') + "\r\n" for cells in zip(*cols)]))  # as csv quotes a lone ""


def _csv_fields(texts: Sequence[str]) -> list[str]:
    """Each text as `csv.writer` writes it beside other fields: quoted if it must be, else itself."""
    writer = csv.writer(buf := io.StringIO())
    ends = list(itertools.accumulate(writer.writerow((t, "")) for t in texts))
    data = buf.getvalue()
    return [t if b - a - 3 == len(t) else data[a:b - 3] for t, a, b in zip(texts, [0, *ends], ends)]


def _number_fields(values: np.ndarray) -> list[str]:
    """`format_number` of each value, "" for NaN."""
    fields = np.array(list(map(repr, values.tolist())), dtype=object)
    whole = (values == np.trunc(values)) & (np.abs(values) < 1e16)
    fields[whole] = list(map(str, values[whole].astype(np.int64).tolist()))
    fields[np.isnan(values)] = ""
    return fields.tolist()
