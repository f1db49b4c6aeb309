"""Independent brute-force oracles used to check the fast implementations.

Everything here is deliberately naive pure Python: entropy from the
definition, MSE as a two-pass mean of squared deviations, and best-split
search as full enumeration of every predicate with row-by-row evaluation.
Row-at-a-time views of a table, predicates and KPI criteria, the
structural walks over trees, a table built from Python lists, structural
equality of tables, a cell-by-cell file loader, a row-at-a-time CSV
writer, an evaluator for the generated SQL dialect, a one-node entry to
the forest's split search and a rule-at-a-time deduplication live here
too: only tests need them.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from kpidiag.errors import ConfigError, SchemaError
from kpidiag.forest import ForestModel, TreeNode, _TrainingData, _TreeSearch
from kpidiag.ingest import LogTable, SchemaConfig
from kpidiag.model import (
    ColumnKind,
    ColumnRole,
    ColumnSpec,
    KpiKind,
    KpiSpec,
    Predicate,
    PredicateOp,
    Rule,
    SloDirection,
    format_number,
)


def evaluate(p: Predicate, row: Mapping[str, object]) -> bool:
    """Evaluate a predicate on one row (a mapping attribute -> value, None = missing)."""
    if p.attribute not in row:
        raise SchemaError(f"attribute {p.attribute!r} absent from row")
    cell_value = row[p.attribute]
    if p.op is PredicateOp.EQUALS:
        base = cell_value is not None and cell_value == p.value
    else:
        if cell_value is None:
            raise SchemaError(f"attribute {p.attribute!r} is missing; impute before evaluating")
        base = float(cell_value) > p.value
    return base if p.polarity else not base


def is_positive(kpi: KpiSpec, value: object) -> bool:
    """Whether one KPI value violates the objective."""
    if kpi.kind is KpiKind.BINARY:
        return value == kpi.positive_label
    v = float(value)
    if kpi.direction is SloDirection.ABOVE:
        return v > kpi.threshold
    return v < kpi.threshold


def cell(table: LogTable, name: str, i: int) -> object:
    """One cell as a Python value: category text or float, None = missing."""
    if table.spec(name).kind is ColumnKind.CATEGORICAL:
        code = int(table.codes(name)[i])
        return None if code < 0 else table.categories(name)[code]
    v = float(table.values(name)[i])
    return None if np.isnan(v) else v


def row(table: LogTable, i: int) -> dict[str, object]:
    return {s.name: cell(table, s.name, i) for s in table.schema}


def iter_rows(table: LogTable) -> Iterator[dict[str, object]]:
    for i in range(table.row_count):
        yield row(table, i)


class QueryParseError(Exception):
    pass


_IDENT = r'([A-Za-z_][A-Za-z0-9_]*|"(?:[^"]|"")*")(?!")'
_HEAD = re.compile(r"SELECT\s+\*\s+FROM\s+" + _IDENT + r"\s+WHERE\s+")
_COND = re.compile(
    _IDENT + r"\s*(?:(=|<>)\s*'((?:[^']|'')*)'(?!')"
    r"|(>|<=)\s*([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?))"
)
_AND = re.compile(r"\s+AND\s+")


def _unquote(ident: str) -> str:
    return ident[1:-1].replace('""', '"') if ident.startswith('"') else ident


def execute_query(sql: str, table: LogTable) -> np.ndarray:
    """Parse `SELECT * FROM t WHERE c (AND c)*` and run it row by row; returns row indices.

    A condition is `ident = 'str'`, `ident <> 'str'`, `ident > num` or
    `ident <= num`; identifiers are bare or double-quoted, with doubled
    quotes as escapes in both quoted forms.
    """
    m = _HEAD.match(sql)
    if m is None:
        raise QueryParseError(f"not a filter query: {sql!r}")
    predicates = []
    while True:
        c = _COND.match(sql, m.end())
        if c is None:
            raise QueryParseError(f"bad condition at offset {m.end()}: {sql!r}")
        attr, eq, text, gt, number = c.groups()
        if eq:
            p = Predicate.equals(_unquote(attr), text.replace("''", "'"), eq == "=")
        else:
            p = Predicate.greater_than(_unquote(attr), float(number), gt == ">")
        predicates.append(p)
        if c.end() == len(sql):
            break
        m = _AND.match(sql, c.end())
        if m is None:
            raise QueryParseError(f"expected AND at offset {c.end()}: {sql!r}")
    hits = [i for i, r in enumerate(iter_rows(table)) if all(evaluate(p, r) for p in predicates)]
    return np.array(hits, dtype=np.intp)


def load_reference(path, format: str, schema_config: SchemaConfig) -> LogTable:
    """`ingest.load`, one cell at a time.

    Reads the file into rows of cells (None = missing), infers each
    undeclared column's kind, and parses or encodes every cell on its own.
    Raises the SchemaError `ingest.load` must raise first ("row N: column
    'X' ..."): per column in order, the first cell of a continuous column
    that is not a number (or is too large for a float), then the first
    that is not finite, and the first JSON NaN/infinity of a categorical one.
    Before those, a declared column that the CSV header or every JSON line
    lacks is the ConfigError `ingest.load` must raise.
    """
    rows, lines = [], []
    if format == "csv":
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.reader(f)
            names = next(reader)
            carried = set(names)
            end = reader.line_num
            for cells in reader:
                lines.append(end + 1)
                end = reader.line_num
                rows.append({n: (c if c != "" else None) for n, c in zip(names, cells)})
    else:
        names = list(schema_config.columns)
        if schema_config.kpi.column not in names:
            names.append(schema_config.kpi.column)
        carried = set()
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                obj = json.loads(line)
                row = {}
                for k, v in obj.items():
                    carried.add(k)
                    if k not in names:
                        names.append(k)
                    if isinstance(v, bool):
                        v = "true" if v else "false"
                    row[k] = v
                rows.append(row)
                lines.append(line_no)

    for name in schema_config.columns:
        if name not in carried:
            where = f"the input has no column {name!r}" if format == "csv" else f"no line of the input has the key {name!r}"
            raise ConfigError(f"columns.{name}: {where}")
    schema, codes, categories, values = [], {}, {}, {}
    kpi = schema_config.kpi
    for name in names:
        cells = [row.get(name) for row in rows]
        present = [v for v in cells if v is not None]
        kind = schema_config.decl(name).kind
        role = schema_config.decl(name).role
        if name == kpi.column:
            role = ColumnRole.KPI
            binary = kpi.kind is KpiKind.BINARY
            kind = ColumnKind.CATEGORICAL if binary else ColumnKind.CONTINUOUS
        if kind is None:
            kind = _reference_kind(present)

        def fail(i, problem):
            raise SchemaError(f"row {lines[i]}: column {name!r} value {cells[i]!r} {problem}")

        if kind is ColumnKind.CONTINUOUS:
            parsed = []
            for i, v in enumerate(cells):
                try:
                    parsed.append(math.nan if v is None else float(v))
                except OverflowError:
                    fail(i, "is not finite")
                except ValueError:
                    fail(i, "is not numeric")
            for i, v in enumerate(cells):
                if v is not None and not math.isfinite(parsed[i]):
                    fail(i, "is not finite")
            values[name] = np.array(parsed, dtype=np.float64)
        else:
            texts = []
            for i, v in enumerate(cells):
                if isinstance(v, float) and not math.isfinite(v):
                    fail(i, "is not finite")
                if isinstance(v, float):
                    v = format_number(v)
                texts.append(None if v is None else str(v))
            codes[name], categories[name] = _dictionary_encode(texts)
        schema.append(ColumnSpec(name, kind, role))
    return LogTable(schema, codes, categories, values, len(rows))


def write_csv_reference(table: LogTable, path) -> None:
    """`ingest.write_csv`, one row at a time through `csv.writer`."""
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


def _reference_kind(present: list) -> ColumnKind:
    """All numbers, or all strings that parse as numbers: continuous."""
    if present and all(isinstance(v, (int, float)) for v in present):
        return ColumnKind.CONTINUOUS
    if present and all(isinstance(v, str) for v in present):
        try:
            for v in present:
                float(v)
        except ValueError:
            return ColumnKind.CATEGORICAL
        return ColumnKind.CONTINUOUS
    return ColumnKind.CATEGORICAL


def _dictionary_encode(texts: Sequence[str | None]) -> tuple[np.ndarray, tuple[str, ...]]:
    """int32 codes into the sorted distinct texts (None = missing = -1)."""
    cats = sorted({t for t in texts if t is not None})
    position = {c: i for i, c in enumerate(cats)}
    return np.array([-1 if t is None else position[t] for t in texts], dtype=np.int32), tuple(cats)


def table_from_columns(
    schema: Sequence[ColumnSpec], data: Mapping[str, Sequence[object]]
) -> LogTable:
    """Build from per-column Python sequences (None = missing)."""
    codes: dict[str, np.ndarray] = {}
    categories: dict[str, tuple[str, ...]] = {}
    values: dict[str, np.ndarray] = {}
    row_count = len(next(iter(data.values()))) if data else 0
    for spec in schema:
        col = data[spec.name]
        if spec.kind is ColumnKind.CATEGORICAL:
            texts = [v if v is None else str(v) for v in col]
            codes[spec.name], categories[spec.name] = _dictionary_encode(texts)
        else:
            values[spec.name] = np.array(col, dtype=np.float64)
    return LogTable(schema, codes, categories, values, row_count)


def table_state(table: LogTable) -> tuple:
    """All a table holds, as a value `==` compares: its schema, its row count,
    and each column's categories and codes, or its values (NaN as None)."""
    columns = [
        (table.categories(s.name), table.codes(s.name).tolist()) if s.kind is ColumnKind.CATEGORICAL
        else [None if math.isnan(v) else v for v in table.values(s.name).tolist()]
        for s in table.schema
    ]
    return table.schema, table.row_count, columns


def forest_structure_equal(a: ForestModel, b: ForestModel) -> bool:
    """Structural equality: kinds, predicates, counts, and metrics."""
    if a.target_kind is not b.target_kind or len(a.trees) != len(b.trees):
        return False

    def node_eq(x: TreeNode, y: TreeNode) -> bool:
        if x.row_count != y.row_count or x.metric != y.metric or x.split != y.split:
            return False
        if x.is_leaf:
            return y.is_leaf
        return node_eq(x.left, y.left) and node_eq(x.right, y.right)

    return all(node_eq(x, y) for x, y in zip(a.trees, b.trees))


@dataclass(frozen=True)
class SplitCandidate:
    predicate: Predicate
    gain: float


def best_split(
    table: LogTable,
    labels_or_target: np.ndarray,
    min_rows_in_leaf: int = 1,
    idx: np.ndarray | None = None,
) -> SplitCandidate | None:
    """The training core's best split of one node over the table's feature
    columns; the node holds the rows idx (all rows by default)."""
    y = np.asarray(labels_or_target)
    if idx is not None:
        rows = np.sort(idx)
        table, y = table.take(rows), y[rows]
    if table.row_count == 0:
        raise ValueError("best_split on an empty node")
    features = [s.name for s in table.feature_columns()]
    search = _TreeSearch(_TrainingData(table, features, y, min_rows_in_leaf), features)
    hist = search.count(np.arange(table.row_count), search.td.y)
    found = search.split(hist, table.row_count, float(search.td.y.sum()))
    return None if found is None else SplitCandidate(found[1], found[0])


def deduplicate(rules: Sequence[Rule]) -> list[Rule]:
    """`rules.deduplicate` as one pass over the rules in order: a later rule
    replaces its key's rule when its (score, request count) is higher, or
    equal with a lexicographically smaller scope."""

    def scope(rule: Rule) -> tuple:
        return tuple((p.attribute, p.op.value, str(p.value), p.polarity) for p in rule.scope_predicates)

    best: dict[str, Rule] = {}
    for rule in rules:
        cur = best.get(rule.key())
        if cur is None:
            best[rule.key()] = rule
            continue
        new, old = (rule.correlation_score, rule.request_count), (cur.correlation_score, cur.request_count)
        if new > old or (new == old and scope(rule) < scope(cur)):
            best[rule.key()] = rule
    return sorted(best.values(), key=lambda r: (-r.correlation_score, r.key()))


def iter_split_nodes(tree: TreeNode) -> Iterator[TreeNode]:
    """Every split node of a tree, preorder."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.split is not None:
            yield node
            stack.append(node.right)
            stack.append(node.left)


def oracle_entropy(labels: list[bool]) -> float:
    n = len(labels)
    pos = sum(labels)
    h = 0.0
    for c in (pos, n - pos):
        if 0 < c < n:
            h -= (c / n) * math.log2(c / n)
    return h


def oracle_information_gain(labels: list[bool], mask: list[bool]) -> float:
    n = len(labels)
    parent = oracle_entropy(labels)
    children = 0.0
    for side in (True, False):
        part = [y for y, m in zip(labels, mask) if m == side]
        if part:
            children += (len(part) / n) * oracle_entropy(part)
    return parent - children


def oracle_mse(values: list[float]) -> float:
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values) / len(values)


def oracle_mse_reduction(targets: list[float], mask: list[bool]) -> float:
    n = len(targets)
    parent = oracle_mse(targets)
    children = 0.0
    for side in (True, False):
        part = [y for y, m in zip(targets, mask) if m == side]
        if part:
            children += (len(part) / n) * oracle_mse(part)
    return parent - children


def enumerate_predicates(rows: list[dict], features: list[tuple[str, str]]):
    """Every candidate: one equality per distinct categorical value, one
    threshold per distinct-value cut of each continuous feature.

    Any threshold in [a, b) yields the same partition as the midpoint
    between adjacent values a < b, so cutting at a is equivalent.
    """
    for name, kind in features:
        vals = [r[name] for r in rows]
        if kind == "cat":
            for v in sorted(set(vals)):
                yield Predicate.equals(name, v)
        else:
            distinct = sorted(set(vals))
            for cut in distinct[:-1]:
                yield Predicate.greater_than(name, cut)


def oracle_best_gain(
    rows: list[dict],
    y: list,
    features: list[tuple[str, str]],
    min_rows: int,
    classification: bool,
) -> float | None:
    """Max gain over every valid predicate, or None when no candidate helps."""
    n = len(rows)
    best = None
    for p in enumerate_predicates(rows, features):
        mask = [evaluate(p, r) for r in rows]
        n_left = sum(mask)
        if n_left < min_rows or n - n_left < min_rows:
            continue
        if classification:
            gain = oracle_information_gain(y, mask)
        else:
            gain = oracle_mse_reduction(y, mask)
        if best is None or gain > best:
            best = gain
    if best is None or best <= 0:
        return None
    return best
