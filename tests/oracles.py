"""Independent brute-force oracles used to check the fast implementations.

Everything here is deliberately naive pure Python: entropy from the
definition, MSE as a two-pass mean of squared deviations, and best-split
search as full enumeration of every predicate with row-by-row evaluation.
Row-at-a-time views of a table, predicates and KPI criteria, and the
structural walks over trees live here too: only tests need them.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping

import numpy as np

from kpidiag.errors import SchemaError
from kpidiag.forest import ForestModel, TreeNode
from kpidiag.ingest import LogTable
from kpidiag.model import ColumnKind, KpiKind, KpiSpec, Predicate, PredicateOp, SloDirection


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
