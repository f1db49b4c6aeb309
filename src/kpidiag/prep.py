"""Data preparation: imputation, pruning recommendations, stratification, sampling."""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
from .ingest import LogTable
from .model import (
    MISSING_CATEGORY,
    ColumnKind,
    ColumnRole,
    KpiKind,
    KpiSpec,
)


@dataclass(frozen=True)
class StratifiedTable:
    """Table plus per-row positive/negative labels from the KPI criterion."""

    table: LogTable
    labels: np.ndarray  # bool, True = positive (violating)
    positive_count: int
    negative_count: int


@dataclass(frozen=True)
class PruneRecommendation:
    attribute: str
    cardinality: int
    reason: str


def impute(table: LogTable) -> LogTable:
    """Replace every missing value.

    Categorical missing becomes the placeholder category; continuous missing
    becomes the column median of non-missing values (0 when the whole column
    is missing). Idempotent.
    """
    codes = {}
    categories = {}
    values = {}
    for spec in table.schema:
        name = spec.name
        if spec.kind is ColumnKind.CATEGORICAL:
            col = table.codes(name)
            cats = table.categories(name)
            if (col < 0).any():
                col, cats = _fill_categorical(col, cats)
            codes[name] = col
            categories[name] = cats
        else:
            col = table.values(name)
            nan = np.isnan(col)
            if nan.any():
                present = col[~nan]
                fill = float(np.median(present)) if present.size else 0.0
                col = np.where(nan, fill, col)
            values[name] = col
    return LogTable(table.schema, codes, categories, values, table.row_count)


def _fill_categorical(codes: np.ndarray, cats: tuple[str, ...]):
    pos = bisect.bisect_left(cats, MISSING_CATEGORY)
    if pos < len(cats) and cats[pos] == MISSING_CATEGORY:
        new_cats = cats
        new_codes = codes.copy()
    else:
        new_cats = cats[:pos] + (MISSING_CATEGORY,) + cats[pos:]
        new_codes = np.where(codes >= pos, codes + 1, codes).astype(np.int32)
    new_codes = np.where(codes < 0, np.int32(pos), new_codes).astype(np.int32)
    return new_codes, new_cats


def recommend_pruning(
    table: LogTable, max_cardinality: int = 10_000
) -> list[PruneRecommendation]:
    """Advisory list of feature columns that look unhelpful for diagnosis.

    Flags categorical features above the cardinality cap, any feature that is
    unique per row (identifier-like), and constant features. Flagged columns
    stay in play until the run config actually excludes them.
    """
    if max_cardinality < 1:
        raise ValueError("max_cardinality must be >= 1")
    out = []
    rows = table.row_count
    for spec in table.schema:
        if spec.role is not ColumnRole.FEATURE:
            continue
        if spec.kind is ColumnKind.CATEGORICAL:
            card = spec.observed_cardinality or 0
        else:
            col = table.values(spec.name)
            card = int(np.unique(col[~np.isnan(col)]).size)
        if rows >= 1 and card == 1:
            out.append(PruneRecommendation(spec.name, card, "constant"))
        elif rows > 1 and card == rows:
            out.append(PruneRecommendation(spec.name, card, "unique identifier"))
        elif spec.kind is ColumnKind.CATEGORICAL and card > max_cardinality:
            out.append(PruneRecommendation(spec.name, card, "high cardinality"))
    return out


def stratify(table: LogTable, kpi: KpiSpec) -> StratifiedTable:
    """Label every row positive (violating the objective) or negative."""
    spec = table.spec(kpi.column)
    if kpi.kind is KpiKind.CONTINUOUS:
        if spec.kind is not ColumnKind.CONTINUOUS:
            raise SchemaError(f"KPI column {kpi.column!r} is not continuous")
        vals = table.values(kpi.column)
        if np.isnan(vals).any():
            raise SchemaError(f"KPI column {kpi.column!r} has missing values; impute first")
        if kpi.direction.value == "above":
            labels = vals > kpi.threshold
        else:
            labels = vals < kpi.threshold
    else:
        if spec.kind is not ColumnKind.CATEGORICAL:
            raise SchemaError(f"KPI column {kpi.column!r} is not categorical")
        codes = table.codes(kpi.column)
        if (codes < 0).any():
            raise SchemaError(f"KPI column {kpi.column!r} has missing values; impute first")
        labels = table.category_mask(kpi.column, kpi.positive_label)
    positive = int(labels.sum())
    return StratifiedTable(table, labels, positive, table.row_count - positive)


def sample(
    stratified: StratifiedTable, kpi: KpiSpec, target_rows: int, seed: int
) -> LogTable:
    """Down-sample for training.

    Binary KPIs get a uniform random sample of target_rows rows (rates are
    population properties). Continuous KPIs get a stratified sample of up to
    target_rows/2 rows per stratum, taking a whole stratum when it is
    smaller. Deterministic under a fixed seed; row order is preserved.
    """
    if target_rows < 2:
        raise ValueError("target_rows must be >= 2")
    table = stratified.table
    n = table.row_count
    rng = np.random.default_rng(seed)
    if kpi.kind is KpiKind.BINARY:
        if target_rows >= n:
            return table
        chosen = rng.choice(n, size=target_rows, replace=False)
    else:
        per_stratum = target_rows // 2
        parts = []
        for idx in (np.flatnonzero(stratified.labels), np.flatnonzero(~stratified.labels)):
            if idx.size <= per_stratum:
                parts.append(idx)
            else:
                parts.append(rng.choice(idx, size=per_stratum, replace=False))
        chosen = np.concatenate(parts)
        if chosen.size == n:
            return table
    chosen.sort()
    return table.take(chosen)
