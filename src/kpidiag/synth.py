"""Synthetic log generator with planted faults and an exact truth manifest.

Rows are drawn independently per attribute; the KPI is drawn from a base
distribution, then every row matching an active fault trigger gets the
fault's degraded effect (an additive shift or multiplier for a latency-style
KPI, an elevated failure probability for a binary KPI). The manifest records
each active fault's canonical predicate keys and its realized KPI impact on
the generated table, which is what a correct diagnosis should recover.
"""

from __future__ import annotations

import datetime
import json
import statistics
from dataclasses import dataclass

import numpy as np

from . import prep
from .errors import ConfigError, SchemaError
from .ingest import LogTable
from .model import (
    ColumnKind,
    ColumnRole,
    ColumnSpec,
    KpiKind,
    Predicate,
    PredicateOp,
    canonical_key,
)

# Row multiple above which every configured category is guaranteed to appear.
EXACT_CARDINALITY_FACTOR = 10


@dataclass(frozen=True)
class AttributeSpec:
    """One generated feature column.

    Categorical: `cardinality` distinct values named c0000..; `weighting`
    is "uniform" or "zipf" (probability ~ 1/rank^zipf_s). Continuous:
    `distribution` is "lognormal"/"normal" (loc=mu, scale=sigma) or
    "uniform" (loc=low, scale=width).
    """

    name: str
    kind: ColumnKind
    cardinality: int = 0
    weighting: str = "uniform"
    distribution: str = "lognormal"
    loc: float = 0.0
    scale: float = 1.0
    zipf_s: float = 1.5

    def __post_init__(self):
        if self.kind is ColumnKind.CATEGORICAL and self.cardinality < 1:
            raise ConfigError(f"attribute {self.name!r} needs cardinality >= 1")

    def value(self, i: int) -> str:
        """Name of the i-th category (categories sort in index order)."""
        width = max(1, len(str(self.cardinality - 1)))
        return f"c{i:0{width}d}"

    def categories(self) -> tuple[str, ...]:
        return tuple(self.value(i) for i in range(self.cardinality))


@dataclass(frozen=True)
class KpiProfile:
    """Base (fault-free) distribution of the KPI column."""

    column: str
    kind: KpiKind
    mu: float = 0.0
    sigma: float = 1.0
    failure_rate: float = 0.001
    positive_label: str = "fail"
    negative_label: str = "success"


@dataclass(frozen=True)
class FaultSpec:
    """A planted degradation applied to rows matching the trigger conjunction."""

    trigger: tuple[Predicate, ...]
    shift: float | None = None
    multiplier: float | None = None
    failure_probability: float | None = None
    first_day: datetime.date | None = None
    last_day: datetime.date | None = None

    def __post_init__(self):
        effects = [
            e for e in (self.shift, self.multiplier, self.failure_probability) if e is not None
        ]
        if len(effects) != 1:
            raise ConfigError("a fault needs exactly one effect")
        if self.shift is not None and self.shift <= 0:
            raise ConfigError("a latency shift must strictly degrade (shift > 0)")
        if self.multiplier is not None and self.multiplier <= 1:
            raise ConfigError("a latency multiplier must strictly degrade (> 1)")
        if self.failure_probability is not None and not (
            0 < self.failure_probability <= 1
        ):
            raise ConfigError("failure probability must be in (0, 1]")

    def active_on(self, day: datetime.date) -> bool:
        if self.first_day is not None and day < self.first_day:
            return False
        if self.last_day is not None and day > self.last_day:
            return False
        return True

    def keys(self) -> list[str]:
        return [canonical_key(p) for p in self.trigger]


@dataclass(frozen=True)
class GeneratorConfig:
    attributes: tuple[AttributeSpec, ...]
    row_count: int
    kpi: KpiProfile
    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0


def slo_threshold(kpi: KpiProfile, violation_rate: float = 0.001) -> float:
    """Continuous-KPI threshold leaving the given fault-free violation rate."""
    z = statistics.NormalDist().inv_cdf(1.0 - violation_rate)
    return float(np.exp(kpi.mu + z * kpi.sigma))


def generate(
    cfg: GeneratorConfig, day: datetime.date
) -> tuple[LogTable, dict]:
    """Draw one day of logs; returns the table and the truth manifest."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.row_count

    codes: dict[str, np.ndarray] = {}
    categories: dict[str, tuple[str, ...]] = {}
    values: dict[str, np.ndarray] = {}
    schema: list[ColumnSpec] = []

    for attr in cfg.attributes:
        if attr.kind is ColumnKind.CATEGORICAL:
            codes[attr.name] = _draw_categorical(attr, n, rng)
            categories[attr.name] = attr.categories()
        else:
            values[attr.name] = _draw_continuous(attr, n, rng)
        schema.append(ColumnSpec(attr.name, attr.kind, ColumnRole.FEATURE))

    features = LogTable(schema, codes, categories, values, n)
    active = [f for f in cfg.faults if f.active_on(day)]
    fault_masks = [_trigger_mask(f, features) for f in active]

    kpi = cfg.kpi
    if kpi.kind is KpiKind.CONTINUOUS:
        kpi_vals = rng.lognormal(mean=kpi.mu, sigma=kpi.sigma, size=n)
        for fault, mask in zip(active, fault_masks):
            if fault.shift is not None:
                kpi_vals[mask] += fault.shift
            else:
                kpi_vals[mask] *= fault.multiplier
        values[kpi.column] = kpi_vals
        schema.append(ColumnSpec(kpi.column, ColumnKind.CONTINUOUS, ColumnRole.KPI))
        observed = kpi_vals
    else:
        prob = np.full(n, kpi.failure_rate)
        for fault, mask in zip(active, fault_masks):
            if fault.failure_probability is None:
                raise ConfigError("binary KPI faults need a failure_probability effect")
            if fault.failure_probability <= kpi.failure_rate:
                raise ConfigError(
                    "fault failure probability must exceed the base failure rate"
                )
            prob[mask] = np.maximum(prob[mask], fault.failure_probability)
        observed = rng.random(n) < prob  # whether each row is positive
        labels = sorted((kpi.positive_label, kpi.negative_label))
        pos_code = labels.index(kpi.positive_label)
        codes[kpi.column] = np.where(observed, pos_code, 1 - pos_code).astype(np.int32)
        categories[kpi.column] = tuple(labels)
        schema.append(ColumnSpec(kpi.column, ColumnKind.CATEGORICAL, ColumnRole.KPI))

    table = LogTable(schema, codes, categories, values, n)

    fault_entries = []
    for fault, mask in zip(active, fault_masks):
        impact = prep.impact(observed, mask)
        fault_entries.append(
            {
                "keys": fault.keys(),
                "predicates": [p.text() for p in fault.trigger],
                "rows_matched": int(mask.sum()),
                "expected_impact": 0.0 if impact is None else impact,
            }
        )
    degraded = np.zeros(n, dtype=bool)
    for mask in fault_masks:
        degraded |= mask
    manifest = {
        "day": day.isoformat(),
        "row_count": n,
        "kpi_column": kpi.column,
        "kpi_kind": kpi.kind.value,
        "degraded_rows": int(degraded.sum()),
        "faults": fault_entries,
    }
    return table, manifest


def _draw_categorical(attr: AttributeSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    k = attr.cardinality
    if attr.weighting == "uniform":
        drawn = rng.integers(0, k, size=n)
    elif attr.weighting == "zipf":
        weights = 1.0 / np.power(np.arange(1, k + 1), attr.zipf_s)
        weights /= weights.sum()
        drawn = rng.choice(k, size=n, p=weights)
    else:
        raise ConfigError(f"unknown categorical weighting {attr.weighting!r}")
    drawn = drawn.astype(np.int32)
    if n >= EXACT_CARDINALITY_FACTOR * k:
        present = np.bincount(drawn, minlength=k) > 0
        absent = np.flatnonzero(~present)
        if absent.size:
            # overwrite a few random rows so the configured cardinality is exact
            spots = rng.choice(n, size=absent.size, replace=False)
            drawn[spots] = absent.astype(np.int32)
    return drawn


def _draw_continuous(attr: AttributeSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    if attr.distribution == "lognormal":
        return rng.lognormal(mean=attr.loc, sigma=attr.scale, size=n)
    if attr.distribution == "normal":
        return rng.normal(loc=attr.loc, scale=attr.scale, size=n)
    if attr.distribution == "uniform":
        return rng.uniform(attr.loc, attr.loc + attr.scale, size=n)
    raise ConfigError(f"unknown continuous distribution {attr.distribution!r}")


def _trigger_mask(fault: FaultSpec, features: LogTable) -> np.ndarray:
    """Rows matching the fault's trigger, after checking it against the generated columns."""
    try:
        mask = features.conjunction_mask(fault.trigger)
    except SchemaError as e:
        raise ConfigError(f"fault trigger: {e}") from None
    for p in fault.trigger:
        if p.op is PredicateOp.EQUALS and p.value not in features.categories(p.attribute):
            raise ConfigError(
                f"trigger value {p.value!r} outside the generated categories of {p.attribute!r}"
            )
    return mask


def manifest_keys(manifest: dict) -> set[str]:
    """All canonical predicate keys across the manifest's active faults."""
    return set().union(*(fault["keys"] for fault in manifest.get("faults", [])))


def write_manifest(manifest: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, ensure_ascii=False)
        f.write("\n")
