"""Shared domain types: column schemas, predicates, KPI criteria, rules, and
the synthetic generator's config.

Everything here is immutable after construction and safe to share between
threads. Predicates are the unit of diagnosis: a boolean test on one log
attribute, either an equality test on a categorical value or a strict
greater-than test on a continuous threshold.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from .errors import ConfigError, SchemaError

# Placeholder category substituted for missing categorical cells during
# imputation. It is an ordinary category afterwards: predicates may
# legitimately test `attr = <EMPTY>`.
MISSING_CATEGORY = "<EMPTY>"


class ColumnKind(Enum):
    CATEGORICAL = "categorical"
    CONTINUOUS = "continuous"


class ColumnRole(Enum):
    FEATURE = "feature"
    KPI = "kpi"
    EXCLUDED = "excluded"


@dataclass(frozen=True)
class ColumnSpec:
    """Per-attribute schema entry."""

    name: str
    kind: ColumnKind
    role: ColumnRole = ColumnRole.FEATURE


class PredicateOp(Enum):
    EQUALS = "eq"
    GREATER_THAN = "gt"


@dataclass(frozen=True)
class Predicate:
    """Boolean test on one attribute.

    EQUALS applies to categorical attributes (value is the category);
    GREATER_THAN applies to continuous attributes (value is the threshold,
    strict comparison: ties go to the false branch). polarity=False inverts
    the base test, so `GREATER_THAN, polarity=False` reads as `attr <= t`.
    """

    attribute: str
    op: PredicateOp
    value: str | float
    polarity: bool = True

    @staticmethod
    def equals(attribute: str, category: str, polarity: bool = True) -> "Predicate":
        return Predicate(attribute, PredicateOp.EQUALS, category, polarity)

    @staticmethod
    def greater_than(attribute: str, threshold: float, polarity: bool = True) -> "Predicate":
        return Predicate(attribute, PredicateOp.GREATER_THAN, float(threshold), polarity)

    def flip(self) -> "Predicate":
        """Same test, inverted polarity."""
        return Predicate(self.attribute, self.op, self.value, not self.polarity)

    def text(self) -> str:
        """Human-readable report form, e.g. `Rack:AN150C01` or `AuthLatency > 47`."""
        if self.op is PredicateOp.EQUALS:
            form = f"{self.attribute}:{self.value}"
            return form if self.polarity else f"{form}→false"
        threshold = format_number(float(self.value))
        cmp = ">" if self.polarity else "<="
        return f"{self.attribute} {cmp} {threshold}"


def canonical_key(p: Predicate) -> str:
    """Stable identity used to match predicates across daily runs.

    Equality predicates keep their category; greater-than predicates drop
    the numeric threshold (attribute + direction only) because split
    thresholds are data-dependent and drift day to day.
    """
    if p.op is PredicateOp.EQUALS:
        core = f"{p.attribute}={p.value}"
        return core if p.polarity else f"{p.attribute}!={p.value}"
    return f"{p.attribute}>" if p.polarity else f"{p.attribute}<="


def format_number(x: float) -> str:
    """Shortest exact decimal form: integral floats lose the trailing .0."""
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


class KpiKind(Enum):
    CONTINUOUS = "continuous"
    BINARY = "binary"


class SloDirection(Enum):
    """Which side of the threshold violates the objective."""

    ABOVE = "above"
    BELOW = "below"


@dataclass(frozen=True)
class KpiSpec:
    """KPI column plus the criterion splitting rows into positive/negative.

    Continuous KPIs use a threshold and direction (ABOVE: value > threshold
    is positive, i.e. violating). Binary KPIs use the positive-class label.
    """

    column: str
    kind: KpiKind
    threshold: float | None = None
    direction: SloDirection = SloDirection.ABOVE
    positive_label: str | None = None

    def __post_init__(self):
        if self.kind is KpiKind.CONTINUOUS and self.threshold is None:
            raise SchemaError("continuous KPI requires a threshold")
        if self.kind is KpiKind.BINARY and self.positive_label is None:
            raise SchemaError("binary KPI requires a positive label")

    def describe(self) -> dict:
        if self.kind is KpiKind.BINARY:
            slo = {"positive_label": self.positive_label}
        else:
            slo = {"threshold": self.threshold, "direction": self.direction.value}
        return {"column": self.column, "kind": self.kind.value, "slo": slo}


@dataclass(frozen=True)
class Rule:
    """One diagnosis result: a correlated predicate in a scope.

    scope_predicates are the path tests from the tree root down to the
    node's parent, each oriented along the branch that was taken;
    correlated_predicate is the node's own test oriented toward the
    higher-scoring (degraded) side. request_count comes from sampled
    training data; full_row_count and performance_impact are filled in
    later against the full table.
    """

    correlated_predicate: Predicate
    scope_predicates: tuple[Predicate, ...]
    correlation_score: float
    request_count: int
    performance_impact: float | None = None
    full_row_count: int | None = None

    @property
    def stale(self) -> bool:
        """No full-table row matches the rule, so it has no impact."""
        return self.performance_impact is None

    def key(self) -> str:
        return canonical_key(self.correlated_predicate)

    def all_predicates(self) -> tuple[Predicate, ...]:
        """Scope conjunction followed by the correlated predicate."""
        return self.scope_predicates + (self.correlated_predicate,)


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


class TriageCategory(Enum):
    NEW = "new"
    REGRESSED = "regressed"
    KNOWN = "known"
    IMPROVED = "improved"
    RESOLVED = "resolved"


@dataclass(frozen=True)
class TriagedRule:
    rule: Rule
    category: TriageCategory
