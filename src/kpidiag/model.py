"""Shared domain types: column schemas, predicates, KPI criteria, rules.

Everything here is immutable after construction and safe to share between
threads. Predicates are the unit of diagnosis: a boolean test on one log
attribute, either an equality test on a categorical value or a strict
greater-than test on a continuous threshold.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from enum import Enum

from .errors import SchemaError

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
    """Per-attribute schema entry.

    observed_cardinality is the distinct non-missing value count and is
    only populated for categorical columns attached to a table.
    """

    name: str
    kind: ColumnKind
    role: ColumnRole = ColumnRole.FEATURE
    observed_cardinality: int | None = None


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
    later against the full table (stale=True when no full rows match).
    """

    correlated_predicate: Predicate
    scope_predicates: tuple[Predicate, ...]
    correlation_score: float
    request_count: int
    performance_impact: float | None = None
    as_of: datetime.date | None = None
    full_row_count: int | None = None
    stale: bool = False

    def key(self) -> str:
        return canonical_key(self.correlated_predicate)

    def all_predicates(self) -> tuple[Predicate, ...]:
        """Scope conjunction followed by the correlated predicate."""
        return self.scope_predicates + (self.correlated_predicate,)


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
