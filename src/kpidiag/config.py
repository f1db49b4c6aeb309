"""Run configuration: one JSON file drives schema, KPI, scoring, and knobs.

Example:

    {
      "kpi": {"column": "RequestLatency", "kind": "continuous",
              "slo": {"threshold": 22.0, "direction": "above"}},
      "columns": {"RequestId": {"role": "excluded"},
                  "Region": {"kind": "categorical"}},
      "scoring": "metric",
      "sample_rows": 1000000,
      "seed": 7,
      "hyperparams": {"num_trees": 50, "feature_sample_ratio": 0.6,
                      "min_rows_in_leaf_pct": 1.0}
    }

The file is the only source of run settings: `_SETTINGS` states each one's
key, JSON type and valid values, and `RunConfig` its default.
"""

from __future__ import annotations

import datetime
import json
import sys
from dataclasses import dataclass, field

from .errors import ConfigError
from .ingest import ColumnDecl, SchemaConfig
from .model import (
    ColumnKind,
    ColumnRole,
    KpiKind,
    KpiSpec,
    Predicate,
    PredicateOp,
    Rule,
    SloDirection,
)
from .rules import resolve_scoring
from .synth import AttributeSpec, FaultSpec, GeneratorConfig, KpiProfile


@dataclass(frozen=True)
class RunConfig:
    kpi: KpiSpec
    columns: dict[str, ColumnDecl] = field(default_factory=dict)
    scoring: str = "metric"
    sample_rows: int = 1_000_000
    seed: int = 0
    max_cardinality: int = 10_000
    min_score: float = 0.0
    num_trees: int = 50
    feature_sample_ratio: float = 0.6
    min_rows_in_leaf_pct: float = 1.0
    input_format: str = "csv"
    table_name: str = "logs"

    def schema_config(self) -> SchemaConfig:
        return SchemaConfig(kpi=self.kpi, columns=self.columns)


@dataclass(frozen=True)
class _Setting:
    """A setting's JSON type and valid values: numbers >= low, or in (low,
    high] when high is given; strings among choices, or any string."""

    type: type  # int, float or str
    low: float | None = None
    high: float | None = None
    choices: tuple[str, ...] = ()

    def valid(self) -> str:
        """The valid values, worded as in README's configuration table."""
        if self.type is str:
            return " or ".join(json.dumps(c) for c in self.choices) or "a string"
        text = "an integer" if self.type is int else "a finite number"
        if self.high is not None:
            return f"{text} in ({self.low:g}, {self.high:g}]"
        return text if self.low is None else f"{text} >= {self.low:g}"

    def parse(self, key: str, raw):
        """raw as this setting's type, or a ConfigError naming key."""
        if self.type is str:
            ok = isinstance(raw, str) and (not self.choices or raw in self.choices)
        else:
            # type(), not isinstance: JSON true is no number and 7.5 no integer;
            # the abs bound rejects NaN, infinities and integers past float range
            ok = type(raw) in ((int,) if self.type is int else (int, float))
            ok = ok and abs(raw) <= sys.float_info.max and (
                self.low is None
                or (self.low < raw <= self.high if self.high is not None else self.low <= raw)
            )
        if not ok:
            raise ConfigError(f"{key} must be {self.valid()}, got {json.dumps(raw)}")
        return self.type(raw)


# Every run setting besides `kpi` and `columns`. A dotted key lies inside
# the object its first part names; the key's last part is the RunConfig
# field that holds the default.
_SETTINGS = {
    "scoring": _Setting(str),
    "sample_rows": _Setting(int, low=2),
    "seed": _Setting(int, low=0),
    "max_cardinality": _Setting(int, low=1),
    "min_score": _Setting(float),
    "input_format": _Setting(str, choices=("csv", "jsonl")),
    "table_name": _Setting(str),
    "hyperparams.num_trees": _Setting(int, low=1),
    "hyperparams.feature_sample_ratio": _Setting(float, low=0, high=1),
    "hyperparams.min_rows_in_leaf_pct": _Setting(float, low=0, high=100),
}


def _object(key: str, value) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object, got {json.dumps(value)}")
    return value


def parse_kpi(obj) -> KpiSpec:
    try:
        column = _Setting(str).parse("kpi.column", _object("kpi", obj)["column"])
        kind = KpiKind(obj["kind"])
        slo = _object("kpi.slo", obj["slo"])
    except (KeyError, ValueError) as e:
        raise ConfigError(f"bad kpi section: {e}") from None
    if kind is KpiKind.CONTINUOUS:
        if "threshold" not in slo:
            raise ConfigError("continuous KPI slo needs a threshold")
        direction = SloDirection(slo.get("direction", "above"))
        threshold = _Setting(float).parse("kpi.slo.threshold", slo["threshold"])
        return KpiSpec(column=column, kind=kind, threshold=threshold, direction=direction)
    if "positive_label" not in slo:
        raise ConfigError("binary KPI slo needs a positive_label")
    label = _Setting(str).parse("kpi.slo.positive_label", slo["positive_label"])
    return KpiSpec(column=column, kind=kind, positive_label=label)


def parse_run_config(obj) -> RunConfig:
    """A RunConfig from a parsed config file; each rejection names the key."""
    given = {k: v for k, v in _object("config", obj).items() if k not in ("kpi", "columns", "hyperparams")}
    hyper = _object("hyperparams", obj.get("hyperparams", {}))
    unknown = {k for k in given if "." in k}
    given.update((f"hyperparams.{k}", v) for k, v in hyper.items())
    unknown |= set(given) - set(_SETTINGS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "kpi" not in obj:
        raise ConfigError("config must name the KPI column")
    columns: dict[str, ColumnDecl] = {}
    for name, decl in _object("columns", obj.get("columns", {})).items():
        unknown = set(_object(f"columns.{name}", decl)) - {"kind", "role"}
        if unknown:
            raise ConfigError(f"column {name!r}: unknown keys {sorted(unknown)}")
        try:
            kind = ColumnKind(decl["kind"]) if "kind" in decl else None
            role = ColumnRole(decl.get("role", "feature"))
        except ValueError as e:
            raise ConfigError(f"column {name!r}: {e}") from None
        columns[name] = ColumnDecl(kind=kind, role=role)
    settings = {key.rpartition(".")[2]: _SETTINGS[key].parse(key, v) for key, v in given.items()}
    config = RunConfig(kpi=parse_kpi(obj["kpi"]), columns=columns, **settings)
    resolve_scoring(config.scoring)  # a bad expression fails here, before any input is read
    return config


def read_json(path):
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except ValueError as e:  # a JSONDecodeError, or an integer past int_max_str_digits
            raise ConfigError(f"{path}: invalid JSON ({getattr(e, 'msg', e)})") from None


def load_run_config(path) -> RunConfig:
    return parse_run_config(read_json(path))


# -- predicate / rule / generator-config serialization ----------------------

_COUNT = _Setting(int, low=0)
_NUMBER = _Setting(float)


def _optional(setting: _Setting, key: str, raw):
    return None if raw is None else setting.parse(key, raw)


def predicate_to_json(p: Predicate) -> dict:
    return {
        "attribute": p.attribute,
        "op": p.op.value,
        "value": p.value,
        "polarity": p.polarity,
    }


def predicate_from_json(d: dict) -> Predicate:
    try:
        op = PredicateOp(d["op"])
        value = d["value"]
        if op is PredicateOp.GREATER_THAN:
            value = float(value)
        return Predicate(d["attribute"], op, value, bool(d.get("polarity", True)))
    except (KeyError, TypeError, ValueError) as e:  # TypeError: d is no JSON object
        raise ConfigError(f"bad predicate record: {e}") from None


def rule_to_json(rule: Rule) -> dict:
    return {
        "correlated_predicate": predicate_to_json(rule.correlated_predicate),
        "scope_predicates": [predicate_to_json(p) for p in rule.scope_predicates],
        "correlation_score": rule.correlation_score,
        "request_count": rule.request_count,
        "performance_impact": rule.performance_impact,
        "full_row_count": rule.full_row_count,
    }


def rule_from_json(d) -> Rule:
    """A Rule from its rules.json record; a malformed record is a ConfigError."""
    d = _object("record", d)
    try:
        scope = d["scope_predicates"]
        if not isinstance(scope, list):
            raise ConfigError(f"scope_predicates must be a list, got {json.dumps(scope)}")
        return Rule(
            correlated_predicate=predicate_from_json(d["correlated_predicate"]),
            scope_predicates=tuple(predicate_from_json(p) for p in scope),
            correlation_score=_NUMBER.parse("correlation_score", d["correlation_score"]),
            request_count=_COUNT.parse("request_count", d["request_count"]),
            performance_impact=_optional(_NUMBER, "performance_impact", d.get("performance_impact")),
            full_row_count=_optional(_COUNT, "full_row_count", d.get("full_row_count")),
        )
    except KeyError as e:
        raise ConfigError(f"missing key {e}") from None


def _attribute(i: int, a: dict) -> AttributeSpec:
    key = f"attributes[{i}]"
    return AttributeSpec(
        name=a["name"],
        kind=ColumnKind(a["kind"]),
        cardinality=_COUNT.parse(f"{key}.cardinality", a.get("cardinality", 0)),
        weighting=a.get("weighting", "uniform"),
        distribution=a.get("distribution", "lognormal"),
        loc=_NUMBER.parse(f"{key}.loc", a.get("loc", 0.0)),
        scale=_NUMBER.parse(f"{key}.scale", a.get("scale", 1.0)),
        zipf_s=_NUMBER.parse(f"{key}.zipf_s", a.get("zipf_s", 1.5)),
    )


def _fault(i: int, fault: dict) -> FaultSpec:
    key = f"faults[{i}]"
    return FaultSpec(
        trigger=tuple(predicate_from_json(p) for p in fault["trigger"]),
        shift=_optional(_NUMBER, f"{key}.shift", fault.get("shift")),
        multiplier=_optional(_NUMBER, f"{key}.multiplier", fault.get("multiplier")),
        failure_probability=_optional(
            _NUMBER, f"{key}.failure_probability", fault.get("failure_probability")
        ),
        first_day=_opt_date(fault.get("first_day")),
        last_day=_opt_date(fault.get("last_day")),
    )


def parse_generator_config(obj: dict) -> GeneratorConfig:
    """A GeneratorConfig from a parsed file; a bad number names its key."""
    try:
        kpi_obj = obj["kpi"]
        kpi = KpiProfile(
            column=kpi_obj["column"],
            kind=KpiKind(kpi_obj["kind"]),
            mu=_NUMBER.parse("kpi.mu", kpi_obj.get("mu", 0.0)),
            sigma=_NUMBER.parse("kpi.sigma", kpi_obj.get("sigma", 1.0)),
            failure_rate=_NUMBER.parse("kpi.failure_rate", kpi_obj.get("failure_rate", 0.001)),
            positive_label=kpi_obj.get("positive_label", "fail"),
            negative_label=kpi_obj.get("negative_label", "success"),
        )
        return GeneratorConfig(
            attributes=tuple(_attribute(i, a) for i, a in enumerate(obj["attributes"])),
            row_count=_COUNT.parse("row_count", obj["row_count"]),
            kpi=kpi,
            faults=tuple(_fault(i, f) for i, f in enumerate(obj.get("faults", []))),
            seed=_COUNT.parse("seed", obj.get("seed", 0)),
        )
    except KeyError as e:
        raise ConfigError(f"generator config missing key {e}") from None
    except ValueError as e:
        raise ConfigError(f"bad generator config: {e}") from None


def load_generator_config(path) -> GeneratorConfig:
    return parse_generator_config(read_json(path))


def _opt_date(v) -> datetime.date | None:
    return None if v is None else datetime.date.fromisoformat(v)
