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
key, JSON type and valid values, and `RunConfig` its default. Every JSON
file the tool reads is checked field by field through `_Setting` and `_get`.
"""

from __future__ import annotations

import datetime
import json
import sys
from dataclasses import MISSING, dataclass, field
from enum import EnumMeta

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


_JSON_TYPES = {bool: "true or false", list: "a JSON list", dict: "a JSON object"}


@dataclass(frozen=True)
class _Setting:
    """A JSON value's type and valid values: numbers >= low, or in (low,
    high] when high is given; strings among choices, or any string; an
    enum's values; or any boolean, list or object."""

    type: type  # int, float, str, an Enum, or a key of _JSON_TYPES
    low: float | None = None
    high: float | None = None
    choices: tuple[str, ...] = ()

    def __post_init__(self):
        if isinstance(self.type, EnumMeta):
            object.__setattr__(self, "choices", tuple(m.value for m in self.type))

    def valid(self) -> str:
        """The valid values, worded as in README's configuration table."""
        if self.type in _JSON_TYPES:
            return _JSON_TYPES[self.type]
        if self.type not in (int, float):
            return " or ".join(json.dumps(c) for c in self.choices) or "a string"
        text = "an integer" if self.type is int else "a finite number"
        if self.high is not None:
            return f"{text} in ({self.low:g}, {self.high:g}]"
        return text if self.low is None else f"{text} >= {self.low:g}"

    def parse(self, key: str, raw):
        """raw as this setting's type, or a ConfigError naming key."""
        if self.type in _JSON_TYPES:
            ok = type(raw) is self.type
        elif self.type not in (int, float):
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
            got = {list: "list", dict: "object"}.get(type(raw)) or json.dumps(raw)
            raise ConfigError(f"{key} must be {self.valid()}, got {got}")
        return raw if self.type in _JSON_TYPES else self.type(raw)


_STRING = _Setting(str)
_NUMBER = _Setting(float)
_COUNT = _Setting(int, low=0)
_LIST = _Setting(list)
_OBJECT = _Setting(dict)
_OP = _Setting(PredicateOp)
_POLARITY = _Setting(bool)


def _get(obj, parent: str, key: str, setting: _Setting, default=MISSING):
    """obj[key] parsed by setting; errors name the key's path (parent is obj's). An
    absent key, or a null where the default is None, takes the default if one is given."""
    _OBJECT.parse(parent or "record", obj)
    path = f"{parent}.{key}" if parent else key
    raw = obj.get(key, MISSING)
    if raw is MISSING or (raw is None and default is None):
        if default is MISSING:
            raise ConfigError(f"missing key {path!r}")
        return default
    return setting.parse(path, raw)


def _each(obj, parent: str, key: str, parse, default=MISSING) -> tuple:
    """parse(path, item) for each item of the list at obj[key]."""
    path = f"{parent}.{key}" if parent else key
    return tuple(parse(f"{path}[{i}]", x) for i, x in enumerate(_get(obj, parent, key, _LIST, default)))


# Every run setting besides `kpi` and `columns`. A dotted key lies inside
# the object its first part names; the key's last part is the RunConfig
# field that holds the default.
_SETTINGS = {
    "scoring": _STRING,
    "sample_rows": _Setting(int, low=2),
    "seed": _Setting(int, low=0),
    "max_cardinality": _Setting(int, low=1),
    "min_score": _NUMBER,
    "input_format": _Setting(str, choices=("csv", "jsonl")),
    "table_name": _STRING,
    "hyperparams.num_trees": _Setting(int, low=1),
    "hyperparams.feature_sample_ratio": _Setting(float, low=0, high=1),
    "hyperparams.min_rows_in_leaf_pct": _Setting(float, low=0, high=100),
}


def parse_kpi(obj) -> KpiSpec:
    column = _get(obj, "kpi", "column", _STRING)
    kind = _get(obj, "kpi", "kind", _Setting(KpiKind))
    slo = _get(obj, "kpi", "slo", _OBJECT)
    if kind is KpiKind.CONTINUOUS:
        threshold = _get(slo, "kpi.slo", "threshold", _NUMBER)
        direction = _get(slo, "kpi.slo", "direction", _Setting(SloDirection), SloDirection.ABOVE)
        return KpiSpec(column=column, kind=kind, threshold=threshold, direction=direction)
    label = _get(slo, "kpi.slo", "positive_label", _STRING)
    return KpiSpec(column=column, kind=kind, positive_label=label)


def parse_run_config(obj) -> RunConfig:
    """A RunConfig from a parsed config file; each rejection names the key."""
    given = {k: v for k, v in _OBJECT.parse("config", obj).items() if k not in ("kpi", "columns", "hyperparams")}
    unknown = {k for k in given if "." in k}
    given.update((f"hyperparams.{k}", v) for k, v in _get(obj, "", "hyperparams", _OBJECT, {}).items())
    unknown |= set(given) - set(_SETTINGS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    columns: dict[str, ColumnDecl] = {}
    for name, decl in _get(obj, "", "columns", _OBJECT, {}).items():
        at = f"columns.{name}"
        unknown = set(_OBJECT.parse(at, decl)) - {"kind", "role"}
        if unknown:
            raise ConfigError(f"column {name!r}: unknown keys {sorted(unknown)}")
        columns[name] = ColumnDecl(
            kind=_get(decl, at, "kind", _Setting(ColumnKind), None),
            role=_get(decl, at, "role", _Setting(ColumnRole), ColumnRole.FEATURE),
        )
    settings = {key.rpartition(".")[2]: _SETTINGS[key].parse(key, v) for key, v in given.items()}
    config = RunConfig(kpi=parse_kpi(_get(obj, "", "kpi", _OBJECT)), columns=columns, **settings)
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


def predicate_to_json(p: Predicate) -> dict:
    return {
        "attribute": p.attribute,
        "op": p.op.value,
        "value": p.value,
        "polarity": p.polarity,
    }


def _predicate(at: str, d) -> Predicate:
    op = _get(d, at, "op", _OP)
    value = _get(d, at, "value", _NUMBER if op is PredicateOp.GREATER_THAN else _STRING)
    return Predicate(_get(d, at, "attribute", _STRING), op, value, _get(d, at, "polarity", _POLARITY, True))


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
    return Rule(
        correlated_predicate=_predicate("correlated_predicate", _get(d, "", "correlated_predicate", _OBJECT)),
        scope_predicates=_each(d, "", "scope_predicates", _predicate),
        correlation_score=_get(d, "", "correlation_score", _NUMBER),
        request_count=_get(d, "", "request_count", _COUNT),
        performance_impact=_get(d, "", "performance_impact", _NUMBER, None),
        full_row_count=_get(d, "", "full_row_count", _COUNT, None),
    )


def report_key(entry) -> str:
    """The canonical key of a report.json rule entry."""
    return _get(entry, "", "key", _STRING)


def fault_keys(fault) -> tuple[str, ...]:
    """The canonical keys of a manifest.json fault entry."""
    return _each(fault, "", "keys", _STRING.parse)


def _attribute(at: str, a) -> AttributeSpec:
    return AttributeSpec(
        name=_get(a, at, "name", _STRING),
        kind=_get(a, at, "kind", _Setting(ColumnKind)),
        cardinality=_get(a, at, "cardinality", _COUNT, 0),
        weighting=_get(a, at, "weighting", _STRING, "uniform"),
        distribution=_get(a, at, "distribution", _STRING, "lognormal"),
        loc=_get(a, at, "loc", _NUMBER, 0.0),
        scale=_get(a, at, "scale", _NUMBER, 1.0),
        zipf_s=_get(a, at, "zipf_s", _NUMBER, 1.5),
    )


def _fault(at: str, f) -> FaultSpec:
    return FaultSpec(
        trigger=_each(f, at, "trigger", _predicate),
        shift=_get(f, at, "shift", _NUMBER, None),
        multiplier=_get(f, at, "multiplier", _NUMBER, None),
        failure_probability=_get(f, at, "failure_probability", _NUMBER, None),
        first_day=_date(f, at, "first_day"),
        last_day=_date(f, at, "last_day"),
    )


def _date(obj, parent: str, key: str) -> datetime.date | None:
    text = _get(obj, parent, key, _STRING, None)
    try:
        return None if text is None else datetime.date.fromisoformat(text)
    except ValueError:
        raise ConfigError(f"{parent}.{key} must be an ISO date, got {json.dumps(text)}") from None


def parse_generator_config(obj) -> GeneratorConfig:
    """A GeneratorConfig from a parsed file; each rejection names the key."""
    kpi = _get(_OBJECT.parse("config", obj), "", "kpi", _OBJECT)
    return GeneratorConfig(
        attributes=_each(obj, "", "attributes", _attribute),
        row_count=_get(obj, "", "row_count", _COUNT),
        kpi=KpiProfile(
            column=_get(kpi, "kpi", "column", _STRING),
            kind=_get(kpi, "kpi", "kind", _Setting(KpiKind)),
            mu=_get(kpi, "kpi", "mu", _NUMBER, 0.0),
            sigma=_get(kpi, "kpi", "sigma", _NUMBER, 1.0),
            failure_rate=_get(kpi, "kpi", "failure_rate", _NUMBER, 0.001),
            positive_label=_get(kpi, "kpi", "positive_label", _STRING, "fail"),
            negative_label=_get(kpi, "kpi", "negative_label", _STRING, "success"),
        ),
        faults=_each(obj, "", "faults", _fault, ()),
        seed=_get(obj, "", "seed", _COUNT, 0),
    )


def load_generator_config(path) -> GeneratorConfig:
    return parse_generator_config(read_json(path))
