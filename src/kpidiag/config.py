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
key, JSON type and valid values, and `RunConfig` its default. One reader,
`_record`, builds every object of every JSON file the tool reads from a
table of its keys.
"""

from __future__ import annotations

import datetime
import json
import sys
from dataclasses import MISSING, dataclass, field, fields
from enum import EnumMeta

from .errors import ConfigError
from .model import (
    AttributeSpec,
    ColumnDecl,
    ColumnKind,
    ColumnRole,
    FaultSpec,
    GeneratorConfig,
    KpiKind,
    KpiProfile,
    KpiSpec,
    Predicate,
    PredicateOp,
    Rule,
    SchemaConfig,
    SloDirection,
)
from .rules import resolve_scoring


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
    enum's values, or those among choices; or any boolean, list or object."""

    type: type  # int, float, str, an Enum, or a key of _JSON_TYPES
    low: float | None = None
    high: float | None = None
    choices: tuple[str, ...] = ()

    def __post_init__(self):
        if isinstance(self.type, EnumMeta) and not self.choices:
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

    def __call__(self, key: str, raw):
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
_KPI_KIND = _Setting(KpiKind)


def _get(obj, parent: str, key: str, read, default=MISSING):
    """read(path, obj[key]), read being a _Setting or a reader; errors name the key's
    path (parent is obj's). An absent key, or a null where the default is None, takes
    the default if one is given."""
    _OBJECT(parent or "record", obj)
    path = _path(parent, key)
    raw = obj.get(key, MISSING)
    if raw is MISSING or (raw is None and default is None):
        if default is MISSING:
            raise ConfigError(f"missing key {path!r}")
        return default
    return read(path, raw)


def _path(parent: str, key: str) -> str:
    return f"{parent}.{key}" if parent and key else parent or key


def _record(cls, table: dict, required: tuple[str, ...] = ()):
    """A reader(path, obj) that builds cls from the JSON object obj.

    table maps each key to a _Setting or a reader; a dotted key lies inside the
    object its first part names, and its last part names the field it fills. An
    absent key takes the field's default unless required. An unlisted key, or a
    ConfigError from cls's own checks, is an error naming its path."""
    heads = {key.partition(".")[0] for key in table}
    nested = {key.partition(".")[0] for key in table if "." in key}
    by_name = {f.name: f for f in fields(cls)}

    def read(at: str, obj):
        objects = {"": _OBJECT(at or "record", obj)} | {n: _get(obj, at, n, _OBJECT, {}) for n in nested}
        unknown = [k for k in obj if k not in heads]
        unknown += [f"{n}.{k}" for n in nested for k in objects[n] if f"{n}.{k}" not in table]
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(_path(at, k) for k in unknown)}")
        values = {}
        for key, setting in table.items():
            parent, _, name = key.rpartition(".")
            f = by_name[name]
            default = f.default if f.default_factory is MISSING else f.default_factory()
            default = MISSING if key in required else default
            values[name] = _get(objects[parent], _path(at, parent), name, setting, default)
        try:
            return cls(**values)
        except ConfigError as e:  # only nested records check themselves
            raise ConfigError(f"{at}: {e}") from None

    return read


def _list(read):
    """A reader of a JSON list whose items go through read."""
    return lambda at, raw: tuple(read(f"{at}[{i}]", x) for i, x in enumerate(_LIST(at, raw)))


def _by(key: str, setting: _Setting, readers: dict):
    """A reader that reads obj with the reader of readers that its value at key picks."""
    return lambda at, obj: readers[_get(obj, at, key, setting)](at, obj)


def _date(at: str, raw) -> datetime.date:
    try:
        return datetime.date.fromisoformat(_STRING(at, raw))
    except ValueError:
        raise ConfigError(f"{at} must be an ISO date, got {json.dumps(raw)}") from None


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

# The SLO keys depend on the KPI's kind. The one each kind needs is required
# although its KpiSpec field defaults to None.
_kpi = _by("kind", _KPI_KIND, {
    KpiKind.CONTINUOUS: _record(KpiSpec, {"column": _STRING, "kind": _KPI_KIND, "slo.threshold": _NUMBER,
                                          "slo.direction": _Setting(SloDirection)}, required=("slo.threshold",)),
    KpiKind.BINARY: _record(KpiSpec, {"column": _STRING, "kind": _KPI_KIND, "slo.positive_label": _STRING},
                            required=("slo.positive_label",)),
})
# A predicate's value is a category for `eq` and a threshold for `gt`.
_predicate = _by("op", _OP, {op: _record(Predicate, {
    "attribute": _STRING, "op": _OP, "value": _NUMBER if op is PredicateOp.GREATER_THAN else _STRING,
    "polarity": _Setting(bool)}) for op in PredicateOp})


_COLUMN = _record(ColumnDecl, {"kind": _Setting(ColumnKind),
                               "role": _Setting(ColumnRole, choices=("feature", "excluded"))})


def _columns(at: str, raw) -> dict[str, ColumnDecl]:
    return {name: _COLUMN(f"{at}.{name}", decl) for name, decl in _OBJECT(at, raw).items()}


_RUN_CONFIG = _record(RunConfig, {"kpi": _kpi, "columns": _columns, **_SETTINGS})
_GENERATOR = _record(GeneratorConfig, {
    "attributes": _list(_record(AttributeSpec, {
        "name": _STRING, "kind": _Setting(ColumnKind), "cardinality": _COUNT,
        "weighting": _Setting(str, choices=("uniform", "zipf")),
        "distribution": _Setting(str, choices=("lognormal", "normal", "uniform")),
        "loc": _NUMBER, "scale": _NUMBER, "zipf_s": _NUMBER})),
    "row_count": _COUNT,
    "kpi": _record(KpiProfile, {"column": _STRING, "kind": _KPI_KIND, "mu": _NUMBER, "sigma": _NUMBER,
                                "failure_rate": _NUMBER, "positive_label": _STRING, "negative_label": _STRING}),
    "faults": _list(_record(FaultSpec, {"trigger": _list(_predicate), "shift": _NUMBER, "multiplier": _NUMBER,
                                        "failure_probability": _NUMBER, "first_day": _date, "last_day": _date})),
    "seed": _COUNT,
})


def parse_run_config(obj) -> RunConfig:
    """A RunConfig from a parsed config file; each rejection names the key."""
    config = _RUN_CONFIG("", _OBJECT("config", obj))
    if config.kpi.column in config.columns:  # ingest would override the declaration
        raise ConfigError(f"columns.{config.kpi.column}: the KPI column takes its kind and role from kpi")
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


def predicate_to_json(p: Predicate) -> dict:
    return {
        "attribute": p.attribute,
        "op": p.op.value,
        "value": p.value,
        "polarity": p.polarity,
    }


def rule_to_json(rule: Rule) -> dict:
    return {
        "correlated_predicate": predicate_to_json(rule.correlated_predicate),
        "scope_predicates": [predicate_to_json(p) for p in rule.scope_predicates],
        "correlation_score": rule.correlation_score,
        "request_count": rule.request_count,
        "performance_impact": rule.performance_impact,
        "full_row_count": rule.full_row_count,
    }


def rule_reader():
    """A reader for one rules.json file: a Rule from each record, or a
    ConfigError for a malformed one. The rules of a file share most of their
    predicates, so the reader reads each distinct valid predicate record once,
    keyed by its repr, which tells any two JSON values apart."""
    seen: dict[str, Predicate] = {}

    def predicate(at: str, obj) -> Predicate:
        if (key := repr(obj)) not in seen:
            seen[key] = _predicate(at, obj)
        return seen[key]

    rule = _record(Rule, {"correlated_predicate": predicate, "scope_predicates": _list(predicate),
                          "correlation_score": _NUMBER, "request_count": _COUNT,
                          "performance_impact": _NUMBER, "full_row_count": _COUNT})
    return lambda record: rule("", record)


def report_key(entry) -> str:
    """The canonical key of a report.json rule entry."""
    return _get(entry, "", "key", _STRING)


def fault_keys(fault) -> tuple[str, ...]:
    """The canonical keys of a manifest.json fault entry."""
    return _get(fault, "", "keys", _list(_STRING))


def parse_generator_config(obj) -> GeneratorConfig:
    """A GeneratorConfig from a parsed file; each rejection names the key."""
    return _GENERATOR("", _OBJECT("config", obj))


def load_generator_config(path) -> GeneratorConfig:
    return parse_generator_config(read_json(path))


def read_records(path, noun: str, parse, key: str | None = None) -> list:
    """parse(record) for each record of a JSON file: the file's list, or the
    list its object holds under key. An error names the file and the record."""
    doc = read_json(path)
    where = f"{path}: "
    try:
        records = _LIST(f"{noun}s", doc) if key is None else _get(doc, "", key, _LIST)
        out = []
        for i, record in enumerate(records):
            where = f"{path}: {noun} {i}: "
            out.append(parse(record))
        return out
    except ConfigError as e:
        raise ConfigError(f"{where}{e}") from None
