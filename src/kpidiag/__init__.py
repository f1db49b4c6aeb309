"""kpidiag: diagnose and triage KPI regressions from structured service logs.

The pipeline trains random-forest models with the KPI as the target,
mines the trees for predicates correlated with degradation, and classifies
each surviving rule against a rolling score history. The package exports
what README's library-use example imports plus the error types; everything
else lives in its submodule (`kpidiag.pipeline` composes the stages).
"""

import importlib

from .errors import ConfigError, DumpParseError, SchemaError, StageError

__version__ = "0.1.0"

# The other exports by submodule. Each is imported, and bound here, on
# first use, so that importing the package does not load numpy.
_EXPORTS = {name: module for module, names in {
    "forest": "Hyperparams train", "ingest": "load", "model": "KpiKind KpiSpec SchemaConfig",
    "prep": "impute sample stratify", "rules": "deduplicate extract_rules filter_negative resolve_scoring",
}.items() for name in names.split()}
__all__ = ["ConfigError", "DumpParseError", "SchemaError", "StageError", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    return value
