"""kpidiag: diagnose and triage KPI regressions from structured service logs.

The pipeline trains random-forest models with the KPI as the target,
mines the trees for predicates correlated with degradation, and classifies
each surviving rule against a rolling score history. The package exports
what README's library-use example imports plus the error types; everything
else lives in its submodule (`kpidiag.pipeline` composes the stages).
"""

from .errors import ConfigError, DumpParseError, SchemaError, StageError
from .forest import Hyperparams, train
from .ingest import SchemaConfig, load
from .model import KpiKind, KpiSpec
from .prep import impute, sample, stratify
from .rules import deduplicate, extract_rules, filter_negative, resolve_scoring

__version__ = "0.1.0"
