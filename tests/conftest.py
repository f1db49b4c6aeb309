import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from kpidiag.ingest import LogTable
from kpidiag.model import ColumnKind, ColumnRole, ColumnSpec
from kpidiag.prep import recommend_pruning

from oracles import table_from_columns


def make_table(columns: dict[str, tuple[str, list]], kpi: str | None = None) -> LogTable:
    """Build a LogTable from {name: (kind, values)}; kind is "cat" or "cont".

    None entries are missing. The named column, if any, gets the KPI role.
    """
    schema = []
    data = {}
    for name, (kind, values) in columns.items():
        col_kind = ColumnKind.CATEGORICAL if kind == "cat" else ColumnKind.CONTINUOUS
        role = ColumnRole.KPI if name == kpi else ColumnRole.FEATURE
        schema.append(ColumnSpec(name, col_kind, role))
        data[name] = values
    return table_from_columns(schema, data)


def category_counts(table: LogTable) -> dict[str, int]:
    """Distinct non-missing categories per categorical feature, as counted by
    recommend_pruning: with a cap of 1 it reports every column holding one."""
    counted = {r.attribute: r.cardinality for r in recommend_pruning(table, max_cardinality=1)}
    return {s.name: counted.get(s.name, 0) for s in table.feature_columns()
            if s.kind is ColumnKind.CATEGORICAL}


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
