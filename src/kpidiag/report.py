"""Ranked diagnosis reports, per-rule log-mining queries, and precision.

Reports come in two formats: a schema-stable JSON document and a markdown
table. Each rule carries a standalone ANSI-style SQL filter query that an
operator can paste into whatever engine holds the logs. This module only
generates and renders those queries; the tests check that each one selects
exactly the rows its rule matches.
"""

from __future__ import annotations

import datetime
import json
import re
from typing import Iterable, Sequence

from .model import (
    KpiSpec,
    Predicate,
    PredicateOp,
    Rule,
    TriagedRule,
    format_number,
)

_BARE_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# Every keyword SQLite 3.40 reports, plus the boolean literals: a bare
# identifier that spells one is a syntax error or, for NULL, a silent no-match.
_KEYWORDS = frozenset(
    """
    ABORT ACTION ADD AFTER ALL ALTER ALWAYS ANALYZE AND AS ASC ATTACH AUTOINCREMENT
    BEFORE BEGIN BETWEEN BY CASCADE CASE CAST CHECK COLLATE COLUMN COMMIT CONFLICT
    CONSTRAINT CREATE CROSS CURRENT CURRENT_DATE CURRENT_TIME CURRENT_TIMESTAMP
    DATABASE DEFAULT DEFERRABLE DEFERRED DELETE DESC DETACH DISTINCT DO DROP EACH
    ELSE END ESCAPE EXCEPT EXCLUDE EXCLUSIVE EXISTS EXPLAIN FAIL FALSE FILTER FIRST
    FOLLOWING FOR FOREIGN FROM FULL GENERATED GLOB GROUP GROUPS HAVING IF IGNORE
    IMMEDIATE IN INDEX INDEXED INITIALLY INNER INSERT INSTEAD INTERSECT INTO IS
    ISNULL JOIN KEY LAST LEFT LIKE LIMIT MATCH MATERIALIZED NATURAL NO NOT NOTHING
    NOTNULL NULL NULLS OF OFFSET ON OR ORDER OTHERS OUTER OVER PARTITION PLAN PRAGMA
    PRECEDING PRIMARY QUERY RAISE RANGE RECURSIVE REFERENCES REGEXP REINDEX RELEASE
    RENAME REPLACE RESTRICT RETURNING RIGHT ROLLBACK ROW ROWS SAVEPOINT SELECT SET
    TABLE TEMP TEMPORARY THEN TIES TO TRANSACTION TRIGGER TRUE UNBOUNDED UNION
    UNIQUE UPDATE USING VACUUM VALUES VIEW VIRTUAL WHEN WHERE WINDOW WITH WITHOUT
    """.split()
)


def _quote_ident(name: str) -> str:
    if _BARE_IDENT.match(name) and name.upper() not in _KEYWORDS:
        return name
    return '"' + name.replace('"', '""') + '"'


def _quote_string(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def _condition_sql(p: Predicate) -> str:
    ident = _quote_ident(p.attribute)
    if p.op is PredicateOp.EQUALS:
        op = "=" if p.polarity else "<>"
        return f"{ident} {op} {_quote_string(str(p.value))}"
    op = ">" if p.polarity else "<="
    return f"{ident} {op} {format_number(float(p.value))}"


def generate_query(rule: Rule, table_name: str = "logs") -> str:
    """Standalone filter query selecting exactly the rows the rule matches.

    Conjuncts appear in root-to-leaf order: scope predicates first, the
    correlated predicate last.
    """
    conds = [_condition_sql(p) for p in rule.all_predicates()]
    return f"SELECT * FROM {_quote_ident(table_name)} WHERE " + " AND ".join(conds)


# -- rendering --------------------------------------------------------------


def _ranked(triaged_rules: Sequence[TriagedRule]) -> list[TriagedRule]:
    return sorted(
        triaged_rules, key=lambda t: (-t.rule.correlation_score, t.rule.key())
    )


def render_json(
    triaged_rules: Sequence[TriagedRule],
    resolved_keys: Sequence[str],
    run_date: datetime.date,
    kpi: KpiSpec,
    table_name: str = "logs",
) -> str:
    entries = []
    for rank, triaged in enumerate(_ranked(triaged_rules), start=1):
        rule = triaged.rule
        entries.append(
            {
                "rank": rank,
                "key": rule.key(),
                "correlated_predicate": rule.correlated_predicate.text(),
                "scope_predicates": [p.text() for p in rule.scope_predicates],
                "request_count": rule.request_count,
                "full_row_count": rule.full_row_count,
                "performance_impact": rule.performance_impact,
                "correlation_score": rule.correlation_score,
                "triage": triaged.category.value,
                "query": generate_query(rule, table_name),
            }
        )
    doc = {
        "run_date": run_date.isoformat(),
        "kpi": kpi.describe(),
        "rules": entries,
        "resolved": list(resolved_keys),
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def render_markdown(
    triaged_rules: Sequence[TriagedRule],
    resolved_keys: Sequence[str],
    run_date: datetime.date,
    kpi: KpiSpec,
    table_name: str = "logs",
) -> str:
    ranked = _ranked(triaged_rules)
    kpi_desc = kpi.describe()
    lines = [
        f"# KPI diagnosis report for {run_date.isoformat()}",
        "",
        f"KPI: `{kpi.column}` ({kpi_desc['kind']}), criterion: `{kpi_desc['slo']}`",
        "",
        "| Rank | Triage | Correlated predicate | Scope | Requests | Impact | Score |",
        "|---:|---|---|---|---:|---:|---:|",
    ]
    for rank, triaged in enumerate(ranked, start=1):
        rule = triaged.rule
        scope = " ∧ ".join(p.text() for p in rule.scope_predicates) or "-"
        impact = "stale" if rule.performance_impact is None else f"{rule.performance_impact:.6g}"
        lines.append(
            f"| {rank} | {triaged.category.value} | {rule.correlated_predicate.text()} "
            f"| {scope} | {rule.request_count} | {impact} "
            f"| {rule.correlation_score:.6g} |"
        )
    lines.append("")
    lines.append("## Resolved")
    lines.append("")
    if resolved_keys:
        lines.extend(f"- `{key}`" for key in resolved_keys)
    else:
        lines.append("(none)")
    lines.append("")
    lines.append("## Queries")
    lines.append("")
    if ranked:
        for rank, triaged in enumerate(ranked, start=1):
            lines.append(f"{rank}. `{generate_query(triaged.rule, table_name)}`")
    else:
        lines.append("(none)")
    return "\n".join(lines) + "\n"


# -- evaluation -------------------------------------------------------------


def precision(
    reported_keys: Iterable[str], truth_keys: Iterable[str]
) -> tuple[float | None, int]:
    """True-positive fraction of the distinct reported keys, plus the valid-issue count.

    A reported key is a true positive when it is in the truth manifest. An
    empty report has no defined precision -> (None, 0).
    """
    keys = set(reported_keys)
    if not keys:
        return None, 0
    tp = len(keys & set(truth_keys))
    return tp / len(keys), tp
