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


def _condition_sql(p: Predicate) -> str:
    """The predicate as SQL; as in its mask, only `IS NULL` holds on a NULL (missing) cell."""
    ident = _quote_ident(p.attribute)
    if p.op is PredicateOp.EQUALS and p.value == "":
        return f"{ident} IS {'' if p.polarity else 'NOT '}NULL"
    if p.op is PredicateOp.EQUALS:
        value = str(p.value).replace("'", "''")
        return f"{ident} {'=' if p.polarity else '<>'} '{value}'"
    return f"{ident} {'>' if p.polarity else '<='} {format_number(float(p.value))}"


def generate_query(rule: Rule, table_name: str = "logs") -> str:
    """Standalone filter query selecting exactly the rows the rule matches.

    Conjuncts appear in root-to-leaf order: scope predicates first, the
    correlated predicate last.
    """
    conds = [_condition_sql(p) for p in rule.all_predicates()]
    return f"SELECT * FROM {_quote_ident(table_name)} WHERE " + " AND ".join(conds)


# -- rendering --------------------------------------------------------------


def entries(triaged_rules: Sequence[TriagedRule], table_name: str = "logs") -> list[dict]:
    """The report's rules, ranked by descending score, then key: what both
    renderers print, built once per run."""
    ranked = sorted(triaged_rules, key=lambda t: (-t.rule.correlation_score, t.rule.key()))
    return [
        {
            "rank": rank,
            "key": t.rule.key(),
            "correlated_predicate": t.rule.correlated_predicate.text(),
            "scope_predicates": [p.text() for p in t.rule.scope_predicates],
            "request_count": t.rule.request_count,
            "full_row_count": t.rule.full_row_count,
            "performance_impact": t.rule.performance_impact,
            "correlation_score": t.rule.correlation_score,
            "triage": t.category.value,
            "query": generate_query(t.rule, table_name),
        }
        for rank, t in enumerate(ranked, start=1)
    ]


def render_json(
    ranked: Sequence[dict], resolved_keys: Sequence[str], run_date: datetime.date, kpi: KpiSpec
) -> str:
    doc = {
        "run_date": run_date.isoformat(),
        "kpi": kpi.describe(),
        "rules": ranked,
        "resolved": list(resolved_keys),
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _cell(text: str) -> str:
    """Text for one markdown table cell: a "|" would end the cell."""
    return text.replace("|", "\\|")


def _code(text: str) -> str:
    """A markdown code span showing text as it is (CommonMark): a fence longer than any backtick run
    in text, and a space inside it where text starts or ends with a backtick or a space."""
    fence = "`" * (1 + max(map(len, re.findall("`+", text)), default=0))
    pad = " " if text.strip(" ") and (text[0] in "` " or text[-1] in "` ") else ""
    return f"{fence}{pad}{text}{pad}{fence}"


def render_markdown(
    ranked: Sequence[dict], resolved_keys: Sequence[str], run_date: datetime.date, kpi: KpiSpec
) -> str:
    kpi_desc = kpi.describe()
    lines = [
        f"# KPI diagnosis report for {run_date.isoformat()}",
        "",
        f"KPI: {_code(kpi.column)} ({kpi_desc['kind']}), criterion: {_code(str(kpi_desc['slo']))}",
        "",
        "| Rank | Triage | Correlated predicate | Scope | Requests | Impact | Score |",
        "|---:|---|---|---|---:|---:|---:|",
    ]
    for e in ranked:
        scope = " ∧ ".join(e["scope_predicates"]) or "-"
        impact = "stale" if e["performance_impact"] is None else f"{e['performance_impact']:.6g}"
        lines.append(
            f"| {e['rank']} | {e['triage']} | {_cell(e['correlated_predicate'])} "
            f"| {_cell(scope)} | {e['request_count']} | {impact} "
            f"| {e['correlation_score']:.6g} |"
        )
    sections = {
        "Resolved": [f"- {_code(key)}" for key in resolved_keys],
        "Queries": [f"{e['rank']}. {_code(e['query'])}" for e in ranked],
    }
    for title, items in sections.items():
        lines += ["", f"## {title}", "", *(items or ["(none)"])]
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
