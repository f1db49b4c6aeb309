"""Ranked diagnosis reports, per-rule log-mining queries, and precision.

Reports come in two formats: a schema-stable JSON document and a markdown
table. Each rule carries a standalone ANSI-style SQL filter query that an
operator can paste into whatever engine holds the logs; a small built-in
evaluator executes that exact dialect against an in-memory table so tests
can prove query/predicate equivalence.
"""

from __future__ import annotations

import datetime
import json
import re
from typing import Iterable, Sequence

import numpy as np

from .ingest import LogTable
from .model import (
    KpiSpec,
    Predicate,
    PredicateOp,
    Rule,
    TriagedRule,
    format_number,
)

_BARE_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")
_KEYWORDS = {"SELECT", "FROM", "WHERE", "AND"}


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


# -- built-in evaluator for the generated dialect --------------------------


class QueryParseError(Exception):
    pass


def _tokenize(sql: str) -> list[tuple[str, object]]:
    tokens: list[tuple[str, object]] = []
    i, n = 0, len(sql)
    while i < n:
        c = sql[i]
        if c.isspace():
            i += 1
            continue
        if c == "'":
            j = i + 1
            buf = []
            while True:
                if j >= n:
                    raise QueryParseError("unterminated string literal")
                if sql[j] == "'":
                    if j + 1 < n and sql[j + 1] == "'":
                        buf.append("'")
                        j += 2
                        continue
                    j += 1
                    break
                buf.append(sql[j])
                j += 1
            tokens.append(("STRING", "".join(buf)))
            i = j
            continue
        if c == '"':
            j = i + 1
            buf = []
            while True:
                if j >= n:
                    raise QueryParseError("unterminated quoted identifier")
                if sql[j] == '"':
                    if j + 1 < n and sql[j + 1] == '"':
                        buf.append('"')
                        j += 2
                        continue
                    j += 1
                    break
                buf.append(sql[j])
                j += 1
            tokens.append(("IDENT", "".join(buf)))
            i = j
            continue
        if c == "*":
            tokens.append(("STAR", "*"))
            i += 1
            continue
        if sql.startswith("<=", i) or sql.startswith("<>", i):
            tokens.append(("OP", sql[i : i + 2]))
            i += 2
            continue
        if c in "=>":
            tokens.append(("OP", c))
            i += 1
            continue
        m = _NUMBER.match(sql, i)
        if m and (c.isdigit() or c in "+-."):
            tokens.append(("NUMBER", float(m.group(0))))
            i = m.end()
            continue
        m = re.match(r"[A-Za-z_][A-Za-z0-9_]*", sql[i:])
        if m:
            word = m.group(0)
            if word.upper() in _KEYWORDS:
                tokens.append(("KEYWORD", word.upper()))
            else:
                tokens.append(("IDENT", word))
            i += len(word)
            continue
        raise QueryParseError(f"unexpected character {c!r} at offset {i}")
    return tokens


def parse_query(sql: str) -> tuple[str, list[Predicate]]:
    """Parse the generated dialect back into (table_name, predicates)."""
    tokens = _tokenize(sql)
    pos = 0

    def expect(kind: str, value=None):
        nonlocal pos
        if pos >= len(tokens):
            raise QueryParseError("unexpected end of query")
        k, v = tokens[pos]
        if k != kind or (value is not None and v != value):
            raise QueryParseError(f"expected {value or kind}, got {v!r}")
        pos += 1
        return v

    expect("KEYWORD", "SELECT")
    expect("STAR")
    expect("KEYWORD", "FROM")
    table_name = expect("IDENT")
    expect("KEYWORD", "WHERE")
    predicates: list[Predicate] = []
    while True:
        attr = expect("IDENT")
        op = expect("OP")
        if pos >= len(tokens):
            raise QueryParseError("condition missing its literal")
        kind, value = tokens[pos]
        pos += 1
        if op in ("=", "<>"):
            if kind != "STRING":
                raise QueryParseError(f"expected a string literal after {op}")
            predicates.append(Predicate.equals(attr, value, polarity=op == "="))
        elif op in (">", "<="):
            if kind != "NUMBER":
                raise QueryParseError(f"expected a numeric literal after {op}")
            predicates.append(Predicate.greater_than(attr, value, polarity=op == ">"))
        else:
            raise QueryParseError(f"unsupported operator {op!r}")
        if pos >= len(tokens):
            break
        expect("KEYWORD", "AND")
    return table_name, predicates


def execute_query(sql: str, table: LogTable) -> np.ndarray:
    """Run a generated query against an in-memory table; returns row indices."""
    _, predicates = parse_query(sql)
    return np.flatnonzero(table.conjunction_mask(predicates))


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
