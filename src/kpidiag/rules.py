"""Turn a trained forest into a ranked set of diagnosis rules.

Every split node of every tree yields a candidate: the node predicate
oriented toward the higher-scoring child, the path predicates from the
root as scope, the score difference between the two children as the
correlation score, and the degraded child's row count. Candidates are
then deduplicated per canonical predicate key and inverted-equality
("anything but X") rules are discarded.
"""

from __future__ import annotations

import ast
from dataclasses import replace
from typing import Callable, Sequence

from .errors import ConfigError
from .ingest import LogTable
from .model import KpiKind, KpiSpec, Predicate, PredicateOp, Rule
from .forest import ForestModel, TreeNode

# A scoring function maps (row_count, node_metric) -> score. Higher score
# means a worse (more degraded) population. Pure and deterministic.
ScoringFunction = Callable[[float, float], float]


def volume_weighted_score(row_count: float, metric: float) -> float:
    """row_count x metric: weights degradation by how many requests see it."""
    return row_count * metric


def metric_score(row_count: float, metric: float) -> float:
    """The node metric alone (failure probability / mean KPI)."""
    return metric


BUILTIN_SCORING: dict[str, ScoringFunction] = {
    "volume_weighted": volume_weighted_score,
    "metric": metric_score,
}

_ALLOWED_EXPR_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.USub,
    ast.UAdd,
    ast.Constant,
    ast.Name,
    ast.Load,
)


def scoring_from_expression(expr: str) -> ScoringFunction:
    """Compile an arithmetic expression over `row_count` and `metric`.

    Only +, -, *, /, ** and numeric literals are allowed; anything else is
    rejected. Example: "row_count * metric ** 2".
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as e:
        raise ConfigError(f"bad scoring expression {expr!r}: {e.msg}") from None
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_EXPR_NODES):
            raise ConfigError(
                f"scoring expression {expr!r}: {type(node).__name__} not allowed"
            )
        if isinstance(node, ast.Name) and node.id not in ("row_count", "metric"):
            raise ConfigError(
                f"scoring expression {expr!r}: unknown variable {node.id!r}"
            )
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ConfigError(f"scoring expression {expr!r}: non-numeric constant")
    code = compile(tree, "<scoring>", "eval")

    def score(row_count: float, metric: float) -> float:
        return float(eval(code, {"__builtins__": {}}, {"row_count": row_count, "metric": metric}))

    return score


def resolve_scoring(name_or_expr: str) -> ScoringFunction:
    """Look up a builtin by name, else compile as an expression."""
    if name_or_expr in BUILTIN_SCORING:
        return BUILTIN_SCORING[name_or_expr]
    return scoring_from_expression(name_or_expr)


def score_node(f: ScoringFunction, node: TreeNode) -> float:
    """Apply a scoring function to one node's (row_count, metric)."""
    return float(f(node.row_count, node.metric))


def correlation_score(f: ScoringFunction, split_node: TreeNode) -> float:
    """Score(left child) - Score(right child); positive means the
    predicate-true side correlates with degradation."""
    if split_node.is_leaf:
        raise ValueError("correlation_score requires a split node")
    return score_node(f, split_node.left) - score_node(f, split_node.right)


def extract_rules(model: ForestModel, f: ScoringFunction) -> list[Rule]:
    """One candidate rule per split node, oriented toward the degraded side.

    Scope predicates are the root-to-parent path, each oriented along the
    branch taken. Nodes whose children score identically carry no signal
    and yield nothing.
    """
    out: list[Rule] = []
    for tree in model.trees:
        # stack of (node, path predicates so far)
        stack: list[tuple[TreeNode, tuple[Predicate, ...]]] = [(tree, ())]
        while stack:
            node, path = stack.pop()
            if node.is_leaf:
                continue
            delta = correlation_score(f, node)
            if delta > 0:
                out.append(
                    Rule(
                        correlated_predicate=node.split,
                        scope_predicates=path,
                        correlation_score=delta,
                        request_count=node.left.row_count,
                    )
                )
            elif delta < 0:
                out.append(
                    Rule(
                        correlated_predicate=node.split.flip(),
                        scope_predicates=path,
                        correlation_score=-delta,
                        request_count=node.right.row_count,
                    )
                )
            stack.append((node.left, path + (node.split,)))
            stack.append((node.right, path + (node.split.flip(),)))
    return out


def _scope_sort_key(rule: Rule) -> tuple:
    return tuple(
        (p.attribute, p.op.value, str(p.value), p.polarity) for p in rule.scope_predicates
    )


def deduplicate(rules: Sequence[Rule]) -> list[Rule]:
    """Keep one rule per canonical predicate key: the max-score representative.

    Ties break toward the larger request count, then the lexicographically
    smallest scope. Output is ordered by descending score, then key.
    """
    best: dict[str, Rule] = {}
    for rule in rules:
        key = rule.key()
        cur = best.get(key)
        if cur is None:
            best[key] = rule
            continue
        contender = (
            (rule.correlation_score, rule.request_count),
            (cur.correlation_score, cur.request_count),
        )
        if contender[0] > contender[1] or (
            contender[0] == contender[1]
            and _scope_sort_key(rule) < _scope_sort_key(cur)
        ):
            best[key] = rule
    return sorted(
        best.values(), key=lambda r: (-r.correlation_score, r.key())
    )


def filter_negative(rules: Sequence[Rule]) -> list[Rule]:
    """Drop inverted-equality rules ("anything but X" carries no root cause).

    Positively-oriented equality rules and both directions of continuous
    thresholds pass through.
    """
    return [
        r
        for r in rules
        if not (
            r.correlated_predicate.op is PredicateOp.EQUALS
            and not r.correlated_predicate.polarity
        )
    ]


def annotate_impacts(
    rules: Sequence[Rule], full_table: LogTable, kpi: KpiSpec
) -> list[Rule]:
    """Attach performance_impact and full-data row counts to each rule.

    The impact is the KPI delta between the rule's matching rows and the
    whole population: difference of means for a continuous KPI, of positive
    rates for a binary one. It is None, and the rule stale, when no row
    matches (extraction may have run on a sample of the full table).
    """
    if kpi.kind is KpiKind.CONTINUOUS:
        kpi_values = full_table.values(kpi.column)
    else:
        kpi_values = full_table.category_mask(kpi.column, kpi.positive_label)
    out = []
    for rule in rules:
        mask = full_table.conjunction_mask(rule.all_predicates())
        impact = float(kpi_values[mask].mean() - kpi_values.mean()) if mask.any() else None
        out.append(
            replace(
                rule,
                performance_impact=impact,
                full_row_count=int(mask.sum()),
                stale=impact is None,
            )
        )
    return out
