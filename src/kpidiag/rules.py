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
import math
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import ConfigError
from .model import KpiSpec, Predicate, PredicateOp, Rule

if TYPE_CHECKING:  # the array modules: a run config is read without numpy
    from .forest import ForestModel, TreeNode
    from .ingest import LogTable

# A scoring function maps (row_count, node_metric) -> score. Higher score
# means a worse (more degraded) population. Pure and deterministic.
ScoringFunction = Callable[[float, float], float]


# Builtin scoring functions by name, each as the expression it compiles to.
BUILTIN_SCORING = {"metric": "metric", "volume_weighted": "row_count * metric"}

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


def resolve_scoring(name_or_expr: str) -> ScoringFunction:
    """Compile a builtin's expression by name, else an arithmetic expression
    over `row_count` and `metric`.

    Only +, -, *, /, ** and numeric literals are allowed; anything else is
    rejected. Example: "row_count * metric ** 2". A score that is not finite
    raises a ValueError naming the expression.
    """
    expr = BUILTIN_SCORING.get(name_or_expr, name_or_expr)
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
        value = float(eval(code, {"__builtins__": {}}, {"row_count": row_count, "metric": metric}))
        if not math.isfinite(value):
            raise ValueError(f"scoring expression {expr!r} gives {value}, which is not a finite number")
        return value

    return score


def extract_rules(model: ForestModel, f: ScoringFunction) -> list[Rule]:
    """One candidate rule per split node, oriented toward the degraded side.

    Scope predicates are the root-to-parent path, each oriented along the
    branch taken. Nodes whose children score identically carry no signal
    and yield nothing. A node's score difference, f(left) - f(right), is
    the correlation score: positive means the predicate-true side is worse.
    A difference that is not finite raises a ValueError.
    """
    out: list[Rule] = []
    for tree in model.trees:
        # stack of (node, path predicates so far)
        stack: list[tuple[TreeNode, tuple[Predicate, ...]]] = [(tree, ())]
        while stack:
            node, path = stack.pop()
            if node.is_leaf:
                continue
            delta = f(node.left.row_count, node.left.metric) - f(
                node.right.row_count, node.right.metric
            )
            if not math.isfinite(delta):
                raise ValueError(f"the two sides of split {node.split.text()} differ in score by {delta}")
            if delta:  # not for a tie
                predicate, worse = (node.split, node.left) if delta > 0 else (node.split.flip(), node.right)
                out.append(Rule(predicate, path, abs(delta), worse.row_count))
            stack.append((node.left, path + (node.split,)))
            stack.append((node.right, path + (node.split.flip(),)))
    return out


class _Scope:
    """A rule's scope, ordered by each predicate's attribute, operator, value
    text and polarity in turn; only a tie on score and count compares it."""

    def __init__(self, rule: Rule):
        self.predicates = rule.scope_predicates

    def __lt__(self, other: "_Scope") -> bool:
        def texts(predicates):
            return [(p.attribute, p.op.value, str(p.value), p.polarity) for p in predicates]

        return texts(self.predicates) < texts(other.predicates)


def deduplicate(rules: Sequence[Rule]) -> list[Rule]:
    """Keep one rule per canonical predicate key: the max-score representative.

    Ties break toward the larger request count, then the lexicographically
    smallest scope, then the earlier rule. Output is ordered by descending
    score, then key.
    """
    best: dict[str, Rule] = {}
    for rule in sorted(rules, key=lambda r: (-r.correlation_score, -r.request_count, _Scope(r))):
        best.setdefault(rule.key(), rule)
    return sorted(best.values(), key=lambda r: (-r.correlation_score, r.key()))


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
    from . import prep
    kpi_values = prep.kpi_values(full_table, kpi)
    out = list(rules)
    # Rules share the prefixes of their tree paths. In this order each rule
    # ANDs in only the predicates past the prefix it shares with the last.
    order = sorted(range(len(rules)), key=lambda i: [
        (p.attribute, p.op.value, p.value, p.polarity) for p in rules[i].all_predicates()])
    path, masks = (), [full_table.conjunction_mask(())]  # masks[k]: the first k of path
    for i in order:
        predicates = rules[i].all_predicates()
        k = next((k for k, (a, b) in enumerate(zip(path, predicates)) if a != b), min(len(path), len(predicates)))
        path, masks = predicates, masks[:k + 1]
        for p in predicates[k:]:
            masks.append(masks[-1] & full_table.predicate_mask(p))
        out[i] = replace(rules[i], performance_impact=prep.impact(kpi_values, masks[-1]),
                         full_row_count=int(masks[-1].sum()))
    return out
