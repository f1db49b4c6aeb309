"""Random-forest training over log tables (CART-style binary trees).

Classification trees (binary labels) maximize information gain; regression
trees (continuous targets) maximize MSE reduction. Categorical attributes
split on one-vs-rest equality tests, continuous attributes on strict
greater-than thresholds taken at midpoints between consecutive distinct
values (equi-frequency quantile cuts once a node holds more than
QUANTILE_SPLIT_LIMIT distinct values). Per-tree randomness comes from
feature subsampling only; the trained model is never used for prediction,
only mined for rules.

Split search is exact and sorts nothing per node (SLIQ/SPRINT presorted
attribute lists): each continuous column is argsorted once per run, a node
keeps its rows in that order, and a split partitions them stably; each cut
is scored from running sums over the node's sorted rows.

Models serialize to a line-oriented text dump that parses back losslessly:

    TREE <i> <Classification|Regression>
    <indent><attr>=<value>|<attr>><threshold>|LEAF \t <row_count> \t <metric>

with two spaces of indent per depth level and children in left (predicate
true) then right order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DumpParseError, SchemaError
from .ingest import LogTable
from .model import ColumnKind, Predicate, PredicateOp

QUANTILE_SPLIT_LIMIT = 10_000
QUANTILE_BINS = 256


class TargetKind(Enum):
    CLASSIFICATION = "Classification"
    REGRESSION = "Regression"


@dataclass(frozen=True)
class Hyperparams:
    """Knobs exposed by training.

    min_rows_in_leaf is an absolute row count here; the pipeline derives it
    from a percentage of the sample size. feature_sample_ratio=1.0 makes
    every tree identical since feature subsampling is the only randomness.
    """

    min_rows_in_leaf: int = 1
    feature_sample_ratio: float = 0.6
    num_trees: int = 50
    rng_seed: int = 0

    def __post_init__(self):
        if self.min_rows_in_leaf < 1:
            raise ValueError("min_rows_in_leaf must be >= 1")
        if not (0.0 < self.feature_sample_ratio <= 1.0):
            raise ValueError("feature_sample_ratio must be in (0, 1]")
        if self.num_trees < 1:
            raise ValueError("num_trees must be >= 1")


@dataclass
class TreeNode:
    """Tree node; treat as immutable once training returns.

    metric is the anomaly probability (positive fraction) for classification
    nodes and the mean target value for regression nodes. Split nodes carry
    a polarity-true predicate; left = predicate true.
    """

    row_count: int
    metric: float
    split: Predicate | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.split is None


@dataclass
class ForestModel:
    """A trained forest, or one parsed back from its text dump."""

    trees: list[TreeNode]
    target_kind: TargetKind


# -- training internals ----------------------------------------------------


def _weighted_entropy(pos, tot, out, tmp) -> np.ndarray:
    """out = tot * H(pos / tot) in bits for integer-valued 0 <= pos <= tot,
    tot >= 1; overwrites pos and tmp."""

    def _xlog2(x, buf):  # x * log2(x), 0 at 0; buf is not x
        return np.multiply(x, np.log2(np.maximum(x, 1.0, out=buf), out=buf), out=buf)

    _xlog2(tot, out)
    out -= _xlog2(pos, tmp)
    np.subtract(tot, pos, out=pos)
    out -= _xlog2(pos, tmp)
    return out


def _require_finite(values: np.ndarray, what: str) -> None:
    if np.isnan(values).any():
        raise SchemaError(f"{what} has missing values; impute first")
    if not np.isfinite(values).all():
        raise SchemaError(f"{what} has infinite values")


class _TrainingData:
    """Pre-encoded feature columns shared by every tree of one training run.

    A node is its row ids, ascending, plus per continuous feature the same
    rows in value order (ties by row id)."""

    def __init__(self, table: LogTable, features: Sequence[str], y: np.ndarray):
        self.n = table.row_count
        if y.dtype == bool:
            self.kind = TargetKind.CLASSIFICATION
            self.y = y.astype(np.float64)
        else:
            self.kind = TargetKind.REGRESSION
            self.y = np.asarray(y, dtype=np.float64)
            _require_finite(self.y, "regression target")
            # every split gain squares a sum of at most n * max|y|
            bound = float(np.abs(self.y).max(initial=0.0)) * self.y.size
            if not math.isfinite(bound * bound):
                raise SchemaError("regression target is too large: split sums overflow")
        self.cat_codes: dict[str, np.ndarray] = {}
        self.cat_values: dict[str, tuple[str, ...]] = {}
        self.cont_raw: dict[str, np.ndarray] = {}
        self.cont_order: dict[str, np.ndarray] = {}
        for name in features:
            if table.spec(name).kind is ColumnKind.CATEGORICAL:
                codes = table.codes(name)
                if (codes < 0).any():
                    raise SchemaError(f"feature {name!r} has missing values; impute first")
                self.cat_codes[name] = codes
                self.cat_values[name] = table.categories(name)
            else:
                vals = table.values(name)
                _require_finite(vals, f"feature {name!r}")
                self.cont_raw[name] = vals
                self.cont_order[name] = np.argsort(vals, kind="stable").astype(np.int32)
        # in_left marks the splitting node's left rows (entries of other rows
        # are stale and never read); scratch rows hold candidate gain terms.
        self._in_left = np.zeros(self.n, dtype=bool)
        self._scratch = np.empty((3, self.n))

    def node(self, features: Sequence[str]):
        """The root: (all row ids, {continuous feature: the rows in value order})."""
        cont = [f for f in features if f in self.cont_raw]
        return np.arange(self.n, dtype=np.int32), {f: self.cont_order[f] for f in cont}

    def best_split(self, idx, orders, features: Sequence[str], min_rows: int):
        """Max-gain (gain, predicate, category index or None) over all features,
        or None if no gain is > 0. Children under min_rows are rejected; ties
        break toward the smallest attribute name, then category/threshold."""
        if idx.size == 0:
            raise ValueError("best_split on an empty node")
        y_node = self.y.take(idx)
        y_sum = float(y_node.sum())
        best = None
        for name in sorted(features):
            if name in self.cat_codes:
                found = self._best_categorical(idx, y_node, name, min_rows, y_sum)
            else:
                found = self._best_continuous(orders[name], name, min_rows, y_sum)
            if found is not None and found[0] > (0.0 if best is None else best[0]):
                best = found
        return best

    def partition(self, idx, orders, predicate: Predicate, code, min_rows: int):
        """Stable split into the left (predicate true) and right child's (idx,
        orders); a child too small to split again gets no orders."""
        if code is not None:
            mask = self.cat_codes[predicate.attribute].take(idx) == code
        else:
            mask = self.cont_raw[predicate.attribute].take(idx) > predicate.value
        self._in_left[idx] = mask
        left, right = np.compress(mask, idx), np.compress(~mask, idx)
        left_orders, right_orders = {}, {}
        for name, order in orders.items():
            sel = self._in_left.take(order)
            if left.size >= 2 * min_rows:
                left_orders[name] = np.compress(sel, order)
            if right.size >= 2 * min_rows:
                right_orders[name] = np.compress(~sel, order)
        return (left, left_orders), (right, right_orders)

    def _best_gain(self, n: int, nl: np.ndarray, wl: np.ndarray, y_sum: float):
        """(gain, index) of the best candidate, from left row counts nl (in
        [1, n - 1]) and left target sums wl; overwrites both."""
        s2, s3, s4 = (row[: nl.size] for row in self._scratch)
        if self.kind is TargetKind.CLASSIFICATION:
            parent = _weighted_entropy(np.array([y_sum]), np.array([float(n)]), *np.empty((2, 1)))[0]
            np.subtract(y_sum, wl, out=s4)  # right-side positives
            gains = _weighted_entropy(wl, nl, s2, s3)
            np.subtract(n, nl, out=nl)  # right-side rows
            gains += _weighted_entropy(s4, nl, s3, wl)
            np.subtract(parent, gains, out=gains)
            gains /= n
        else:
            # gain = (sum_l^2/n_l + sum_r^2/n_r)/n - (sum/n)^2, algebraic form of
            # parent MSE minus weighted child MSEs (the y^2 terms cancel)
            right = np.subtract(y_sum, wl, out=s3)
            right *= right
            right /= np.subtract(n, nl, out=s2)
            gains = np.multiply(wl, wl, out=wl)
            gains /= nl
            gains += right
            gains /= n
            gains -= (y_sum / n) ** 2
        i = int(gains.argmax())
        return (float(gains[i]), i) if np.isfinite(gains[i]) else None

    def _best_categorical(self, idx, y_node, name, min_rows, y_sum):
        codes = self.cat_codes[name].take(idx)
        n = idx.size
        cnt = np.bincount(codes)
        ok = ((cnt >= min_rows) & (n - cnt >= min_rows)).nonzero()[0]
        if ok.size == 0:
            return None
        wsum = np.bincount(codes, weights=y_node)
        best = self._best_gain(n, cnt[ok].astype(np.float64), wsum[ok], y_sum)
        if best is None:
            return None
        code = int(ok[best[1]])
        return best[0], Predicate.equals(name, self.cat_values[name][code]), code

    def _best_continuous(self, order, name, min_rows, y_sum):
        n = order.size
        vals = self.cont_raw[name].take(order)
        change = vals[1:] != vals[:-1]
        # A cut after sorted position ends[j] sends n_right[j] rows right.
        ends = change.nonzero()[0]
        n_right = ends + 1
        lo = int(n_right.searchsorted(min_rows, side="left"))
        hi = int(n_right.searchsorted(n - min_rows, side="right"))
        if ends.size >= QUANTILE_SPLIT_LIMIT:  # more distinct values than the limit
            targets = n * (np.arange(1, QUANTILE_BINS + 1) / (QUANTILE_BINS + 1))
            cuts = np.unique(np.clip(n_right.searchsorted(targets), 0, ends.size - 1))
            cuts = cuts[(cuts >= lo) & (cuts < hi)]
        else:
            cuts = slice(lo, max(lo, hi))
        cut_ends = ends[cuts]
        if cut_ends.size == 0:
            return None
        # Running target sum over the distinct values, each value's rows summed
        # first; when every value is distinct those sums are the rows.
        sums = self.y.take(order)
        if ends.size < n - 1:
            group = np.concatenate(([0], change.cumsum(dtype=np.int32)))
            sums = np.bincount(group, weights=sums)
        n_left = (n - n_right[cuts]).astype(np.float64)
        best = self._best_gain(n, n_left, y_sum - sums.cumsum()[cuts], y_sum)
        if best is None:
            return None
        lo_v, hi_v = vals[cut_ends[best[1]]], vals[cut_ends[best[1]] + 1]
        threshold = lo_v + (hi_v - lo_v) / 2.0
        # Adjacent representable floats can round the midpoint up to hi,
        # which would misplace hi on the wrong side; fall back to lo.
        if threshold >= hi_v:
            threshold = lo_v
        return best[0], Predicate.greater_than(name, float(threshold)), None


def _grow_tree(td: _TrainingData, features: Sequence[str], min_rows: int) -> TreeNode:
    idx, orders = td.node(features)
    root = TreeNode(row_count=td.n, metric=float(td.y.mean()))
    stack = [(root, idx, orders)]
    while stack:
        node, idx, orders = stack.pop()
        if idx.size < 2 * min_rows:
            continue
        found = td.best_split(idx, orders, features, min_rows)
        if found is None:
            continue
        _, node.split, code = found
        (left, l_orders), (right, r_orders) = td.partition(idx, orders, node.split, code, min_rows)
        if min(left.size, right.size) < min_rows:  # would regrow its parent forever
            raise RuntimeError(f"split {node.split} leaves a child under {min_rows} rows")
        node.left = TreeNode(row_count=left.size, metric=float(td.y.take(left).mean()))
        node.right = TreeNode(row_count=right.size, metric=float(td.y.take(right).mean()))
        stack.append((node.left, left, l_orders))
        stack.append((node.right, right, r_orders))
    return root


def train(
    table: LogTable, labels_or_target: np.ndarray, hyperparams: Hyperparams
) -> ForestModel:
    """Train a forest on an (already imputed and sampled) table.

    A bool array trains classification trees, a float array regression
    trees. Each tree draws an independent feature subset of
    ceil(ratio * feature count) columns, then grows greedily until no split
    clears min_rows_in_leaf with positive gain. Deterministic under
    hyperparams.rng_seed.
    """
    y = np.asarray(labels_or_target)
    if table.row_count < 2:
        raise SchemaError("training needs at least 2 rows")
    if y.shape != (table.row_count,):
        raise SchemaError("labels/target length does not match the table")
    if y.dtype == bool and (y.all() or not y.any()):
        raise SchemaError("nothing to diagnose: all rows fall in one class")
    features = [s.name for s in table.feature_columns()]
    td = _TrainingData(table, features, y)
    rng = np.random.default_rng(hyperparams.rng_seed)
    subset_size = max(1, math.ceil(hyperparams.feature_sample_ratio * len(features))) if features else 0
    trees = []
    for _ in range(hyperparams.num_trees):
        if subset_size:
            picked = rng.choice(len(features), size=subset_size, replace=False)
            subset = sorted(features[i] for i in picked)
        else:
            subset = []
        trees.append(_grow_tree(td, subset, hyperparams.min_rows_in_leaf))
    return ForestModel(trees, td.kind)


# -- text dump / parse -----------------------------------------------------


def _predicate_dump(p: Predicate) -> str:
    if not p.polarity:
        raise ValueError("tree split predicates are always polarity-true")
    attr = p.attribute
    if any(c in attr for c in "=>\t\n"):
        raise ValueError(f"attribute name {attr!r} cannot appear in a model dump")
    if p.op is PredicateOp.EQUALS:
        value = str(p.value)
        if "\t" in value or "\n" in value:
            raise ValueError(f"category {value!r} cannot appear in a model dump")
        return f"{attr}={value}"
    return f"{attr}>{float(p.value)!r}"


def dump_text(model: ForestModel) -> str:
    """Readable, lossless text form of the whole forest."""
    lines: list[str] = []
    for i, tree in enumerate(model.trees):
        lines.append(f"TREE {i} {model.target_kind.value}")
        stack = [(tree, 0)]
        while stack:
            node, depth = stack.pop()
            head = "LEAF" if node.is_leaf else _predicate_dump(node.split)
            lines.append(f"{'  ' * depth}{head}\t{node.row_count}\t{float(node.metric)!r}")
            if not node.is_leaf:
                stack.append((node.right, depth + 1))
                stack.append((node.left, depth + 1))
    return "\n".join(lines) + "\n"


def parse_text(text: str) -> ForestModel:
    """Parse a dump back into a model, re-validating structure.

    Raises DumpParseError (with the offending line number) on malformed
    lines, bad indentation, incomplete trees, or child row counts that do
    not sum to their parent.
    """
    trees: list[TreeNode] = []
    kind: TargetKind | None = None
    root: TreeNode | None = None
    # stack entries: [node, depth, line_no]; a node pops once both children attach
    stack: list[list] = []

    def close_tree(line_no: int):
        nonlocal root
        if root is None:
            return
        if stack:
            raise DumpParseError("split node is missing children", stack[-1][2])
        trees.append(root)
        root = None

    lines = text.splitlines()
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if line.startswith("TREE "):
            close_tree(line_no)
            parts = line.split(" ")
            if len(parts) != 3:
                raise DumpParseError("malformed TREE header", line_no)
            if parts[1] != str(len(trees)):
                raise DumpParseError(
                    f"expected tree index {len(trees)}, got {parts[1]!r}", line_no
                )
            try:
                this_kind = TargetKind(parts[2])
            except ValueError:
                raise DumpParseError(f"unknown tree kind {parts[2]!r}", line_no) from None
            if kind is None:
                kind = this_kind
            elif kind is not this_kind:
                raise DumpParseError("mixed tree kinds in one dump", line_no)
            continue
        if kind is None:
            raise DumpParseError("node line before any TREE header", line_no)
        stripped = line.lstrip(" ")
        indent = len(line) - len(stripped)
        if indent % 2:
            raise DumpParseError("odd indentation", line_no)
        depth = indent // 2
        fields = stripped.split("\t")
        if len(fields) != 3:
            raise DumpParseError("expected 3 tab-separated fields", line_no)
        head, count_s, metric_s = fields
        try:
            row_count = int(count_s)
            metric = float(metric_s)
        except ValueError:
            raise DumpParseError("bad row count or metric", line_no) from None
        if row_count < 0:
            raise DumpParseError("negative row count", line_no)
        if kind is TargetKind.CLASSIFICATION and not (0.0 <= metric <= 1.0):
            raise DumpParseError("classification metric outside [0, 1]", line_no)
        node = TreeNode(row_count=row_count, metric=metric)
        if head != "LEAF":
            node.split = _parse_predicate(head, line_no)
        if root is None:
            if depth != 0:
                raise DumpParseError("tree root must not be indented", line_no)
            root = node
        else:
            if not stack:
                raise DumpParseError("unexpected extra node after a complete tree", line_no)
            parent, parent_depth, parent_line = stack[-1]
            if depth != parent_depth + 1:
                raise DumpParseError(
                    f"expected indent depth {parent_depth + 1}, got {depth}", line_no
                )
            if parent.left is None:
                parent.left = node
            else:
                parent.right = node
                if parent.left.row_count + parent.right.row_count != parent.row_count:
                    raise DumpParseError(
                        "child row counts do not sum to the parent's", line_no
                    )
                stack.pop()
        if node.split is not None:
            stack.append([node, depth, line_no])
    close_tree(len(lines))
    if not trees:
        raise DumpParseError("empty dump: no trees found", None)
    return ForestModel(trees, kind)


def _parse_predicate(head: str, line_no: int) -> Predicate:
    cut = None
    for i, c in enumerate(head):
        if c in "=>":
            cut = i
            break
    if cut is None or cut == 0:
        raise DumpParseError(f"cannot parse predicate {head!r}", line_no)
    attr, rest = head[:cut], head[cut + 1 :]
    if head[cut] == "=":
        return Predicate.equals(attr, rest)
    try:
        threshold = float(rest)
    except ValueError:
        raise DumpParseError(f"bad threshold {rest!r}", line_no) from None
    return Predicate.greater_than(attr, threshold)
