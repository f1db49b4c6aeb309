"""Random-forest training over log tables (CART-style binary trees).

Classification trees (binary labels) maximize information gain; regression
trees (continuous targets) maximize MSE reduction. Categorical attributes
split on one-vs-rest equality tests, continuous attributes on strict
greater-than thresholds. Per-tree randomness comes from feature subsampling
only; the trained model is never used for prediction, only mined for rules.

Split search runs on histograms (LightGBM; XGBoost's `hist`). Once per run
each feature becomes small integer bins. A continuous column gets one bin
per distinct value while it has at most QUANTILE_BINS of them, which keeps
the search exact, and else QUANTILE_BINS global equal-frequency bins. A
categorical column gets one bin per category that passes the min_rows test
on the whole table, and one rest bin, never a candidate, for the others: a
category that fails on all rows fails in every node. A node is its row ids;
per feature it counts rows and sums targets per bin. A cut after a bin the
node holds is thresholded at the midpoint of that bin's highest value and
the lowest value of the node's next bin, so the threshold selects exactly
the rows the tree counts. Trees grow in forked workers, one per CPU the
process may run on, unless the forest is too small to repay their start;
the output does not depend on the worker count.

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
from .ingest import LogTable, worker_count
from .model import ColumnKind, Predicate, PredicateOp

QUANTILE_BINS = 256
# Below this many split searches (see train) the trees grow in-process: a
# pool's start and per-tree transfers cost more than a second CPU saves.
# Measured crossover on 2 CPUs: 2,400-3,200, on 20- to 3,000-row tables.
_POOL_SEARCHES = 3000


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


def _bin_continuous(vals: np.ndarray):
    """(bin of each row, lowest value of each bin, highest value of each bin)."""
    uniq, inverse, counts = np.unique(vals, return_inverse=True, return_counts=True)
    if uniq.size <= QUANTILE_BINS:
        return inverse, uniq, uniq
    # a value's bin is the quantile of the rows below it, renumbered densely
    # where one heavily repeated value spans several quantiles
    quantile = (counts.cumsum() - counts) * QUANTILE_BINS // vals.size
    last = np.append(quantile[1:] != quantile[:-1], True)  # its bin's highest value
    return (last.cumsum() - last)[inverse], uniq[np.append(True, last[:-1])], uniq[last]


class _TrainingData:
    """Feature columns as bins (see the module docstring), shared by every
    tree of one training run; a node is its row ids, ascending."""

    def __init__(self, table: LogTable, features: Sequence[str], y: np.ndarray, min_rows: int):
        self.n = table.row_count
        self.min_rows = min_rows
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
        self.bins: dict[str, np.ndarray] = {}
        self.categories: dict[str, tuple[str, ...]] = {}  # of each bin but the rest bin
        self.bounds: dict[str, tuple[np.ndarray, np.ndarray]] = {}  # lowest, highest value per bin
        for name in features:
            if table.spec(name).kind is ColumnKind.CATEGORICAL:
                codes = table.codes(name)
                if (codes < 0).any():
                    raise SchemaError(f"feature {name!r} has missing values; impute first")
                cnt = np.bincount(codes)
                ok = (cnt >= min_rows) & (self.n - cnt >= min_rows)
                self.categories[name] = tuple(table.categories(name)[c] for c in ok.nonzero()[0])
                bins, width = np.where(ok, ok.cumsum() - 1, ok.sum())[codes], ok.sum() + 1
            else:
                vals = table.values(name)
                _require_finite(vals, f"feature {name!r}")
                bins, *self.bounds[name] = _bin_continuous(vals)
                width = self.bounds[name][0].size
            self.bins[name] = bins.astype(np.uint8 if width <= 256 else np.int32)
        self._scratch = np.empty((3, self.n))  # candidate gain terms

    def best_split(self, idx, features: Sequence[str]):
        """Max-gain (gain, predicate, bin) over all features, or None if no
        gain is > 0; the left child is the bin (categorical) or the bins above
        it (continuous). Children under min_rows are rejected; ties break
        toward the smallest attribute name, then category/threshold."""
        if idx.size == 0:
            raise ValueError("best_split on an empty node")
        n, min_rows = idx.size, self.min_rows
        y_node = self.y.take(idx)
        y_sum = float(y_node.sum())
        best = None
        for name in sorted(features):
            cats = self.categories.get(name)
            if cats == ():
                continue
            node_bins = self.bins[name].take(idx)
            cnt = np.bincount(node_bins)
            wsum = np.bincount(node_bins, weights=y_node)
            if cats is not None:
                cnt, wsum = cnt[: len(cats)], wsum[: len(cats)]
                cand = ((cnt >= min_rows) & (n - cnt >= min_rows)).nonzero()[0]
                nl, wl = cnt[cand], wsum[cand]
            else:  # a cut after a bin the node holds sends the bins above it left
                held = cnt.nonzero()[0]
                below = cnt[held].cumsum()[:-1]
                lo = int(below.searchsorted(min_rows, side="left"))
                hi = int(below.searchsorted(n - min_rows, side="right"))
                cand = held[lo:hi]
                nl, wl = n - below[lo:hi], y_sum - wsum[held].cumsum()[lo:hi]
            found = self._best_gain(n, nl.astype(np.float64), wl, y_sum) if nl.size else None
            if found is None or found[0] <= (0.0 if best is None else best[0]):
                continue
            b = int(cand[found[1]])
            if cats is not None:
                best = found[0], Predicate.equals(name, cats[b]), b
                continue
            lo_v, hi_v = self.bounds[name][1][b], self.bounds[name][0][held[lo + found[1] + 1]]
            threshold = lo_v + (hi_v - lo_v) / 2.0
            # Adjacent representable floats can round the midpoint up to hi,
            # which would misplace hi on the wrong side; fall back to lo.
            best = found[0], Predicate.greater_than(name, float(threshold if threshold < hi_v else lo_v)), b
        return best

    def partition(self, idx, predicate: Predicate, b: int):
        """The left (predicate true) and right child's rows."""
        bins = self.bins[predicate.attribute].take(idx)
        mask = bins == b if predicate.op is PredicateOp.EQUALS else bins > b
        return np.compress(mask, idx), np.compress(~mask, idx)

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


def _grow_tree(td: _TrainingData, features: Sequence[str]) -> list:
    """The tree's nodes as (row_count, metric, split) in preorder: unlike
    nested TreeNodes, a flat list pickles at any depth."""
    nodes = []
    stack = [np.arange(td.n)]
    while stack:
        idx = stack.pop()
        found = td.best_split(idx, features) if idx.size >= 2 * td.min_rows else None
        nodes.append((idx.size, float(td.y.take(idx).mean()), None if found is None else found[1]))
        if found is None:
            continue
        left, right = td.partition(idx, found[1], found[2])
        if min(left.size, right.size) < td.min_rows:  # would regrow its parent forever
            raise RuntimeError(f"split {found[1]} leaves a child under {td.min_rows} rows")
        stack += (right, left)
    return nodes


def _assemble(preorder: list) -> TreeNode:
    """The tree whose nodes _grow_tree listed."""
    root, *rest = (TreeNode(count, metric, split) for count, metric, split in preorder)
    waiting = [root] if root.split is not None else []  # split nodes short of a child
    for node in rest:
        parent = waiting[-1]
        if parent.left is None:
            parent.left = node
        else:
            parent.right = node
            waiting.pop()
        if node.split is not None:
            waiting.append(node)
    return root


_worker_data: list[_TrainingData] = []  # the run's data, appended only in train's pool workers


def _grow_in_worker(features: Sequence[str]) -> list:
    return _grow_tree(_worker_data[0], features)


def train(
    table: LogTable, labels_or_target: np.ndarray, hyperparams: Hyperparams
) -> ForestModel:
    """Train a forest on an (already imputed and sampled) table.

    A bool array trains classification trees, a float array regression
    trees. Each tree draws an independent feature subset of
    ceil(ratio * feature count) columns, then grows greedily until no split
    clears min_rows_in_leaf with positive gain. The subsets are drawn before
    any tree grows, so the output is deterministic under hyperparams.rng_seed
    whatever the number of worker processes.
    """
    y = np.asarray(labels_or_target)
    if table.row_count < 2:
        raise SchemaError("training needs at least 2 rows")
    if y.shape != (table.row_count,):
        raise SchemaError("labels/target length does not match the table")
    if y.dtype == bool and (y.all() or not y.any()):
        raise SchemaError("nothing to diagnose: all rows fall in one class")
    features = [s.name for s in table.feature_columns()]
    td = _TrainingData(table, features, y, hyperparams.min_rows_in_leaf)
    rng = np.random.default_rng(hyperparams.rng_seed)
    subset_size = max(1, math.ceil(hyperparams.feature_sample_ratio * len(features))) if features else 0
    subsets = [
        sorted(features[i] for i in rng.choice(len(features), size=subset_size, replace=False))
        if subset_size else []
        for _ in range(hyperparams.num_trees)
    ]
    # most split searches the forest can run: trees x features x leaves a tree can hold
    searches = len(subsets) * subset_size * (td.n // td.min_rows)
    workers = worker_count(len(subsets) if searches >= _POOL_SEARCHES else 1)
    if workers == 1:
        grown = [_grow_tree(td, subset) for subset in subsets]
    else:
        import multiprocessing  # here, not at module level: most commands never train

        with multiprocessing.get_context("fork").Pool(workers, _worker_data.append, (td,)) as pool:
            grown = pool.map(_grow_in_worker, subsets, chunksize=1)
    return ForestModel([_assemble(nodes) for nodes in grown], td.kind)


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
