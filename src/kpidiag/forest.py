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
category that fails on all rows fails in every node. A cut after a bin the
node holds is thresholded at the midpoint of that bin's highest value and
the lowest value of the node's next bin, so the threshold selects exactly
the rows the tree counts. A missing cell is a value of its own, as in
XGBoost and LightGBM: a category "" that sorts first, or a bin 0 of NaN
bounds below every value. Its test is `Predicate.equals(name, "")`; every
other continuous cut sends the missing cells to its false side.

A node is its row ids. Each tree stacks its drawn features' bins as keys
of one array; a node gathers its rows' keys and targets into buffers that
every node of the tree reuses, counts rows and sums targets per key for
all features with one pair of bincounts, and scores every cut at once.
After a split only the smaller child is counted: the larger child's
histogram is its parent's minus the smaller one's (LightGBM's
subtraction). Counts and 0/1 targets subtract exactly; regression sums
round differently from a direct count, so a node whose best gain lies
within a derived rounding bound of the runner-up's, or of zero, is counted
again, and every split is the one a direct count gives. Trees grow in
forked workers, one per CPU the process may run on, unless the forest is
too small to repay their start; the output does not depend on the worker
count.

Models serialize to a line-oriented text dump that parses back losslessly:

    TREE <i> <Classification|Regression>
    <indent><attr>=<value>|<attr>><threshold>|LEAF \t <row_count> \t <metric>

with two spaces of indent per depth level and children in left (predicate
true) then right order. A line ends at "\n" only. An attribute that starts
with a space or '"', or holds "=", ">", a tab or a "\n", is written as a
JSON string.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DumpParseError, SchemaError
from .ingest import LogTable, forked_map, worker_count
from .model import ColumnKind, Predicate, PredicateOp

QUANTILE_BINS = 256
# Below this many split searches (see train) the trees grow in-process: a
# pool's start and per-tree transfers cost more than a second CPU saves.
# Measured crossover on 2 CPUs: 1,300-1,600, on 20- to 3,000-row tables.
_POOL_SEARCHES = 1500
_U = 2.0**-53  # unit roundoff of float64
# Most cells (features x rows) one pair of bincounts takes; a larger node
# goes through its features in groups. At this size the gather buffers and
# bincount's own intp copy of the keys stay in reused heap pages: one
# training on latency-train's table takes about 1,000 minor page faults in
# one process, and 2,200 at 1 << 21.
_GATHER_CELLS = 1 << 16
_UNSURE = object()  # _TreeSearch.split: the rounding bound covers another winner


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


def _bin_continuous(vals: np.ndarray):
    """(bin of each row, lowest value of each bin, highest value of each bin); NaNs make bin 0."""
    if (missing := np.isnan(vals)).any():
        present, low, high = _bin_continuous(vals[~missing])
        bins = np.zeros(vals.size, present.dtype)
        bins[~missing] = present + 1
        return bins, np.append(np.nan, low), np.append(np.nan, high)
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
            if not np.isfinite(self.y).all():
                raise SchemaError(f"regression target has {'missing' if np.isnan(self.y).any() else 'infinite'} values")
            # every split gain squares a sum of at most n * max|y|
            bound = float(np.abs(self.y).max(initial=0.0)) * self.y.size
            if not math.isfinite(bound * bound):
                raise SchemaError("regression target is too large: split sums overflow")
        self.bins: dict[str, np.ndarray] = {}
        self.widths: dict[str, int] = {}
        self.categories: dict[str, tuple[str, ...]] = {}  # of each bin but the rest bin
        self.bounds: dict[str, tuple[np.ndarray, np.ndarray]] = {}  # lowest, highest value per bin
        for name in features:
            if table.spec(name).kind is ColumnKind.CATEGORICAL:
                codes = table.codes(name) + 1  # missing is code 0, named ""
                cnt = np.bincount(codes)
                ok = (cnt >= min_rows) & (self.n - cnt >= min_rows)
                named = ("",) + table.categories(name)
                self.categories[name] = tuple(named[c] for c in ok.nonzero()[0])
                bins, width = np.where(ok, ok.cumsum() - 1, ok.sum())[codes], int(ok.sum()) + 1
            else:
                vals = table.values(name)
                if np.isinf(vals).any():
                    raise SchemaError(f"feature {name!r} has infinite values")
                bins, *self.bounds[name] = _bin_continuous(vals)
                width = self.bounds[name][0].size
            self.bins[name] = bins.astype(np.uint8 if width <= 256 else np.int32)
            self.widths[name] = width
        self.recounts = 0  # subtracted histograms that _grow_tree's guard counted again
        self._buffers: dict[str, np.ndarray] = {}

    def buffer(self, name: str, shape, dtype) -> np.ndarray:
        """An uninitialized array that every tree this process grows, one at a
        time, reuses: a new allocation per tree would fault its pages in again."""
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        if name not in self._buffers or self._buffers[name].size < nbytes:
            self._buffers[name] = np.empty(nbytes, np.uint8)
        return self._buffers[name][:nbytes].view(dtype).reshape(shape)

    def partition(self, idx, predicate: Predicate, b: int):
        """The left (predicate true) and right child's rows; a continuous missing test is bin 0."""
        bins = self.bins[predicate.attribute].take(idx)
        mask = bins == b if predicate.op is PredicateOp.EQUALS else bins > b
        return np.compress(mask, idx), np.compress(~mask, idx)


class _TreeSearch:
    """One tree's split search: histograms over all its drawn features.

    Each feature's bins become keys in one [features, rows] array: the
    continuous features first, each padded to the widest one's bin count so
    that their histograms reshape to one row per feature, then the
    categorical ones end to end. A histogram holds each key's row count and
    target sum over a node's rows, as a [2, keys] array.
    """

    def __init__(self, td: _TrainingData, features: Sequence[str]):
        self.td = td
        names = sorted(f for f in features if td.categories.get(f) != ())
        self.cont = [f for f in names if f in td.bounds]
        self.cat = [f for f in names if f not in td.bounds]
        self.width = max((td.widths[f] for f in self.cont), default=0)
        widths = [self.width] * len(self.cont) + [td.widths[f] for f in self.cat]
        self.starts = np.cumsum([0] + widths)  # each feature's first key, then the key count
        self.cont_size, self.size = len(self.cont) * self.width, int(self.starts[-1])
        self.keys = td.buffer("keys", (len(names), td.n), np.uint16 if self.size <= 1 << 16 else np.int32)
        self.order = np.empty(self.size, np.intp)  # rank in (attribute name, bin) order
        self.named = np.ones(self.size - self.cont_size, bool)  # categorical keys but rest bins
        for row, name, start, width in zip(self.keys, self.cont + self.cat, self.starts, widths):
            row[:] = td.bins[name]
            row += int(start)
            self.order[start : start + width] = names.index(name) * self.size + np.arange(width)
            if name in td.categories:
                self.named[start + width - 1 - self.cont_size] = False
        # a node's keys and targets, gathered for its bincounts
        cells = max(1, min(len(names), _GATHER_CELLS // td.n)) * td.n
        self._keys = td.buffer("gathered keys", (cells,), self.keys.dtype)
        self._weights = td.buffer("gathered targets", (cells,), np.float64)
        self._scratch = np.empty((3, self.size))  # candidate gain terms

    def count(self, idx, y_node) -> np.ndarray:
        """The histogram of the rows idx, whose targets are y_node."""
        m, hist = idx.size, np.empty((2, self.size))
        group = max(1, min(len(self.keys), self._keys.size // m))
        weights = self._weights[: group * m]
        weights.reshape(group, m)[:] = y_node
        for f in range(0, len(self.keys), group):
            g = min(group, len(self.keys) - f)
            keys, lo, hi = self._keys[: g * m], self.starts[f], self.starts[f + g]
            np.take(self.keys[f : f + g], idx, axis=1, out=keys.reshape(g, m), mode="clip")
            hist[0, lo:hi] = np.bincount(keys, minlength=hi)[lo:]
            hist[1, lo:hi] = np.bincount(keys, weights[: g * m], minlength=hi)[lo:]
        return hist

    def split(self, hist, n: int, y_sum: float, tol: float = 0.0):
        """The best split of the node of n rows, target sum y_sum, whose
        histogram this is: (gain, predicate, bin), or None if no gain is > 0.

        The left child is the bin (categorical, or the missing test) or the
        bins above it (continuous). Children under min_rows are rejected; ties
        break toward the smallest attribute name, then category/threshold. With tol > 0,
        the histogram's gains may each be off by tol, and _UNSURE comes back
        when that could change the winner or the sign of its gain.
        """
        min_rows = self.td.min_rows
        cont = hist[:, : self.cont_size].reshape(2, len(self.cont), self.width)
        below = cont.cumsum(axis=2)  # in each bin and the bins under it
        cuts = (cont[0] > 0) & (below[0] >= min_rows) & (below[0] <= n - min_rows)
        cnt, wsum = hist[:, self.cont_size :]
        picks = self.named & (cnt >= min_rows) & (cnt <= n - min_rows)
        keys = np.concatenate((cuts.ravel().nonzero()[0], self.cont_size + picks.nonzero()[0]))
        if keys.size == 0:
            return None
        gains = self._gains(
            n,
            np.concatenate((n - below[0][cuts], cnt[picks])),
            np.concatenate((y_sum - below[1][cuts], wsum[picks])),
            y_sum,
        )
        top = gains.max()
        ties = (gains == top).nonzero()[0]
        i = int(ties[self.order.take(keys.take(ties)).argmin()])
        if tol:
            gains[i] = -np.inf
            if abs(top) <= tol or top - gains.max(initial=-np.inf) <= 2 * tol:
                return _UNSURE
        if top <= 0.0:
            return None
        key, gain = int(keys[i]), float(top)
        if key >= self.cont_size:
            f = int(self.starts.searchsorted(key, side="right")) - 1
            b = key - int(self.starts[f])
            name = self.cat[f - len(self.cont)]
            return gain, Predicate.equals(name, self.td.categories[name][b]), b
        f, b = divmod(key, self.width)
        name = self.cont[f]
        lo_v = self.td.bounds[name][1][b]
        if math.isnan(lo_v):  # the cut after the missing cells' bin
            return gain, Predicate.equals(name, ""), b
        hi_v = self.td.bounds[name][0][b + 1 + int(cont[0, f, b + 1 :].nonzero()[0][0])]
        threshold = lo_v + (hi_v - lo_v) / 2.0
        # Adjacent representable floats can round the midpoint up to hi,
        # which would misplace hi on the wrong side; fall back to lo.
        return gain, Predicate.greater_than(name, float(threshold if threshold < hi_v else lo_v)), b

    def _gains(self, n: int, nl: np.ndarray, wl: np.ndarray, y_sum: float) -> np.ndarray:
        """Each candidate's gain, from left row counts nl (in [1, n - 1]) and
        left target sums wl; overwrites both."""
        s2, s3, s4 = (row[: nl.size] for row in self._scratch)
        if self.td.kind is TargetKind.CLASSIFICATION:
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
        return gains


def _grow_tree(td: _TrainingData, features: Sequence[str]) -> list:
    """The tree's nodes as (row_count, metric, split) in preorder: unlike
    nested TreeNodes, a flat list pickles at any depth.

    A node that can split carries its histogram. After a split only the
    smaller child is counted; the larger child's histogram is its parent's
    minus the smaller one's. Counts and 0/1 target sums subtract exactly.
    Regression target sums do not, so a subtracted histogram carries err, a
    bound on how far its target sums are off the exact ones (summed over
    each feature's keys), and its node is counted again when that could
    change the split.
    """
    search = _TreeSearch(td, features)
    nodes = []
    rows = np.arange(td.n)
    stack = [(rows, search.count(rows, td.y) if td.n >= 2 * td.min_rows else None, None)]
    while stack:
        idx, hist, err = stack.pop()
        m, y_node = idx.size, td.y.take(idx)
        y_sum = float(y_node.sum())
        found = s = None
        if hist is not None:
            tol = 0.0
            if td.kind is TargetKind.REGRESSION:
                magnitudes = np.abs(y_node)
                s, y_max = float(magnitudes.sum()), float(magnitudes.max())
            if err is not None:
                # How far each gain can lie from a direct count's, with u the
                # unit roundoff, s the node's sum of |y| and y_max its largest
                # |y|. Per feature, a direct count's target sums are off by at
                # most 2*m*u*s in all and this histogram's by err. Reading a
                # left or right sum through the cumsum over at most `width`
                # bins and the subtractions from y_sum adds (4*width + 4)*u*s,
                # so the two read each sum at most delta apart. A gain term
                # sum**2 / (rows * m), with |sum| <= rows * y_max, then moves by
                # at most 2*(y_max + delta)*delta/m, and either side rounds the
                # gain by at most 8u*(y_max + delta)*(s + delta)/m: the gains
                # differ by at most (y_max + delta)*(4*delta + 16u*(s + delta))/m,
                # doubled here for second-order terms.
                delta = err + (2 * m + 4 * search.width + 4) * _U * s
                tol = 2 * (y_max + delta) * (4 * delta + 16 * _U * (s + delta)) / m
            found = search.split(hist, m, y_sum, tol)
            if found is _UNSURE:
                td.recounts += 1
                hist, err = search.count(idx, y_node), None
                found = search.split(hist, m, y_sum)
        nodes.append((m, y_sum / m, None if found is None else found[1]))
        if found is None:
            continue
        left, right = td.partition(idx, found[1], found[2])
        if min(left.size, right.size) < td.min_rows:  # would regrow its parent forever
            raise RuntimeError(f"split {found[1]} leaves a child under {td.min_rows} rows")
        small, large = (left, right) if left.size <= right.size else (right, left)
        h_small = h_large = None
        if large.size >= 2 * td.min_rows:
            h_small = search.count(small, td.y.take(small))
            h_large = np.subtract(hist, h_small, out=hist)
            if s is not None:  # a subtraction's rounding, plus both operands' error
                err = (2 * m * _U * s if err is None else err) + (2 * small.size + 1) * _U * s
        children = [(small, h_small if small.size >= 2 * td.min_rows else None, None), (large, h_large, err)]
        stack += children[::-1] if small is left else children
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


def train(
    table: LogTable, labels_or_target: np.ndarray, hyperparams: Hyperparams
) -> ForestModel:
    """Train a forest on a (sampled) table; a missing feature cell is a value.

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
    grow = functools.partial(_grow_tree, td)
    trees = forked_map(grow, subsets, workers, lambda grown: list(map(_assemble, grown)))
    return ForestModel(trees, td.kind)


# -- text dump / parse -----------------------------------------------------


def _predicate_dump(p: Predicate) -> str:
    if not p.polarity:
        raise ValueError("tree split predicates are always polarity-true")
    attr = p.attribute
    if attr.startswith((" ", '"')) or any(c in attr for c in "=>\t\n"):
        attr = json.dumps(attr, ensure_ascii=False)
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
    header = 0  # the line of the last TREE header

    def close_tree():
        nonlocal root
        if not header:
            return
        if root is None:
            raise DumpParseError("TREE header without node lines", header)
        if stack:
            raise DumpParseError("split node is missing children", stack[-1][2])
        trees.append(root)
        root = None

    lines = text.split("\n")  # not splitlines: a category may hold "\r" or "\x85"
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if line.startswith("TREE "):
            close_tree()
            header, parts = line_no, line.split(" ")
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
    close_tree()
    if not trees:
        raise DumpParseError("empty dump: no trees found", None)
    return ForestModel(trees, kind)


def _parse_predicate(head: str, line_no: int) -> Predicate:
    if head.startswith('"'):  # an attribute written as a JSON string
        try:
            attr, cut = json.JSONDecoder().raw_decode(head)
        except ValueError:
            raise DumpParseError(f"cannot parse predicate {head!r}", line_no) from None
    else:
        cut = next((i for i, c in enumerate(head) if c in "=>"), 0)
        attr = head[:cut]
    if not attr or head[cut : cut + 1] not in ("=", ">"):
        raise DumpParseError(f"cannot parse predicate {head!r}", line_no)
    rest = head[cut + 1 :]
    if head[cut] == "=":
        return Predicate.equals(attr, rest)
    try:
        threshold = float(rest)
    except ValueError:
        raise DumpParseError(f"bad threshold {rest!r}", line_no) from None
    return Predicate.greater_than(attr, threshold)
