import datetime
import hashlib
import os

import numpy as np
import pytest

from kpidiag import forest
from kpidiag.errors import DumpParseError, SchemaError
from kpidiag.forest import (
    QUANTILE_BINS,
    ForestModel,
    Hyperparams,
    TargetKind,
    TreeNode,
    dump_text,
    parse_text,
    train,
)
from kpidiag.model import ColumnKind, KpiKind, Predicate, PredicateOp
from kpidiag.pipeline import read_model
from kpidiag.synth import AttributeSpec, FaultSpec, GeneratorConfig, KpiProfile, generate

from conftest import make_table
from oracles import (
    best_split,
    cell,
    forest_structure_equal,
    iter_rows,
    iter_split_nodes,
    oracle_best_gain,
    oracle_entropy,
    oracle_information_gain,
    oracle_mse_reduction,
    row,
)


def _entropy(pos, neg):
    return oracle_entropy([True] * pos + [False] * neg)


class TestEntropy:
    def test_uniform_binary(self):
        assert _entropy(5, 5) == 1.0

    def test_pure_class(self):
        assert _entropy(10, 0) == 0.0
        assert _entropy(0, 10) == 0.0

    def test_quarter_split(self):
        assert _entropy(1, 3) == pytest.approx(0.8112781244591328, abs=1e-12)


class TestInformationGain:
    def test_perfect_separation(self):
        labels = [True] * 4 + [False] * 4
        mask = [True] * 4 + [False] * 4
        assert oracle_information_gain(labels, mask) == pytest.approx(1.0, abs=1e-12)

    def test_identical_mix_gains_nothing(self):
        labels = [True, False, True, False]
        mask = [True, True, False, False]
        assert oracle_information_gain(labels, mask) == pytest.approx(0.0, abs=1e-12)

    def test_three_one_split(self):
        labels = [True] * 4 + [False] * 4
        mask = [True, True, True, False, True, False, False, False]
        assert oracle_information_gain(labels, mask) == pytest.approx(
            1.0 - 0.8112781244591328, abs=1e-9
        )

    def test_empty_branch_contributes_nothing(self):
        labels = [True, False]
        assert oracle_information_gain(labels, [True, True]) == pytest.approx(0.0, abs=1e-12)


class TestMseReduction:
    def test_separating_split(self):
        assert oracle_mse_reduction([0.0, 0.0, 10.0, 10.0], [True, True, False, False]) == 25.0

    def test_all_equal_targets(self):
        for mask in ([True, False, False, True], [True, True, True, False]):
            assert oracle_mse_reduction([5.0, 5.0, 5.0, 5.0], mask) == 0.0

    def test_outlier_isolation_matches_oracle(self):
        targets = [1.0, 1.0, 1.0, 100.0]
        mask = [False, False, False, True]
        assert oracle_mse_reduction(targets, mask) == pytest.approx(1837.6875, abs=1e-9)


class TestBestSplit:
    def test_pure_node_has_no_split(self):
        table = make_table({"X": ("cat", ["a", "b"] * 5)})
        labels = np.ones(10, dtype=bool)
        assert best_split(table, labels) is None

    def test_symmetric_tie_breaks_lexicographically(self):
        table = make_table({"X": ("cat", ["a"] * 10 + ["b"] * 10)})
        labels = np.array([True] * 10 + [False] * 10)
        cand = best_split(table, labels)
        assert cand.gain == pytest.approx(1.0, abs=1e-12)
        assert cand.predicate == Predicate.equals("X", "a")

    def test_continuous_midpoint(self):
        table = make_table({"X": ("cont", [1.0, 2.0, 3.0, 4.0])})
        labels = np.array([False, False, True, True])
        cand = best_split(table, labels)
        assert cand.predicate == Predicate.greater_than("X", 2.5)
        assert cand.gain == pytest.approx(1.0, abs=1e-12)

    def test_min_rows_rejects_undersized_children(self):
        table = make_table({"X": ("cont", [1.0, 2.0, 3.0, 4.0])})
        labels = np.array([False, False, False, True])
        # the best cut isolates the single positive row...
        assert best_split(table, labels).predicate.value == 3.5
        # ...but min_rows=2 rejects it, falling back to the 2/2 cut
        cand = best_split(table, labels, min_rows_in_leaf=2)
        assert cand.predicate.value == 2.5
        # and no cut at all can satisfy two 3-row children from 4 rows
        assert best_split(table, labels, min_rows_in_leaf=3) is None

    def test_attribute_tie_prefers_smaller_name(self):
        table = make_table(
            {"B": ("cat", ["x"] * 5 + ["y"] * 5), "A": ("cat", ["x"] * 5 + ["y"] * 5)}
        )
        labels = np.array([True] * 5 + [False] * 5)
        cand = best_split(table, labels)
        assert cand.predicate.attribute == "A"

    def test_empty_node_rejected(self):
        table = make_table({"X": ("cat", ["a"])})
        with pytest.raises(ValueError):
            best_split(table, np.array([True]), idx=np.array([], dtype=int))

    def test_constant_column_never_splits(self):
        # cross-check with the pruning advisory: a "constant" column can
        # produce no candidate with positive gain
        table = make_table(
            {"Const": ("cat", ["same"] * 8), "ConstNum": ("cont", [3.0] * 8)}
        )
        labels = np.array([True, False] * 4)
        assert best_split(table, labels) is None

    def test_quantile_path_stays_close_to_exact(self):
        n = 20_001
        values = np.arange(n, dtype=float)
        table = make_table({"X": ("cont", list(values))})
        labels = values > 10_000
        cand = best_split(table, labels)
        assert cand.predicate.op is PredicateOp.GREATER_THAN
        assert 9_900 <= cand.predicate.value <= 10_100
        assert cand.gain > 0.9

    def test_small_node_path_matches_oracle(self, rng):
        values = list(rng.normal(size=1000))
        table = make_table({"X": ("cont", values)})
        labels = rng.random(1000) < 0.5
        idx = np.sort(rng.choice(1000, size=12, replace=False))
        cand = best_split(table, labels, idx=idx)
        rows = [row(table, int(i)) for i in idx]
        expected = oracle_best_gain(
            rows, [bool(labels[i]) for i in idx], [("X", "cont")], 1, True
        )
        if cand is None:
            assert expected is None or expected <= 1e-9
        else:
            assert cand.gain == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("bad", [-np.inf, np.inf])
    def test_non_finite_feature_rejected(self, bad):
        # -inf made the midpoint threshold -inf + (1 + inf) / 2 = nan: "X > nan"
        table = make_table({"X": ("cont", [1.0, bad, 2.0, 3.0])})
        with pytest.raises(SchemaError, match="feature 'X' has infinite values"):
            best_split(table, np.array([False, False, True, True]))

    @pytest.mark.parametrize("bad", [-np.inf, np.inf])
    def test_non_finite_target_rejected(self, bad):
        table = make_table({"X": ("cont", [0.0, 1.0, 2.0, 3.0])})
        with pytest.raises(SchemaError, match="regression target has infinite values"):
            best_split(table, np.array([1.0, 2.0, bad, 4.0]))


def _random_problem(rng, classification, sizes=(2, 13)):
    n = int(rng.integers(*sizes))
    n_features = int(rng.integers(1, 4))
    columns = {}
    features = []
    for j in range(n_features):
        name = f"f{j}"
        if rng.random() < 0.5:
            pool = ["a", "b", "c", "d"][: int(rng.integers(2, 5))]
            columns[name] = ("cat", [pool[int(k)] for k in rng.integers(0, len(pool), n)])
            features.append((name, "cat"))
        else:
            # small value pool so duplicates are common
            columns[name] = ("cont", [float(v) for v in rng.integers(0, 6, n)])
            features.append((name, "cont"))
    table = make_table(columns)
    if classification:
        y = rng.random(n) < 0.5
    else:
        y = np.round(rng.uniform(0, 100, n), 3)
    return table, y, features


@pytest.mark.parametrize("classification", [True, False])
def test_best_split_matches_brute_force(classification):
    rng = np.random.default_rng(7 if classification else 8)
    for trial in range(150):
        table, y, features = _random_problem(rng, classification)
        min_rows = int(rng.integers(1, 4))
        cand = best_split(table, y, min_rows_in_leaf=min_rows)
        rows = list(iter_rows(table))
        expected = oracle_best_gain(rows, list(y), features, min_rows, classification)
        if cand is None:
            assert expected is None or expected <= 1e-9, f"trial {trial}"
        else:
            assert expected is not None, f"trial {trial}"
            assert cand.gain == pytest.approx(expected, abs=1e-9), f"trial {trial}"


def _split_nodes_with_rows(tree, table):
    """Every split node with its row ids, rebuilt from the root by replaying
    the ancestor predicates on the table."""
    stack = [(tree, np.arange(table.row_count))]
    while stack:
        node, rows = stack.pop()
        if node.is_leaf:
            continue
        yield node, rows
        mask = table.predicate_mask(node.split)[rows]
        stack.append((node.left, rows[mask]))
        stack.append((node.right, rows[~mask]))


@pytest.mark.parametrize("classification", [True, False])
def test_every_split_node_is_the_best_split_of_its_rows(classification):
    # Integer-valued continuous columns make ties common; a partition that
    # loses or reorders rows shows up below the root, where oracle checks of
    # a single best_split call never look.
    rng = np.random.default_rng(11 if classification else 12)
    checked = 0
    for trial in range(12):
        table, y, features = _random_problem(rng, classification, sizes=(30, 60))
        if classification and (y.all() or not y.any()):
            continue
        min_rows = int(rng.integers(1, 4))
        hp = Hyperparams(min_rows_in_leaf=min_rows, feature_sample_ratio=1.0, num_trees=1)
        tree = train(table, y, hp).trees[0]
        for node, rows in _split_nodes_with_rows(tree, table):
            assert node.row_count == rows.size, f"trial {trial}"
            assert node.metric == float(np.asarray(y[rows], dtype=np.float64).mean())
            cand = best_split(table, y, min_rows_in_leaf=min_rows, idx=rows)
            assert cand.predicate == node.split, f"trial {trial}"
            expected = oracle_best_gain(
                [row(table, int(i)) for i in rows], list(y[rows]), features, min_rows, classification
            )
            assert cand.gain == pytest.approx(expected, abs=1e-9), f"trial {trial}"
            checked += 1
    assert checked >= 60


def _tie_table(features, targets):
    """240 rows whose gains tie exactly below the root: two copies of each
    column, or a category T that holds exactly the rows above a threshold of
    X. G's larger effect splits the root, so the ties recur in its children.
    Targets: 0/1 labels, two decimals, integers, or magnitudes spanning 12
    decades."""
    rng = np.random.default_rng(31)
    n = 240
    x = rng.integers(0, 12, n).astype(float)
    g = rng.integers(0, 3, n)
    columns = {"X": ("cont", list(x)), "G": ("cat", [f"g{v}" for v in g])}
    if features == "duplicated columns":
        columns |= {"H": columns["G"], "Y": columns["X"]}
    else:
        columns["T"] = ("cat", ["hi" if v > 8 else f"lo{rng.integers(0, 2)}" for v in x])
    effect = 3.0 * (g == 1) + (x > 8)
    if targets == "binary":
        y = rng.random(n) < 0.1 + 0.2 * effect
    elif targets == "decimals":
        y = np.round(rng.lognormal(size=n) + effect, 2)
    elif targets == "integers":
        y = rng.integers(0, 4, n) + 2.0 * effect
    else:
        y = 10.0 ** rng.uniform(-6.0, 6.0, n) * (1.0 + effect)
    return make_table(columns), y


@pytest.mark.parametrize("targets", ["binary", "decimals", "integers", "wide range"])
@pytest.mark.parametrize("features", ["duplicated columns", "category = threshold"])
def test_subtracted_histograms_split_as_the_oracle_on_exact_ties(features, targets):
    # Subtracted regression sums round unlike a direct count; where that could
    # change a split, the guard counts the node again. 0/1 sums are exact.
    table, y = _tie_table(features, targets)
    names = [s.name for s in table.feature_columns()]
    td = forest._TrainingData(table, names, y, 3)
    tree = forest._assemble(forest._grow_tree(td, sorted(names)))
    checked = 0
    for node, rows in _split_nodes_with_rows(tree, table):
        assert node.row_count == rows.size
        assert node.split == best_split(table, y, min_rows_in_leaf=3, idx=rows).predicate
        checked += 1
    assert checked >= 15
    assert (td.recounts > 0) == (targets != "binary")


def test_guard_recounts_are_rare_on_a_latency_train_table():
    # the benchmark's latency-train shape: 20k rows, 12 categorical and 8
    # lognormal attributes, 20 trees of 12 features, min_rows 200
    cards = (10, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 10000)
    attrs = tuple(AttributeSpec(f"C{i}", ColumnKind.CATEGORICAL, cardinality=c) for i, c in enumerate(cards))
    attrs += tuple(AttributeSpec(f"X{i}", ColumnKind.CONTINUOUS, distribution="lognormal") for i in range(8))
    kpi = KpiProfile(column="Latency", kind=KpiKind.CONTINUOUS, mu=0.0, sigma=1.0)
    fault = FaultSpec(trigger=(Predicate.equals("C2", attrs[2].value(7)),), shift=50.0)
    table, _ = generate(GeneratorConfig(attrs, 20_000, kpi, (fault,), seed=3), datetime.date(2026, 8, 10))
    names = [s.name for s in table.feature_columns()]
    td = forest._TrainingData(table, names, table.values("Latency"), 200)
    rng = np.random.default_rng(0)
    splits = 0
    for _ in range(20):
        subset = sorted(rng.choice(names, size=12, replace=False))
        splits += sum(split is not None for _, _, split in forest._grow_tree(td, subset))
    assert splits > 1000
    assert td.recounts <= splits // 50


def _walk(node):
    yield node
    if not node.is_leaf:
        yield from _walk(node.left)
        yield from _walk(node.right)


def _toy_model(num_trees=5, ratio=1.0, min_rows=1, seed=0):
    table = make_table(
        {
            "Good": ("cat", ["p"] * 10 + ["n"] * 10),
            "Noise": ("cat", ["x", "y"] * 10),
        }
    )
    labels = np.array([True] * 10 + [False] * 10)
    hp = Hyperparams(
        min_rows_in_leaf=min_rows,
        feature_sample_ratio=ratio,
        num_trees=num_trees,
        rng_seed=seed,
    )
    return train(table, labels, hp), table, labels


class TestTrain:
    def test_perfect_feature_wins_every_root(self):
        model, _, _ = _toy_model(num_trees=5, ratio=1.0)
        assert len(model.trees) == 5
        for tree in model.trees:
            assert tree.split.attribute == "Good"

    def test_ratio_one_makes_identical_trees(self):
        model, _, _ = _toy_model(num_trees=4, ratio=1.0, seed=3)
        first = ForestModel([model.trees[0]], model.target_kind)
        for tree in model.trees[1:]:
            assert forest_structure_equal(first, ForestModel([tree], model.target_kind))

    def test_min_rows_equal_to_table_gives_single_leaves(self):
        model, _, _ = _toy_model(min_rows=20)
        for tree in model.trees:
            assert tree.is_leaf
            assert tree.row_count == 20

    def test_single_class_is_an_error(self):
        table = make_table({"X": ("cat", ["a", "b"])})
        with pytest.raises(SchemaError, match="nothing to diagnose"):
            train(table, np.array([True, True]), Hyperparams(num_trees=1))

    def test_child_counts_sum_to_parent(self):
        model, _, _ = _toy_model(num_trees=3, ratio=1.0)
        for tree in model.trees:
            for node in iter_split_nodes(tree):
                assert node.left.row_count + node.right.row_count == node.row_count

    def test_classification_metric_is_a_conserved_probability(self, rng):
        table = make_table(
            {
                "A": ("cat", [str(v) for v in rng.integers(0, 3, 200)]),
                "B": ("cont", list(rng.normal(size=200))),
            }
        )
        labels = rng.random(200) < 0.3
        if labels.all() or not labels.any():
            labels[0] = not labels[0]
        model = train(table, labels, Hyperparams(num_trees=3, min_rows_in_leaf=5, rng_seed=1))
        for tree in model.trees:
            for node in _walk(tree):
                assert 0.0 <= node.metric <= 1.0
            for node in iter_split_nodes(tree):
                blended = (
                    node.left.row_count * node.left.metric
                    + node.right.row_count * node.right.metric
                ) / node.row_count
                assert node.metric == pytest.approx(blended, abs=1e-9)

    def test_regression_metric_conserves_the_mean(self, rng):
        table = make_table({"A": ("cat", [str(v) for v in rng.integers(0, 5, 100)])})
        y = rng.uniform(0, 50, 100)
        model = train(table, y, Hyperparams(num_trees=2, min_rows_in_leaf=3, rng_seed=2))
        for tree in model.trees:
            for node in iter_split_nodes(tree):
                blended = (
                    node.left.row_count * node.left.metric
                    + node.right.row_count * node.right.metric
                ) / node.row_count
                assert node.metric == pytest.approx(blended, rel=1e-9)

    def test_no_leaf_below_min_rows(self, rng):
        table = make_table(
            {
                "A": ("cat", [str(v) for v in rng.integers(0, 4, 120)]),
                "B": ("cont", list(rng.normal(size=120))),
            }
        )
        labels = rng.random(120) < 0.4
        model = train(table, labels, Hyperparams(num_trees=4, min_rows_in_leaf=10, rng_seed=4))
        for tree in model.trees:
            for node in _walk(tree):
                if node.is_leaf and node is not tree:
                    assert node.row_count >= 10

    def test_constant_column_never_appears(self, rng):
        table = make_table(
            {
                "Const": ("cat", ["same"] * 80),
                "Real": ("cat", [str(v) for v in rng.integers(0, 2, 80)]),
            }
        )
        labels = np.array([cell(table, "Real", i) == "1" for i in range(80)])
        model = train(table, labels, Hyperparams(num_trees=6, rng_seed=5))
        used = {n.split.attribute for t in model.trees for n in iter_split_nodes(t)}
        assert "Const" not in used

    def test_deterministic_under_seed(self):
        a, _, _ = _toy_model(num_trees=5, ratio=0.5, seed=11)
        b, _, _ = _toy_model(num_trees=5, ratio=0.5, seed=11)
        assert dump_text(a) == dump_text(b)

    def test_feature_missing_values_rejected(self):
        table = make_table({"X": ("cat", ["a", None, "b", "a"])})
        with pytest.raises(SchemaError, match="impute"):
            train(table, np.array([True, False, True, False]), Hyperparams(num_trees=1))

    @pytest.mark.parametrize("bad", [-np.inf, np.inf])
    def test_non_finite_target_rejected(self, bad):
        # an inf target made every gain nan: single-leaf trees and no error
        table = make_table({"Rack": ("cat", ["r1", "r2"] * 10)})
        y = np.tile([30.0, 1.0], 10)
        y[4] = bad
        with pytest.raises(SchemaError, match="regression target has infinite values"):
            train(table, y, Hyperparams(num_trees=1))

    def test_overflowing_target_rejected(self):
        # every target is finite, but the squared sums of a split overflow
        table = make_table({"Rack": ("cat", ["r1", "r2"] * 10)})
        y = np.tile([1e200, 2e200], 10)
        with pytest.raises(SchemaError, match="regression target is too large"):
            train(table, y, Hyperparams(num_trees=1))

    def test_non_finite_feature_rejected(self):
        table = make_table({"X": ("cont", [1.0, 2.0, 3.0, np.inf] * 5)})
        y = np.tile([1.0, 2.0, 3.0, 4.0], 5)
        with pytest.raises(SchemaError, match="feature 'X' has infinite values"):
            train(table, y, Hyperparams(num_trees=1))

    def test_needs_two_rows(self):
        table = make_table({"X": ("cat", ["a"])})
        with pytest.raises(SchemaError):
            train(table, np.array([True]), Hyperparams(num_trees=1))


class TestDumpAndParse:
    def test_single_leaf_format(self):
        model = ForestModel([TreeNode(row_count=10, metric=0.5)], TargetKind.CLASSIFICATION)
        assert dump_text(model) == "TREE 0 Classification\nLEAF\t10\t0.5\n"

    def test_depth_two_has_three_lines_and_counts_sum(self):
        model, _, _ = _toy_model(num_trees=1, min_rows=10)
        text = dump_text(model)
        lines = text.strip().split("\n")
        assert lines[0] == "TREE 0 Classification"
        assert len(lines) == 4  # header + root + 2 leaves
        assert lines[2].startswith("  LEAF") and lines[3].startswith("  LEAF")

    def test_round_trip_structural_equality(self, rng):
        table = make_table(
            {
                "A": ("cat", [str(v) for v in rng.integers(0, 3, 150)]),
                "B": ("cont", list(rng.lognormal(size=150))),
            }
        )
        y = rng.lognormal(size=150)
        model = train(table, y, Hyperparams(num_trees=4, min_rows_in_leaf=5, rng_seed=6))
        parsed = parse_text(dump_text(model))
        assert forest_structure_equal(model, parsed)
        assert dump_text(parsed) == dump_text(model)

    def test_multi_tree_round_trip(self):
        model, _, _ = _toy_model(num_trees=3, ratio=0.5, seed=9)
        parsed = parse_text(dump_text(model))
        assert len(parsed.trees) == 3
        assert forest_structure_equal(model, parsed)

    def test_hand_written_dump_parses(self):
        text = (
            "TREE 0 Regression\n"
            "Lat>2.5\t4\t5.0\n"
            "  LEAF\t2\t9.0\n"
            "  Region=EU\t2\t1.0\n"
            "    LEAF\t1\t1.5\n"
            "    LEAF\t1\t0.5\n"
        )
        model = parse_text(text)
        root = model.trees[0]
        assert root.split == Predicate.greater_than("Lat", 2.5)
        assert root.right.split == Predicate.equals("Region", "EU")

    def test_empty_dump_is_an_error(self):
        with pytest.raises(DumpParseError, match="empty"):
            parse_text("")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("TREE 0 Regression\nLEAF\t3\t1.5\nTREE 1 Regression\n", 3),
            ("TREE 0 Regression\nTREE 1 Regression\nLEAF\t3\t1.5\n", 1),
        ],
        ids=["last", "before-another-header"],
    )
    def test_a_tree_header_without_nodes_names_its_line(self, text, line):
        with pytest.raises(DumpParseError, match=f"^line {line}: TREE header without node lines$"):
            parse_text(text)

    def test_count_mismatch_reports_line(self):
        text = "TREE 0 Classification\nA=x\t10\t0.5\n  LEAF\t3\t0.1\n  LEAF\t3\t0.9\n"
        with pytest.raises(DumpParseError, match="line 4"):
            parse_text(text)

    def test_incomplete_split_is_an_error(self):
        text = "TREE 0 Classification\nA=x\t10\t0.5\n  LEAF\t5\t0.1\n"
        with pytest.raises(DumpParseError, match="missing children"):
            parse_text(text)

    def test_bad_metric_reports_line(self):
        with pytest.raises(DumpParseError, match="line 2"):
            parse_text("TREE 0 Classification\nLEAF\t10\tpear\n")

    def test_classification_metric_range_checked(self):
        with pytest.raises(DumpParseError, match="\\[0, 1\\]"):
            parse_text("TREE 0 Classification\nLEAF\t10\t1.5\n")

    def test_odd_indent_rejected(self):
        text = "TREE 0 Classification\nA=x\t10\t0.5\n LEAF\t5\t0.1\n LEAF\t5\t0.9\n"
        with pytest.raises(DumpParseError, match="odd indent"):
            parse_text(text)

    # a CSV header "K, A" names the column " A"; these attributes are written as JSON strings
    @pytest.mark.parametrize("attr", [" A", "  A", "a=b", "x>y", '"q', "a\tb", "a\nb"])
    def test_attribute_names_that_need_quoting_round_trip(self, attr):
        for split in (Predicate.equals(attr, "x=y"), Predicate.greater_than(attr, 1.5)):
            leaf = TreeNode(2, 0.5, split, TreeNode(1, 0.0), TreeNode(1, 1.0))
            model = ForestModel([TreeNode(4, 0.5, Predicate.equals("B", "b"), leaf, leaf)], TargetKind.CLASSIFICATION)
            text = dump_text(model)
            assert forest_structure_equal(parse_text(text), model)
            assert dump_text(parse_text(text)) == text

    def test_a_plain_attribute_is_not_quoted(self):
        model = ForestModel([TreeNode(2, 0.5, Predicate.equals("A B", "x"), TreeNode(1, 0.0), TreeNode(1, 1.0))], TargetKind.CLASSIFICATION)
        assert dump_text(model).splitlines()[1] == "A B=x\t2\t0.5"

    @pytest.mark.parametrize("head", ['"A=x', '"A"x', '"A"', '""=x', '"\\q"=x'])
    def test_a_malformed_quoted_attribute_names_its_line(self, head):
        with pytest.raises(DumpParseError, match="line 2"):
            parse_text(f"TREE 0 Classification\n{head}\t2\t0.5\n  LEAF\t1\t0.0\n  LEAF\t1\t1.0\n")

    def test_value_containing_separators_round_trips(self):
        model = ForestModel(
            [
                TreeNode(
                    row_count=2,
                    metric=0.5,
                    split=Predicate.equals("A", "x=y>z"),
                    left=TreeNode(1, 0.0),
                    right=TreeNode(1, 1.0),
                )
            ],
            TargetKind.CLASSIFICATION,
        )
        parsed = parse_text(dump_text(model))
        assert parsed.trees[0].split == Predicate.equals("A", "x=y>z")

    # every line boundary of str.splitlines but "\n", which a dump refuses
    @pytest.mark.parametrize("c", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_names_holding_a_line_boundary_round_trip(self, tmp_path, c):
        split = Predicate.equals(f"A{c}", f"x{c}y")
        model = ForestModel([TreeNode(2, 0.5, split, TreeNode(1, 0.0), TreeNode(1, 1.0))], TargetKind.CLASSIFICATION)
        text = dump_text(model)
        assert forest_structure_equal(parse_text(text), model)
        path = tmp_path / "model.txt"
        path.write_text(text, encoding="utf-8", newline="")
        assert forest_structure_equal(read_model(path), model)


# sha256 of dump_text for the forests below; a change to either digest is a
# change of model output and needs its reason stated. Both changed when the
# histogram split search came in: X0 and X1 hold more than QUANTILE_BINS
# distinct values, so every node now cuts them at global quantile bins, not
# between its own distinct values or at its own quantiles.
PINNED_DIGESTS = {
    KpiKind.CONTINUOUS: "4ff50dc7a4c2f926f82dd411219e160dd204e01ac844321f55573bc3146e4b29",
    KpiKind.BINARY: "e5ddcd1c2e2ebd4c84e120f2d6ef3a5924e547eafc724def3cfb45781657eaa9",
}


def _pinned_table(kind):
    attrs = (
        AttributeSpec("C0", ColumnKind.CATEGORICAL, cardinality=20),
        AttributeSpec("C1", ColumnKind.CATEGORICAL, cardinality=500, weighting="zipf"),
        AttributeSpec("X0", ColumnKind.CONTINUOUS),
        AttributeSpec("X1", ColumnKind.CONTINUOUS, distribution="normal"),
    )
    trigger = (Predicate.equals("C0", "c07"),)
    if kind is KpiKind.CONTINUOUS:
        kpi = KpiProfile(column="Lat", kind=kind)
        fault = FaultSpec(trigger=trigger, shift=5.0)
    else:
        kpi = KpiProfile(column="Status", kind=kind, failure_rate=0.02)
        fault = FaultSpec(trigger=trigger, failure_probability=0.3)
    config = GeneratorConfig(attrs, 12_000, kpi, (fault,), seed=5)
    table, _ = generate(config, datetime.date(2026, 8, 10))
    return table, _kpi_target(table, kind)


def _kpi_target(table, kind):
    if kind is KpiKind.CONTINUOUS:
        return table.values("Lat")
    return table.codes("Status") == table.categories("Status").index("fail")


def _digest(model):
    return hashlib.sha256(dump_text(model).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("kind", [KpiKind.CONTINUOUS, KpiKind.BINARY])
def test_pinned_forest_digest(kind):
    table, y = _pinned_table(kind)
    model = train(table, y, Hyperparams(min_rows_in_leaf=12, num_trees=2, rng_seed=3))
    assert _digest(model) == PINNED_DIGESTS[kind]


def _few_values_table(kind):
    """12k rows whose continuous columns hold at most QUANTILE_BINS distinct
    values: integers, and a normal variable to one decimal."""
    rng = np.random.default_rng(19)
    n = 12_000
    c0 = rng.integers(0, 20, n)
    c1 = np.minimum(rng.zipf(1.5, n), 800)
    ints = rng.integers(0, 200, n).astype(float)
    tenths = np.round(rng.normal(0.0, 2.0, n), 1)
    assert np.unique(tenths).size <= QUANTILE_BINS
    hit = (c0 == 7) | (ints > 180)
    if kind is KpiKind.CONTINUOUS:
        y = rng.lognormal(0.0, 1.0, n) + 5.0 * hit + 0.5 * tenths
    else:
        y = rng.random(n) < np.where(hit, 0.3, 0.02)
    table = make_table({
        "C0": ("cat", [f"c{v:02d}" for v in c0]),
        "C1": ("cat", [f"z{v:03d}" for v in c1]),
        "N": ("cont", list(ints)),
        "T": ("cont", list(tenths)),
    })
    return table, y


def _categorical_table(kind):
    """50k rows of categorical features as in acceptance criteria 2 and 3."""
    cards = [10, 20, 50, 100, 500, 1000, 5000, 10000]
    attrs = tuple(AttributeSpec(f"F{i}", ColumnKind.CATEGORICAL, cardinality=c) for i, c in enumerate(cards))
    trigger = (Predicate.equals("F1", attrs[1].value(3)),)
    if kind is KpiKind.CONTINUOUS:
        kpi = KpiProfile(column="Lat", kind=kind)
        fault = FaultSpec(trigger=trigger, shift=20.0)
    else:
        kpi = KpiProfile(column="Status", kind=kind, failure_rate=0.001)
        fault = FaultSpec(trigger=trigger, failure_probability=0.3)
    table, _ = generate(GeneratorConfig(attrs, 50_000, kpi, (fault,), seed=4), datetime.date(2026, 8, 10))
    return table, _kpi_target(table, kind)


# sha256 of dump_text as the presorted split search (SLIQ/SPRINT orders for
# continuous columns, a full bincount for categorical ones) trained these
# forests: with at most QUANTILE_BINS distinct values per continuous column,
# the histogram search must give the same bytes.
EXACT_DIGESTS = {
    ("few values", KpiKind.CONTINUOUS): "577a3c401edb4787af97f5d911056687c981d6445bfdc51bd5314ab8054b858b",
    ("few values", KpiKind.BINARY): "51685efbc49cbe35cb3cb97bb43197ebb2e58846c1ad8e4e6b27c5175b2021c9",
    ("categorical", KpiKind.CONTINUOUS): "3b72bb437f318f64756776baabc1660b967b96e0d7623413a018f12078851a06",
    ("categorical", KpiKind.BINARY): "66d78c4e5c81062bf5095e048e87c8ff841189c4e1a8f3cc58fdd4047ad4871f",
}


@pytest.mark.parametrize("name, kind", list(EXACT_DIGESTS))
def test_histogram_search_is_exact_below_the_bin_cap(name, kind):
    # the categorical table's F5..F7 put most of their categories in the rest bin
    table, y = (_few_values_table if name == "few values" else _categorical_table)(kind)
    min_rows = 12 if name == "few values" else 50
    model = train(table, y, Hyperparams(min_rows_in_leaf=min_rows, num_trees=4, rng_seed=6))
    assert _digest(model) == EXACT_DIGESTS[name, kind]


@pytest.mark.parametrize("classification", [True, False])
def test_binned_thresholds_select_the_rows_the_tree_counted(classification):
    # lognormal values are all distinct, far past QUANTILE_BINS
    rng = np.random.default_rng(23)
    values = rng.lognormal(size=5_000)
    table = make_table({"X": ("cont", list(values)), "C": ("cat", [str(v) for v in rng.integers(0, 4, 5_000)])})
    y = rng.random(5_000) < 0.1 + 0.3 * (values > 2.0) if classification else rng.lognormal(size=5_000) + values
    tree = train(table, y, Hyperparams(min_rows_in_leaf=10, feature_sample_ratio=1.0, num_trees=1)).trees[0]
    distinct = np.unique(values)
    checked = 0
    for node, rows in _split_nodes_with_rows(tree, table):
        assert node.row_count == rows.size
        if node.split.op is PredicateOp.GREATER_THAN:
            t = node.split.value
            at = int(distinct.searchsorted(t))
            assert 0 < at < distinct.size and distinct[at - 1] < t < distinct[at]
            checked += 1
    assert checked >= 20


def _deep_chain():
    """Each split isolates the largest target: one tree 599 levels deep, past
    what pickle's recursion carries as nested TreeNodes."""
    table = make_table({"C": ("cat", [f"k{i:03d}" for i in range(600)])})
    return table, 2.0 ** (np.arange(600) / 4), Hyperparams(min_rows_in_leaf=1, feature_sample_ratio=1.0, num_trees=2)


class TestWorkers:
    @pytest.mark.parametrize("problem", ["continuous", "binary", "deep"])
    def test_output_does_not_depend_on_the_worker_count(self, monkeypatch, problem):
        if problem == "deep":
            table, y, hp = _deep_chain()
        else:
            table, y = _pinned_table(KpiKind(problem))
            hp = Hyperparams(min_rows_in_leaf=12, num_trees=4, rng_seed=8)
        dumps = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            dumps.append(dump_text(train(table, y, hp)))
        assert dumps[0] == dumps[1]
        if problem == "deep":
            assert max(len(line) - len(line.lstrip(" ")) for line in dumps[0].splitlines()) == 2 * 599

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        table, y = _pinned_table(KpiKind.CONTINUOUS)

        def fail(td, features):
            raise RuntimeError("split X0 > 1.5 leaves a child under 12 rows")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(forest, "_grow_tree", fail)
        with pytest.raises(RuntimeError, match=r"^split X0 > 1\.5 leaves a child under 12 rows$"):
            train(table, y, Hyperparams(min_rows_in_leaf=12, num_trees=2))

    def test_deep_tree_crosses_the_pool_below_the_floor(self, monkeypatch):
        # the chain's 2 trees on one 600-row feature are under the floor, so
        # only a lowered floor sends the 599-level tree through a worker
        table, y, hp = _deep_chain()
        in_process = dump_text(train(table, y, hp))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(forest, "_POOL_SEARCHES", 0)
        assert dump_text(train(table, y, hp)) == in_process

    def test_small_forest_grows_without_a_pool(self, monkeypatch):
        # 30 trees x 2 features x 20 leaves is under the floor
        rng = np.random.default_rng(0)
        table = make_table({f"F{i}": ("cont", list(rng.normal(size=20))) for i in range(3)})
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        monkeypatch.setattr("multiprocessing.pool.Pool", _no_pool)
        model = train(table, rng.normal(size=20), Hyperparams(min_rows_in_leaf=1, num_trees=30))
        assert len(model.trees) == 30


def _no_pool(*args, **kwargs):
    raise AssertionError("a pool was started")
