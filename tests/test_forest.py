import datetime
import hashlib

import numpy as np
import pytest

from kpidiag.errors import DumpParseError, SchemaError
from kpidiag.forest import (
    ForestModel,
    Hyperparams,
    TargetKind,
    TreeNode,
    dump_text,
    parse_text,
    train,
)
from kpidiag.model import ColumnKind, KpiKind, Predicate, PredicateOp
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
        assert model.feature_list == ("Lat", "Region")

    def test_empty_dump_is_an_error(self):
        with pytest.raises(DumpParseError, match="empty"):
            parse_text("")

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

    def test_attribute_with_separator_cannot_dump(self):
        model = ForestModel(
            [
                TreeNode(
                    row_count=2,
                    metric=0.5,
                    split=Predicate.equals("A=B", "x"),
                    left=TreeNode(1, 0.0),
                    right=TreeNode(1, 1.0),
                )
            ],
            TargetKind.CLASSIFICATION,
        )
        with pytest.raises(ValueError):
            dump_text(model)

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


# sha256 of dump_text for the forests below, as trained before the presorted
# split search replaced per-node sorting; a change to either digest is a
# change of model output and needs its reason stated.
PINNED_DIGESTS = {
    KpiKind.CONTINUOUS: "5c3dff0f5a1dd6b91bc6bf1824a1ed07b18a9c3863900f8c0bf86c4445bb7a50",
    KpiKind.BINARY: "3265e8ef780b1aa4b8c7845ab73c9e30e7742728a0637bf30226e98e66c70f44",
}


@pytest.mark.parametrize("kind", [KpiKind.CONTINUOUS, KpiKind.BINARY])
def test_pinned_forest_digest(kind):
    # 12k rows: root nodes hold more than QUANTILE_SPLIT_LIMIT distinct values
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
    if kind is KpiKind.CONTINUOUS:
        y = table.values("Lat")
    else:
        y = table.codes("Status") == table.categories("Status").index("fail")
    model = train(table, y, Hyperparams(min_rows_in_leaf=12, num_trees=2, rng_seed=3))
    digest = hashlib.sha256(dump_text(model).encode("utf-8")).hexdigest()
    assert digest == PINNED_DIGESTS[kind]
