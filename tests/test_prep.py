import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpidiag.errors import SchemaError
from kpidiag.model import MISSING_CATEGORY, KpiKind, KpiSpec
from kpidiag.prep import impute, recommend_pruning, sample, stratify

from conftest import category_counts, make_table
from oracles import cell, table_state

LAT = KpiSpec(column="Lat", kind=KpiKind.CONTINUOUS, threshold=5.0)
STATUS = KpiSpec(column="Status", kind=KpiKind.BINARY, positive_label="fail")


class TestImpute:
    def test_categorical_placeholder(self):
        table = impute(make_table({"X": ("cat", ["a", None])}))
        assert cell(table, "X", 1) == MISSING_CATEGORY
        assert cell(table, "X", 0) == "a"

    def test_continuous_median(self):
        table = impute(make_table({"X": ("cont", [1.0, 3.0, None])}))
        assert cell(table, "X", 2) == 2.0

    def test_single_value_median(self):
        table = impute(make_table({"X": ("cont", [5.0, None, None])}))
        assert [cell(table, "X", i) for i in range(3)] == [5.0, 5.0, 5.0]

    def test_all_missing_continuous_becomes_zero(self):
        table = impute(make_table({"X": ("cont", [None, None])}))
        assert [cell(table, "X", i) for i in range(2)] == [0.0, 0.0]

    def test_categories_stay_sorted(self):
        # the placeholder sorts before uppercase letters, after digits
        table = impute(make_table({"X": ("cat", ["9", "Z", None, "A"])}))
        cats = table.categories("X")
        assert list(cats) == sorted(cats)
        assert MISSING_CATEGORY in cats

    def test_placeholder_already_present_collapses(self):
        table = impute(make_table({"X": ("cat", [MISSING_CATEGORY, None])}))
        assert cell(table, "X", 0) == cell(table, "X", 1) == MISSING_CATEGORY
        assert category_counts(table)["X"] == 1

    @given(
        st.lists(
            st.one_of(st.none(), st.sampled_from(["a", "b", "<EMPTY>"])),
            min_size=1,
            max_size=8,
        ),
        st.lists(
            st.one_of(st.none(), st.floats(-100, 100)), min_size=1, max_size=8
        ),
    )
    def test_idempotent(self, cat_vals, cont_vals):
        n = max(len(cat_vals), len(cont_vals))
        cat_vals = (cat_vals * n)[:n]
        cont_vals = (cont_vals * n)[:n]
        table = make_table({"C": ("cat", cat_vals), "X": ("cont", cont_vals)})
        once = impute(table)
        assert table_state(impute(once)) == table_state(once)


class TestRecommendPruning:
    def test_unique_identifier_flagged(self):
        table = make_table({"RequestId": ("cat", [f"r{i}" for i in range(20)])})
        (rec,) = recommend_pruning(table)
        assert rec.attribute == "RequestId"
        assert rec.reason == "unique identifier"
        assert rec.cardinality == 20

    def test_low_cardinality_not_flagged(self):
        values = [f"cat{i % 10}" for i in range(100)]
        table = make_table({"AppCategory": ("cat", values)})
        assert recommend_pruning(table, max_cardinality=1000) == []

    def test_constant_flagged(self):
        table = make_table({"Build": ("cat", ["v1"] * 10)})
        (rec,) = recommend_pruning(table)
        assert rec.reason == "constant"
        assert rec.cardinality == 1

    def test_high_cardinality_flagged(self):
        values = [f"org{i % 50}" for i in range(100)]
        table = make_table({"Org": ("cat", values)})
        (rec,) = recommend_pruning(table, max_cardinality=10)
        assert rec.reason == "high cardinality"

    def test_unique_continuous_flagged(self):
        table = make_table({"Seq": ("cont", [float(i) for i in range(10)])})
        (rec,) = recommend_pruning(table)
        assert rec.reason == "unique identifier"

    def test_real_valued_continuous_not_flagged(self, rng):
        table = make_table({"Size": ("cont", rng.lognormal(size=50).tolist())})
        assert recommend_pruning(table) == []

    def test_constant_real_valued_flagged(self):
        (rec,) = recommend_pruning(make_table({"Ratio": ("cont", [0.25] * 10)}))
        assert (rec.reason, rec.cardinality) == ("constant", 1)

    def test_kpi_and_excluded_roles_ignored(self):
        table = make_table(
            {"Lat": ("cont", [float(i) for i in range(10)])}, kpi="Lat"
        )
        assert recommend_pruning(table) == []

    def test_max_cardinality_validated(self):
        with pytest.raises(ValueError):
            recommend_pruning(make_table({"X": ("cat", ["a"])}), max_cardinality=0)


class TestStratify:
    def test_boundary_is_negative(self):
        table = make_table({"Lat": ("cont", [4.0, 5.0, 6.0])}, kpi="Lat")
        out = stratify(table, LAT)
        assert out.labels.tolist() == [False, False, True]
        assert (out.positive_count, out.negative_count) == (1, 2)

    def test_binary_by_label(self):
        table = make_table(
            {"Status": ("cat", ["success", "fail", "success"])}, kpi="Status"
        )
        out = stratify(table, STATUS)
        assert out.labels.tolist() == [False, True, False]

    def test_all_negative_is_allowed(self):
        table = make_table({"Lat": ("cont", [1.0, 2.0])}, kpi="Lat")
        out = stratify(table, LAT)
        assert out.positive_count == 0

    def test_direction_below(self):
        from kpidiag.model import SloDirection

        kpi = KpiSpec(
            column="Lat",
            kind=KpiKind.CONTINUOUS,
            threshold=5.0,
            direction=SloDirection.BELOW,
        )
        table = make_table({"Lat": ("cont", [4.0, 5.0, 6.0])}, kpi="Lat")
        assert stratify(table, kpi).labels.tolist() == [True, False, False]

    def test_missing_kpi_values_rejected(self):
        table = make_table({"Lat": ("cont", [1.0, None])}, kpi="Lat")
        with pytest.raises(SchemaError, match="impute"):
            stratify(table, LAT)

    def test_partition_is_total(self, rng):
        values = list(rng.lognormal(size=300))
        table = make_table({"Lat": ("cont", values)}, kpi="Lat")
        out = stratify(table, LAT)
        assert out.positive_count + out.negative_count == table.row_count


def _stratified_fixture(n_pos, n_neg):
    values = [9.0] * n_pos + [1.0] * n_neg
    table = make_table({"Lat": ("cont", values)}, kpi="Lat")
    return stratify(table, LAT)


class TestSample:
    def test_stratified_exhausts_small_stratum(self):
        out = sample(_stratified_fixture(10, 990), LAT, target_rows=200, seed=0)
        assert out.row_count == 110
        resampled = stratify(out, LAT)
        assert resampled.positive_count == 10
        assert resampled.negative_count == 100

    def test_binary_uniform_exact_count(self):
        values = ["fail"] * 10 + ["success"] * 990
        table = make_table({"Status": ("cat", values)}, kpi="Status")
        out = sample(stratify(table, STATUS), STATUS, target_rows=200, seed=0)
        assert out.row_count == 200

    def test_target_at_least_rows_returns_table_unchanged(self):
        strat = _stratified_fixture(5, 5)
        assert sample(strat, LAT, target_rows=10, seed=0) == strat.table
        assert sample(strat, LAT, target_rows=50, seed=3) == strat.table

    def test_reproducible_under_seed(self):
        values = [9.0 + i * 0.001 for i in range(50)] + [
            1.0 + i * 0.001 for i in range(950)
        ]
        strat = stratify(make_table({"Lat": ("cont", values)}, kpi="Lat"), LAT)
        a = sample(strat, LAT, target_rows=100, seed=9)
        b = sample(strat, LAT, target_rows=100, seed=9)
        assert table_state(a) == table_state(b)
        c = sample(strat, LAT, target_rows=100, seed=10)
        assert table_state(a) != table_state(c)

    def test_per_stratum_counts_never_exceed_stratum(self, rng):
        for _ in range(20):
            n_pos = int(rng.integers(0, 30))
            n_neg = int(rng.integers(1, 200))
            target = int(rng.integers(2, 300))
            strat = _stratified_fixture(n_pos, n_neg)
            out = stratify(sample(strat, LAT, target, seed=1), LAT)
            assert out.positive_count <= min(n_pos, max(target // 2, n_pos))
            assert out.positive_count == min(n_pos, target // 2) or n_pos == 0
            assert out.negative_count == min(n_neg, target // 2)

    def test_target_rows_validated(self):
        with pytest.raises(ValueError):
            sample(_stratified_fixture(1, 1), LAT, target_rows=1, seed=0)
