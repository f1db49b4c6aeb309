import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpidiag.errors import SchemaError
from kpidiag.model import (
    KpiKind,
    KpiSpec,
    Predicate,
    canonical_key,
    format_number,
)

from oracles import evaluate, is_positive


class TestCanonicalKey:
    def test_equals_keeps_the_category(self):
        assert canonical_key(Predicate.equals("Rack", "AN150C01")) == "Rack=AN150C01"

    def test_greater_than_drops_the_threshold(self):
        assert canonical_key(Predicate.greater_than("RoutingLatency", 568.0)) == "RoutingLatency>"

    def test_same_attribute_and_direction_collapse(self):
        a = canonical_key(Predicate.greater_than("RoutingLatency", 568.0))
        b = canonical_key(Predicate.greater_than("RoutingLatency", 16145.0))
        assert a == b

    def test_directions_are_distinct(self):
        above = canonical_key(Predicate.greater_than("Lat", 5.0))
        below = canonical_key(Predicate.greater_than("Lat", 5.0, polarity=False))
        assert above != below

    def test_inverted_equality_is_distinct(self):
        pos = canonical_key(Predicate.equals("Region", "NA"))
        neg = canonical_key(Predicate.equals("Region", "NA", polarity=False))
        assert pos != neg

    def test_differing_attribute_or_category_differ(self):
        keys = {
            canonical_key(Predicate.equals("A", "x")),
            canonical_key(Predicate.equals("A", "y")),
            canonical_key(Predicate.equals("B", "x")),
            canonical_key(Predicate.greater_than("A", 1.0)),
        }
        assert len(keys) == 4

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_threshold_never_changes_the_key(self, threshold):
        p = Predicate.greater_than("X", threshold)
        assert canonical_key(p) == "X>"


class TestEvaluate:
    def test_equals_match(self):
        p = Predicate.equals("Region", "NorthAmerica")
        assert evaluate(p, {"Region": "NorthAmerica"}) is True

    def test_greater_than_is_strict_at_the_boundary(self):
        p = Predicate.greater_than("AuthLatency", 50)
        assert evaluate(p, {"AuthLatency": 50.0}) is False
        assert evaluate(p, {"AuthLatency": 50.0001}) is True

    def test_polarity_flip(self):
        p = Predicate.equals("Region", "NorthAmerica", polarity=False)
        assert evaluate(p, {"Region": "Europe"}) is True

    def test_absent_attribute_is_a_schema_error(self):
        with pytest.raises(SchemaError):
            evaluate(Predicate.equals("Region", "NA"), {"Other": "x"})

    def test_missing_continuous_is_a_schema_error(self):
        with pytest.raises(SchemaError):
            evaluate(Predicate.greater_than("Lat", 1.0), {"Lat": None})

    @given(
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from(["a", "b", "c"]),
    )
    def test_flip_is_exclusive_or_categorical(self, test_value, row_value):
        p = Predicate.equals("X", test_value)
        row = {"X": row_value}
        assert evaluate(p, row) != evaluate(p.flip(), row)

    @given(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
    )
    def test_flip_is_exclusive_or_continuous(self, threshold, value):
        p = Predicate.greater_than("X", threshold)
        row = {"X": value}
        assert evaluate(p, row) != evaluate(p.flip(), row)


class TestTextForms:
    def test_equals_text(self):
        assert Predicate.equals("Rack", "AN150C01").text() == "Rack:AN150C01"

    def test_greater_than_text(self):
        assert Predicate.greater_than("AuthLatency", 47.0).text() == "AuthLatency > 47"

    def test_inverted_forms(self):
        assert Predicate.greater_than("Lat", 2.5, polarity=False).text() == "Lat <= 2.5"
        assert "false" in Predicate.equals("Region", "NA", polarity=False).text()


class TestKpiSpec:
    def test_continuous_requires_threshold(self):
        with pytest.raises(SchemaError):
            KpiSpec(column="Lat", kind=KpiKind.CONTINUOUS)

    def test_binary_requires_positive_label(self):
        with pytest.raises(SchemaError):
            KpiSpec(column="Status", kind=KpiKind.BINARY)

    def test_continuous_boundary_is_negative(self):
        kpi = KpiSpec(column="Lat", kind=KpiKind.CONTINUOUS, threshold=5.0)
        assert is_positive(kpi, 5.0) is False
        assert is_positive(kpi, 5.1) is True

    def test_binary_positive_by_label(self):
        kpi = KpiSpec(column="Status", kind=KpiKind.BINARY, positive_label="fail")
        assert is_positive(kpi, "fail") is True
        assert is_positive(kpi, "success") is False


def test_format_number_drops_integral_suffix():
    assert format_number(47.0) == "47"
    assert format_number(2.5) == "2.5"
    assert float(format_number(568.123456789)) == 568.123456789
