import datetime

import numpy as np
import pytest

from kpidiag.errors import ConfigError
from kpidiag.model import ColumnKind, KpiKind, KpiSpec, Predicate, Rule
from kpidiag.rules import annotate_impacts
from kpidiag.synth import (
    AttributeSpec,
    FaultSpec,
    GeneratorConfig,
    KpiProfile,
    generate,
    manifest_keys,
    slo_threshold,
)

from conftest import category_counts
from oracles import table_state

DAY = datetime.date(2026, 8, 10)


def cat(name, cardinality, **kw):
    return AttributeSpec(name=name, kind=ColumnKind.CATEGORICAL, cardinality=cardinality, **kw)


def cont(name, **kw):
    return AttributeSpec(name=name, kind=ColumnKind.CONTINUOUS, **kw)


CONT_KPI = KpiProfile(column="Lat", kind=KpiKind.CONTINUOUS, mu=0.0, sigma=1.0)
BIN_KPI = KpiProfile(column="Status", kind=KpiKind.BINARY, failure_rate=0.001)


def config(attributes, kpi=CONT_KPI, faults=(), rows=5000, seed=0):
    return GeneratorConfig(
        attributes=tuple(attributes), row_count=rows, kpi=kpi, faults=tuple(faults), seed=seed
    )


class TestDeterminism:
    def test_same_seed_same_table(self):
        cfg = config([cat("A", 10), cont("B")])
        t1, m1 = generate(cfg, DAY)
        t2, m2 = generate(cfg, DAY)
        assert table_state(t1) == table_state(t2)
        assert m1 == m2

    def test_different_seed_differs(self):
        t1, _ = generate(config([cat("A", 10)], seed=1), DAY)
        t2, _ = generate(config([cat("A", 10)], seed=2), DAY)
        assert table_state(t1) != table_state(t2)


class TestCardinality:
    def test_exact_when_rows_at_least_ten_per_value(self):
        for k in (10, 100, 400):
            cfg = config([cat("A", k)], rows=10 * k, seed=3)
            table, _ = generate(cfg, DAY)
            assert category_counts(table)["A"] == k

    def test_zipf_skews_toward_the_head(self):
        cfg = config([cat("A", 50, weighting="zipf", zipf_s=1.5)], rows=20_000, seed=4)
        table, _ = generate(cfg, DAY)
        counts = np.bincount(table.codes("A"), minlength=50)
        assert counts[0] > 4 * counts[10]


class TestFaultApplication:
    def test_continuous_degraded_exactly_on_matching_rows(self):
        fault = FaultSpec(trigger=(Predicate.equals("A", "c3"),), shift=100.0)
        base_cfg = config([cat("A", 10)], rows=4000, seed=5)
        fault_cfg = config([cat("A", 10)], faults=[fault], rows=4000, seed=5)
        clean, _ = generate(base_cfg, DAY)
        faulty, manifest = generate(fault_cfg, DAY)
        match = faulty.predicate_mask(Predicate.equals("A", "c3"))
        diff = faulty.values("Lat") - clean.values("Lat")
        assert np.all(diff[match] == 100.0)
        assert np.all(diff[~match] == 0.0)
        assert manifest["degraded_rows"] == int(match.sum())
        assert manifest["faults"][0]["rows_matched"] == int(match.sum())

    def test_binary_probability_elevated_only_on_matching_rows(self):
        fault = FaultSpec(trigger=(Predicate.equals("A", "c2"),), failure_probability=0.5)
        clean, _ = generate(config([cat("A", 10)], kpi=BIN_KPI, rows=20_000, seed=6), DAY)
        faulty, _ = generate(
            config([cat("A", 10)], kpi=BIN_KPI, faults=[fault], rows=20_000, seed=6), DAY
        )
        match = faulty.predicate_mask(Predicate.equals("A", "c2"))
        changed = clean.codes("Status") != faulty.codes("Status")
        assert not changed[~match].any()
        fail_code = faulty.categories("Status").index("fail")
        fail_rate = (faulty.codes("Status")[match] == fail_code).mean()
        assert 0.45 < fail_rate < 0.55

    def test_multiplier_effect(self):
        fault = FaultSpec(trigger=(Predicate.equals("A", "c1"),), multiplier=3.0)
        clean, _ = generate(config([cat("A", 5)], rows=2000, seed=7), DAY)
        faulty, _ = generate(config([cat("A", 5)], faults=[fault], rows=2000, seed=7), DAY)
        match = faulty.predicate_mask(Predicate.equals("A", "c1"))
        ratio = faulty.values("Lat")[match] / clean.values("Lat")[match]
        assert np.allclose(ratio, 3.0)

    def test_conjunction_trigger(self):
        fault = FaultSpec(
            trigger=(Predicate.equals("A", "c1"), Predicate.greater_than("B", 1.0)),
            shift=50.0,
        )
        cfg = config([cat("A", 5), cont("B", distribution="normal")], faults=[fault], seed=8)
        table, manifest = generate(cfg, DAY)
        mask = table.conjunction_mask(fault.trigger)
        assert manifest["faults"][0]["rows_matched"] == int(mask.sum())
        assert set(manifest["faults"][0]["keys"]) == {"A=c1", "B>"}

    def test_expected_impact_matches_direct_computation(self):
        attr = cat("A", 20)
        fault = FaultSpec(trigger=(Predicate.equals("A", attr.value(0)),), shift=200.0)
        table, manifest = generate(config([attr], faults=[fault], seed=9), DAY)
        mask = table.predicate_mask(Predicate.equals("A", attr.value(0)))
        vals = table.values("Lat")
        direct = vals[mask].mean() - vals.mean()
        assert manifest["faults"][0]["expected_impact"] == pytest.approx(direct)


    @pytest.mark.parametrize(
        "kpi, spec, effect",
        [
            (CONT_KPI, KpiSpec(column="Lat", kind=KpiKind.CONTINUOUS, threshold=5.0), {"shift": 5.0}),
            (BIN_KPI, KpiSpec(column="Status", kind=KpiKind.BINARY, positive_label="fail"),
             {"failure_probability": 0.3}),
        ],
        ids=["continuous", "binary"],
    )
    def test_expected_impact_is_the_impact_a_rule_is_given(self, kpi, spec, effect):
        planted = FaultSpec(trigger=(Predicate.equals("A", "c3"), Predicate.greater_than("B", 1.0)), **effect)
        unmatched = FaultSpec(trigger=(Predicate.greater_than("B", 1e9),), **effect)
        cfg = config([cat("A", 10), cont("B")], kpi=kpi, faults=[planted, unmatched], rows=20_000, seed=14)
        table, manifest = generate(cfg, DAY)
        rules = [Rule(f.trigger[-1], f.trigger[:-1], 1.0, 1) for f in (planted, unmatched)]
        hit, miss = annotate_impacts(rules, table, spec)
        assert manifest["faults"][0]["rows_matched"] > 0
        assert manifest["faults"][0]["expected_impact"] == hit.performance_impact  # not approx
        assert miss.performance_impact is None
        assert manifest["faults"][1]["rows_matched"] == 0
        assert manifest["faults"][1]["expected_impact"] == 0.0


class TestBaseRates:
    def test_fault_free_binary_rate_within_binomial_bounds(self):
        n = 100_000
        table, _ = generate(config([cat("A", 10)], kpi=BIN_KPI, rows=n, seed=10), DAY)
        fail_code = table.categories("Status").index("fail")
        rate = (table.codes("Status") == fail_code).mean()
        sigma = np.sqrt(0.001 * 0.999 / n)
        assert abs(rate - 0.001) <= 3 * sigma

    def test_default_slo_violation_rate_near_a_tenth_percent(self):
        n = 200_000
        table, _ = generate(config([cat("A", 10)], rows=n, seed=11), DAY)
        threshold = slo_threshold(CONT_KPI)
        rate = (table.values("Lat") > threshold).mean()
        sigma = np.sqrt(0.001 * 0.999 / n)
        assert abs(rate - 0.001) <= 4 * sigma


class TestActiveDays:
    def test_fault_window(self):
        fault = FaultSpec(
            trigger=(Predicate.equals("A", "c1"),),
            shift=100.0,
            first_day=datetime.date(2026, 1, 1),
            last_day=datetime.date(2026, 1, 5),
        )
        cfg = config([cat("A", 5)], faults=[fault], seed=12)
        _, active = generate(cfg, datetime.date(2026, 1, 3))
        _, before = generate(cfg, datetime.date(2025, 12, 31))
        _, after = generate(cfg, datetime.date(2026, 1, 6))
        assert len(active["faults"]) == 1
        assert before["faults"] == [] and after["faults"] == []
        assert before["degraded_rows"] == 0

    def test_manifest_keys_helper(self):
        fault = FaultSpec(trigger=(Predicate.equals("A", "c1"),), shift=1.0)
        _, manifest = generate(config([cat("A", 5)], faults=[fault], seed=13), DAY)
        assert manifest_keys(manifest) == {"A=c1"}


class TestValidation:
    def test_effects_must_degrade(self):
        trig = (Predicate.equals("A", "c0"),)
        with pytest.raises(ConfigError):
            FaultSpec(trigger=trig, shift=-1.0)
        with pytest.raises(ConfigError):
            FaultSpec(trigger=trig, multiplier=0.5)
        with pytest.raises(ConfigError):
            FaultSpec(trigger=trig, shift=1.0, multiplier=2.0)
        with pytest.raises(ConfigError):
            FaultSpec(trigger=trig)

    def test_unknown_trigger_attribute_rejected(self):
        fault = FaultSpec(trigger=(Predicate.equals("Nope", "c0"),), shift=1.0)
        with pytest.raises(ConfigError, match="Nope"):
            generate(config([cat("A", 5)], faults=[fault]), DAY)

    def test_trigger_value_outside_categories_rejected(self):
        fault = FaultSpec(trigger=(Predicate.equals("A", "zzz"),), shift=1.0)
        with pytest.raises(ConfigError, match="zzz"):
            generate(config([cat("A", 5)], faults=[fault]), DAY)

    def test_equality_trigger_on_a_continuous_attribute_rejected(self):
        fault = FaultSpec(trigger=(Predicate.equals("B", "1.0"),), shift=1.0)
        with pytest.raises(ConfigError, match="'B'"):
            generate(config([cat("A", 5), cont("B")], faults=[fault]), DAY)

    def test_threshold_trigger_on_a_categorical_attribute_rejected(self):
        fault = FaultSpec(trigger=(Predicate.greater_than("A", 1.0),), shift=1.0)
        with pytest.raises(ConfigError, match="'A'"):
            generate(config([cat("A", 5), cont("B")], faults=[fault]), DAY)

    def test_binary_fault_must_exceed_base_rate(self):
        fault = FaultSpec(trigger=(Predicate.equals("A", "c0"),), failure_probability=0.0005)
        with pytest.raises(ConfigError, match="base failure rate"):
            generate(config([cat("A", 5)], kpi=BIN_KPI, faults=[fault]), DAY)
