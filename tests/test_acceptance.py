"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line (visible with `pytest -s`); a failing
criterion fails its test. These are heavier than the unit suite: the whole
module takes on the order of ten minutes on a desktop core.
"""

import datetime
import json
import statistics
import time

import numpy as np
import pytest

from kpidiag import pipeline, prep
from kpidiag.config import RunConfig
from kpidiag.ingest import write_csv
from kpidiag.model import (
    ColumnKind,
    KpiKind,
    KpiSpec,
    Predicate,
    Rule,
    TriageCategory,
)
from kpidiag.report import generate_query
from kpidiag.synth import (
    AttributeSpec,
    FaultSpec,
    GeneratorConfig,
    KpiProfile,
    generate,
    manifest_keys,
    slo_threshold,
)
from kpidiag.triage import HistoryStore, detect_resolved, record_run, triage

from conftest import make_table
from oracles import best_split, execute_query, iter_rows, oracle_best_gain

RUN_DATE = datetime.date(2026, 8, 10)

CARDS = [10, 20, 50, 100, 500, 1000, 5000, 10000]
ATTRS = tuple(
    AttributeSpec(name=f"F{i}", kind=ColumnKind.CATEGORICAL, cardinality=c)
    for i, c in enumerate(CARDS)
)
CONT_PROFILE = KpiProfile(column="Lat", kind=KpiKind.CONTINUOUS, mu=0.0, sigma=1.0)
BIN_PROFILE = KpiProfile(column="Status", kind=KpiKind.BINARY, failure_rate=0.001)
CONT_KPI = KpiSpec(
    column="Lat", kind=KpiKind.CONTINUOUS, threshold=slo_threshold(CONT_PROFILE)
)
BIN_KPI = KpiSpec(column="Status", kind=KpiKind.BINARY, positive_label="fail")


def mine(table, kpi, scoring, seed, min_score=0.0, trees=50):
    """Prepared-table shortcut through the real pipeline stages."""
    config = RunConfig(
        kpi=kpi,
        scoring=scoring,
        sample_rows=1_000_000,
        seed=seed,
        min_score=min_score,
        num_trees=trees,
    )
    imputed = prep.impute(table)
    model = pipeline.build_model(config, imputed)
    return pipeline.mine_rules(config, model, imputed, RUN_DATE)


def test_criterion_1_split_oracle_equivalence():
    """Best-split gain equals brute force on 500 random small tables, < 30 s."""
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    checked = 0
    for trial in range(500):
        classification = trial % 2 == 0
        n = int(rng.integers(2, 13))
        columns, features = {}, []
        for j in range(int(rng.integers(1, 4))):
            name = f"f{j}"
            if rng.random() < 0.5:
                pool = ["a", "b", "c", "d"][: int(rng.integers(2, 5))]
                columns[name] = (
                    "cat",
                    [pool[int(k)] for k in rng.integers(0, len(pool), n)],
                )
                features.append((name, "cat"))
            else:
                columns[name] = ("cont", [float(v) for v in rng.integers(0, 6, n)])
                features.append((name, "cont"))
        table = make_table(columns)
        y = rng.random(n) < 0.5 if classification else np.round(rng.uniform(0, 100, n), 3)
        min_rows = int(rng.integers(1, 4))
        cand = best_split(table, y, min_rows_in_leaf=min_rows)
        expected = oracle_best_gain(
            list(iter_rows(table)), list(y), features, min_rows, classification
        )
        if cand is None:
            assert expected is None or expected <= 1e-9, f"trial {trial}"
        else:
            assert expected is not None and abs(cand.gain - expected) <= 1e-9, f"trial {trial}"
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: {checked} tables matched brute force within 1e-9 "
          f"in {elapsed:.1f}s")


def _planted_recovery(kind: str) -> int:
    trigger_attr = ATTRS[1]  # cardinality 20 -> each value covers ~5% of rows
    trigger = Predicate.equals(trigger_attr.name, trigger_attr.value(3))
    hits = 0
    for seed in range(20):
        if kind == "continuous":
            fault = FaultSpec(trigger=(trigger,), shift=20.0)  # >= 10x the ~1.65 base mean
            profile, kpi, scoring = CONT_PROFILE, CONT_KPI, "metric"
        else:
            fault = FaultSpec(trigger=(trigger,), failure_probability=0.3)  # 300x base
            profile, kpi, scoring = BIN_PROFILE, BIN_KPI, "volume_weighted"
        cfg = GeneratorConfig(
            attributes=ATTRS, row_count=100_000, kpi=profile, faults=(fault,), seed=seed
        )
        table, manifest = generate(cfg, RUN_DATE)
        assert manifest["faults"][0]["rows_matched"] >= 1000  # >= 1% of rows
        mined = mine(table, kpi, scoring, seed=seed)
        if mined and mined[0].key() == f"{trigger_attr.name}={trigger_attr.value(3)}":
            hits += 1
    return hits


@pytest.mark.parametrize("kind", ["continuous", "binary"])
def test_criterion_2_planted_fault_recovery(kind):
    """Planted key tops the ranking in >= 19/20 seeds per KPI kind."""
    hits = _planted_recovery(kind)
    assert hits >= 19, f"{kind}: top-ranked in only {hits}/20 seeds"
    print(f"\nACCEPTANCE 2 PASS ({kind}): planted key top-ranked in {hits}/20 seeds")


def test_criterion_3_precision_with_floor():
    """Three simultaneous faults, floor calibrated fault-free: precision >= 0.70 +/- 0.1.

    The floor comes from a 20-seed fault-free false-positive survey (1.5x
    its score ceiling). The three disjoint faults each degrade ~2% of rows
    by 3-7x the baseline KPI mean, comfortably above the floor.
    """
    attr = ATTRS[2]  # cardinality 50 -> each value ~2% of rows
    faults = tuple(
        FaultSpec(trigger=(Predicate.equals(attr.name, attr.value(v)),), shift=s)
        for v, s in ((10, 5.0), (20, 8.0), (30, 12.0))
    )
    ceiling = 0.0
    for seed in range(20):
        cfg = GeneratorConfig(
            attributes=ATTRS, row_count=100_000, kpi=CONT_PROFILE, faults=(), seed=900 + seed
        )
        table, _ = generate(cfg, RUN_DATE)
        mined = mine(table, CONT_KPI, "metric", seed=900 + seed)
        if mined:
            ceiling = max(ceiling, mined[0].correlation_score)
    floor = 1.5 * ceiling
    assert floor > 0.0

    precisions = []
    for seed in range(10):
        cfg = GeneratorConfig(
            attributes=ATTRS, row_count=100_000, kpi=CONT_PROFILE, faults=faults, seed=seed
        )
        table, manifest = generate(cfg, RUN_DATE)
        truth = manifest_keys(manifest)
        reported = mine(table, CONT_KPI, "metric", seed=seed, min_score=floor)
        keys = {r.key() for r in reported}
        assert keys, f"seed {seed}: floor {floor:.3f} filtered everything"
        precisions.append(len(keys & truth) / len(keys))
    average = sum(precisions) / len(precisions)
    assert average >= 0.60, f"average precision {average:.2f} below 0.70 - 0.1"
    print(
        f"\nACCEPTANCE 3 PASS: precision {average:.2f} over 10 seeds "
        f"(floor {floor:.2f} from a 20-run fault-free survey; per-seed "
        f"{[f'{p:.2f}' for p in precisions]})"
    )


def test_criterion_4_triage_state_machine(tmp_path):
    """20-day scripted scenario plus a 14-run cold start, zero deviations."""
    store = HistoryStore(tmp_path / "history.tsv")
    background = Rule(
        correlated_predicate=Predicate.equals("BG", "steady"),
        scope_predicates=(),
        correlation_score=50.0,
        request_count=10,
    )

    def fault_rule(score):
        return Rule(
            correlated_predicate=Predicate.equals("Rack", "R7"),
            scope_predicates=(),
            correlation_score=score,
            request_count=20,
        )

    fault_key = fault_rule(1.0).key()

    # cold-start phase: 14 runs, everything must stay New
    day0 = datetime.date(2026, 1, 1)
    for run in range(14):
        day = day0 + datetime.timedelta(days=run)
        verdicts = triage([background], store, day)
        assert all(t.category is TriageCategory.NEW for t in verdicts), f"run {run + 1}"
        record_run([background], store, day)

    # scripted 20-day scenario on top of the warm history
    def scripted_rules(day_index):
        rules = [background]
        if 3 <= day_index <= 9:
            rules.append(fault_rule(100.0))
        elif 10 <= day_index <= 15:
            rules.append(fault_rule(300.0))  # amplified 3x on day 10
        return rules

    fault_history: list[float] = []
    observed: dict[int, dict] = {}
    for day_index in range(1, 21):
        day = day0 + datetime.timedelta(days=13 + day_index)
        todays = scripted_rules(day_index)
        verdicts = {t.rule.key(): t.category for t in triage(todays, store, day)}
        resolved = detect_resolved(todays, store, day)
        record_run(todays, store, day)
        observed[day_index] = {"verdicts": verdicts, "resolved": resolved}

        # independent oracle for the fault key's expected category
        todays_fault = [r for r in todays if r.key() == fault_key]
        if todays_fault:
            window = fault_history[-14:] if len(fault_history) else []
            if not window:
                expected = TriageCategory.NEW
            else:
                mu = statistics.mean(window)
                sigma = statistics.pstdev(window)
                s = todays_fault[0].correlation_score
                if s > mu + sigma:
                    expected = TriageCategory.REGRESSED
                elif s < mu - sigma:
                    expected = TriageCategory.IMPROVED
                else:
                    expected = TriageCategory.KNOWN
            assert verdicts[fault_key] is expected, f"day {day_index}"
            fault_history.append(todays_fault[0].correlation_score)
        assert verdicts[background.key()] is TriageCategory.KNOWN, f"day {day_index}"

    # the named landmarks, with zero deviations
    assert observed[3]["verdicts"][fault_key] is TriageCategory.NEW
    for d in range(4, 10):
        assert observed[d]["verdicts"][fault_key] is TriageCategory.KNOWN, f"day {d}"
    assert observed[10]["verdicts"][fault_key] is TriageCategory.REGRESSED
    for d in range(11, 16):
        assert observed[d]["verdicts"][fault_key] is TriageCategory.REGRESSED, f"day {d}"
    assert observed[16]["resolved"] == [fault_key]
    for d in list(range(1, 16)) + list(range(17, 21)):
        assert observed[d]["resolved"] == [], f"day {d}"
    for d in range(16, 21):
        assert fault_key not in observed[d]["verdicts"]
    print(
        "\nACCEPTANCE 4 PASS: cold start all-New through run 14; day 3 new, "
        "days 4-9 known, day 10 regressed (score > mu+sigma), day 16 resolved"
    )


def test_criterion_5_impact_arithmetic():
    """A fault built for a 4419 ms subset-vs-global delta reports within 5%."""
    target = 4419.0
    attr = ATTRS[2]  # cardinality 50 -> ~2% of rows per value, above min-leaf
    fraction = 1.0 / attr.cardinality
    shift = target / (1.0 - fraction)
    fault = FaultSpec(trigger=(Predicate.equals(attr.name, attr.value(7)),), shift=shift)
    cfg = GeneratorConfig(
        attributes=ATTRS, row_count=100_000, kpi=CONT_PROFILE, faults=(fault,), seed=77
    )
    table, manifest = generate(cfg, RUN_DATE)
    mined = mine(table, CONT_KPI, "metric", seed=77, trees=10)
    planted = next(r for r in mined if r.key() == f"{attr.name}={attr.value(7)}")
    assert planted.performance_impact == pytest.approx(target, rel=0.05)
    assert manifest["faults"][0]["expected_impact"] == pytest.approx(target, rel=0.05)
    print(
        f"\nACCEPTANCE 5 PASS: reported impact {planted.performance_impact:.0f} ms "
        f"within 5% of {target:.0f} ms"
    )


def test_criterion_6_query_evaluator_fuzz():
    """1000 random rules x tables: the SQL text selects exactly the matching rows."""
    rng = np.random.default_rng(6)
    values_pool = ["plain", "O'Brien", 'with "quotes"', "sp ace", "uni-코드", ""]
    attr_names = ["Simple", "with space", 'quo"ted', "select", "123start", "逆引き"]
    for trial in range(1000):
        n = int(rng.integers(1, 30))
        cat_name = attr_names[int(rng.integers(0, len(attr_names)))]
        cont_name = "Num " + str(int(rng.integers(0, 3)))
        cat_vals = [values_pool[int(v)] for v in rng.integers(0, len(values_pool), n)]
        cont_vals = [float(np.round(v, 3)) for v in rng.normal(size=n)]
        table = make_table({cat_name: ("cat", cat_vals), cont_name: ("cont", cont_vals)})
        preds = []
        for _ in range(int(rng.integers(1, 5))):
            if rng.random() < 0.5:
                preds.append(
                    Predicate.equals(
                        cat_name,
                        values_pool[int(rng.integers(0, len(values_pool)))],
                        polarity=bool(rng.random() < 0.75),
                    )
                )
            else:
                preds.append(
                    Predicate.greater_than(
                        cont_name, float(np.round(rng.normal(), 3)), polarity=bool(rng.random() < 0.75)
                    )
                )
        rule = Rule(
            correlated_predicate=preds[-1],
            scope_predicates=tuple(preds[:-1]),
            correlation_score=1.0,
            request_count=1,
        )
        table_name = ["logs", "my logs", "from"][int(rng.integers(0, 3))]
        sql = generate_query(rule, table_name)
        got = execute_query(sql, table).tolist()
        expected = np.flatnonzero(table.conjunction_mask(rule.all_predicates())).tolist()
        assert got == expected, f"trial {trial}: {sql!r}"
    print("\nACCEPTANCE 6 PASS: 1000 generated queries selected exactly the matching rows")


def test_criterion_7_end_to_end_determinism(tmp_path):
    """Two identical runs produce byte-identical JSON reports."""
    trigger = Predicate.equals("F1", ATTRS[1].value(3))
    cfg = GeneratorConfig(
        attributes=ATTRS,
        row_count=50_000,
        kpi=CONT_PROFILE,
        faults=(FaultSpec(trigger=(trigger,), shift=20.0),),
        seed=4,
    )
    table, _ = generate(cfg, RUN_DATE)
    csv_path = tmp_path / "logs.csv"
    write_csv(table, csv_path)
    config = RunConfig(kpi=CONT_KPI, scoring="metric", seed=13, num_trees=20)
    reports = []
    for name in ("a", "b"):
        result = pipeline.run_diagnose(
            config, csv_path, tmp_path / f"history-{name}.tsv", tmp_path / name, RUN_DATE
        )
        reports.append((tmp_path / name / "report.json").read_bytes())
        assert result.exit_code == 2
    assert reports[0] == reports[1]
    print(f"\nACCEPTANCE 7 PASS: byte-identical reports ({len(reports[0])} bytes)")


def test_criterion_8_scale_sanity(tmp_path):
    """1M rows x 20 features: pipeline < 10 min; extract and triage < 1 min each."""
    cat_cards = [10, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 10000]
    attrs = [
        AttributeSpec(name=f"C{i}", kind=ColumnKind.CATEGORICAL, cardinality=c)
        for i, c in enumerate(cat_cards)
    ]
    attrs += [
        AttributeSpec(name=f"X{i}", kind=ColumnKind.CONTINUOUS, distribution="lognormal")
        for i in range(8)
    ]
    fault = FaultSpec(trigger=(Predicate.equals("C2", attrs[2].value(7)),), shift=50.0)
    cfg = GeneratorConfig(
        attributes=tuple(attrs), row_count=1_000_000, kpi=CONT_PROFILE, faults=(fault,), seed=3
    )
    table, _ = generate(cfg, RUN_DATE)
    csv_path = tmp_path / "logs.csv"
    write_csv(table, csv_path)

    config = RunConfig(kpi=CONT_KPI, scoring="metric", seed=11)
    start = time.perf_counter()
    result = pipeline.run_diagnose(
        config, csv_path, tmp_path / "history.tsv", tmp_path / "out", RUN_DATE
    )
    total = time.perf_counter() - start
    timings = result.timings
    extraction = timings["extract"] + timings["impact"]
    preparation = sum(
        timings[k] for k in ("ingest", "impute", "prune", "stratify", "sample", "train")
    )
    assert total < 600.0, f"pipeline took {total:.0f}s"
    assert extraction < 60.0, f"extraction took {extraction:.1f}s"
    assert timings["triage"] < 60.0, f"triage took {timings['triage']:.1f}s"
    assert preparation > extraction + timings["triage"]
    assert result.triaged[0].rule.key() == f"C2={attrs[2].value(7)}"
    stage_line = ", ".join(f"{k} {v:.1f}s" for k, v in timings.items())
    print(f"\nACCEPTANCE 8 PASS: total {total:.0f}s < 600s ({stage_line})")
