import datetime
import fcntl
import importlib
import math
import multiprocessing
import os
import statistics
import tempfile
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpidiag.model import Predicate, Rule, TriageCategory
from kpidiag.triage import (
    HistoryRecord,
    HistoryStore,
    detect_resolved,
    record_run,
    triage,
)

D = datetime.date
# the run-dates and keys of the history-store property test
DATES = [D(2026, 1, d) for d in range(1, 6)]
KEYS = ["k0", "k1", "k2", "k3"]
# the package's attribute `triage` is the function of that name
triage_module = importlib.import_module("kpidiag.triage")


def rule_for(key_value: str, score: float, count: int = 10) -> Rule:
    return Rule(
        correlated_predicate=Predicate.equals("X", key_value),
        scope_predicates=(),
        correlation_score=score,
        request_count=count,
    )


def seeded_store(tmp_path, days_scores: dict[datetime.date, dict[str, float]]):
    store = HistoryStore(tmp_path / "history.tsv")
    for day in sorted(days_scores):
        store.append(
            [
                HistoryRecord(day, f"X={v}", score, 10)
                for v, score in days_scores[day].items()
            ]
        )
    return store


def fourteen_days(end: datetime.date, scores_fn) -> dict:
    days = {}
    for i in range(14):
        day = end - datetime.timedelta(days=13 - i)
        days[day] = scores_fn(i)
    return days


class TestTriageCategories:
    def test_constant_history_sigma_zero(self, tmp_path):
        today = D(2026, 2, 1)
        store = seeded_store(tmp_path, fourteen_days(D(2026, 1, 31), lambda i: {"a": 10.0}))
        verdict = lambda s: triage([rule_for("a", s)], store, today)[0].category
        assert verdict(10.0) is TriageCategory.KNOWN
        assert verdict(10.0001) is TriageCategory.REGRESSED
        assert verdict(9.9999) is TriageCategory.IMPROVED

    def test_sigma_thresholds_against_statistics_oracle(self, tmp_path):
        today = D(2026, 2, 1)
        scores = [90.0] * 7 + [110.0] * 7  # mean 100, population sigma 10
        store = seeded_store(
            tmp_path,
            fourteen_days(D(2026, 1, 31), lambda i: {"a": scores[i]}),
        )
        assert statistics.mean(scores) == 100.0
        assert statistics.pstdev(scores) == 10.0
        verdict = lambda s: triage([rule_for("a", s)], store, today)[0].category
        assert verdict(125.0) is TriageCategory.REGRESSED
        assert verdict(110.0) is TriageCategory.KNOWN  # boundary: within one sigma
        assert verdict(90.0) is TriageCategory.KNOWN
        assert verdict(89.99) is TriageCategory.IMPROVED
        assert verdict(110.01) is TriageCategory.REGRESSED

    def test_key_absent_from_window_is_new(self, tmp_path):
        store = seeded_store(
            tmp_path, fourteen_days(D(2026, 1, 31), lambda i: {"other": 5.0})
        )
        out = triage([rule_for("a", 1.0)], store, D(2026, 2, 1))
        assert out[0].category is TriageCategory.NEW

    def test_cold_start_everything_new(self, tmp_path):
        store = seeded_store(
            tmp_path,
            {D(2026, 1, d): {"a": 999.0} for d in range(1, 14)},  # 13 run-dates
        )
        out = triage([rule_for("a", 1.0)], store, D(2026, 1, 20))
        assert out[0].category is TriageCategory.NEW

    def test_window_is_runs_not_calendar_days(self, tmp_path):
        # 14 run-dates spread over months: window must cover all of them
        days = {D(2026, 1, 1) + datetime.timedelta(days=7 * i): {"a": 50.0} for i in range(14)}
        store = seeded_store(tmp_path, days)
        out = triage([rule_for("a", 50.0)], store, D(2026, 6, 1))
        assert out[0].category is TriageCategory.KNOWN

    def test_only_the_last_fourteen_runs_count(self, tmp_path):
        # 20 run-dates; the oldest 6 carry a huge score that must be ignored
        days = {}
        for i in range(6):
            days[D(2026, 1, 1) + datetime.timedelta(days=i)] = {"a": 10_000.0}
        for i in range(14):
            days[D(2026, 2, 1) + datetime.timedelta(days=i)] = {"a": 10.0}
        store = seeded_store(tmp_path, days)
        out = triage([rule_for("a", 10.0)], store, D(2026, 3, 1))
        assert out[0].category is TriageCategory.KNOWN

    def test_partial_presence_in_window(self, tmp_path):
        # key present on only 3 of the 14 run-dates: stats over those 3
        days = fourteen_days(D(2026, 1, 31), lambda i: {"bg": 1.0})
        for i, day in enumerate(sorted(days)):
            if i in (2, 5, 8):
                days[day]["a"] = 100.0
        store = seeded_store(tmp_path, days)
        out = triage([rule_for("a", 100.0)], store, D(2026, 2, 1))
        assert out[0].category is TriageCategory.KNOWN

    def test_exhaustive_and_exclusive(self, tmp_path):
        store = seeded_store(
            tmp_path, fourteen_days(D(2026, 1, 31), lambda i: {"a": 10.0})
        )
        rules = [rule_for("a", 20.0), rule_for("b", 1.0)]
        out = triage(rules, store, D(2026, 2, 1))
        assert len(out) == len(rules)
        for t in out:
            assert t.category in {
                TriageCategory.NEW,
                TriageCategory.REGRESSED,
                TriageCategory.KNOWN,
                TriageCategory.IMPROVED,
            }

    def test_monotone_in_todays_score(self, tmp_path):
        scores = [90.0] * 7 + [110.0] * 7
        store = seeded_store(
            tmp_path, fourteen_days(D(2026, 1, 31), lambda i: {"a": scores[i]})
        )
        order = {
            TriageCategory.IMPROVED: 0,
            TriageCategory.KNOWN: 1,
            TriageCategory.REGRESSED: 2,
        }
        last = -1
        for s in [10.0, 80.0, 95.0, 100.0, 109.0, 111.0, 500.0]:
            cat = triage([rule_for("a", s)], store, D(2026, 2, 1))[0].category
            assert order[cat] >= last
            last = order[cat]

    def test_pure_function_of_inputs(self, tmp_path):
        store = seeded_store(
            tmp_path, fourteen_days(D(2026, 1, 31), lambda i: {"a": float(i)})
        )
        rules = [rule_for("a", 7.0)]
        first = [t.category for t in triage(rules, store, D(2026, 2, 1))]
        second = [t.category for t in triage(rules, store, D(2026, 2, 1))]
        assert first == second


class TestDetectResolved:
    def test_dropped_key_is_resolved(self, tmp_path):
        store = seeded_store(tmp_path, {D(2026, 1, 1): {"a": 1.0, "b": 2.0}})
        resolved = detect_resolved([rule_for("a", 1.0)], store, D(2026, 1, 2))
        assert resolved == ["X=b"]

    def test_new_keys_do_not_resolve_anything(self, tmp_path):
        store = seeded_store(tmp_path, {D(2026, 1, 1): {"a": 1.0}})
        resolved = detect_resolved(
            [rule_for("a", 1.0), rule_for("c", 1.0)], store, D(2026, 1, 2)
        )
        assert resolved == []

    def test_first_ever_run_resolves_nothing(self, tmp_path):
        store = HistoryStore(tmp_path / "history.tsv")
        assert detect_resolved([rule_for("a", 1.0)], store, D(2026, 1, 1)) == []

    def test_previous_run_date_not_calendar_yesterday(self, tmp_path):
        store = seeded_store(tmp_path, {D(2026, 1, 1): {"a": 1.0}})
        resolved = detect_resolved([], store, D(2026, 3, 15))
        assert resolved == ["X=a"]


class TestHistoryStore:
    def test_append_then_reload(self, tmp_path):
        path = tmp_path / "history.tsv"
        store = HistoryStore(path)
        record_run([rule_for("a", 1.5, count=42)], store, D(2026, 1, 1))
        reloaded = HistoryStore(path)
        assert len(reloaded.records) == 1
        rec = reloaded.records[0]
        assert rec.predicate_key == "X=a"
        assert rec.correlation_score == 1.5
        assert rec.request_count == 42
        assert rec.run_date == D(2026, 1, 1)

    def test_duplicate_date_key_rejected_and_store_unchanged(self, tmp_path):
        path = tmp_path / "history.tsv"
        store = HistoryStore(path)
        record_run([rule_for("a", 1.0)], store, D(2026, 1, 1))
        with pytest.raises(ValueError, match="duplicate"):
            record_run([rule_for("a", 2.0)], store, D(2026, 1, 1))
        assert len(HistoryStore(path).records) == 1

    def test_duplicate_within_one_batch_rejected_before_writing(self, tmp_path):
        path = tmp_path / "history.tsv"
        store = HistoryStore(path)
        with pytest.raises(ValueError, match="duplicate"):
            store.append(
                [
                    HistoryRecord(D(2026, 1, 1), "k", 1.0, 1),
                    HistoryRecord(D(2026, 1, 1), "k", 2.0, 1),
                ]
            )
        assert not path.exists() or path.read_text() == ""
        assert len(HistoryStore(path).records) == 0

    @pytest.mark.parametrize("value", ["a\tb", "a\nb"])
    def test_key_with_a_tab_or_line_feed_rejected_before_writing(self, tmp_path, value):
        path = tmp_path / "history.tsv"
        with pytest.raises(ValueError, match="holds a tab or a line end"):
            record_run([rule_for(value, 1.0)], HistoryStore(path), D(2026, 1, 1))
        assert not path.exists()

    def test_key_with_a_surrogate_rejected_before_writing(self, tmp_path):
        # a JSON log may decode to one ("\ud800"); the batch is longer than
        # one block of lines, so a write that encoded as it went would be torn
        path = tmp_path / "history.tsv"
        record_run([rule_for("a", 1.0)], HistoryStore(path), D(2026, 1, 1))
        before = path.read_bytes()
        batch = [HistoryRecord(D(2026, 1, 2), f"k{i}", 1.0, 1) for i in range(5000)]
        with pytest.raises(ValueError, match="holds a surrogate, which UTF-8 cannot encode"):
            HistoryStore(path).append(batch + [HistoryRecord(D(2026, 1, 2), "X=\ud800", 1.0, 1)])
        assert path.read_bytes() == before

    @pytest.mark.parametrize("value", ["a\rb", "a\r", "a\x85b\u2028"])
    def test_key_with_another_line_boundary_appends_and_loads_back(self, tmp_path, value):
        path = tmp_path / "history.tsv"
        record_run([rule_for(value, 1.5), rule_for("z", 2.0)], HistoryStore(path), D(2026, 1, 1))
        record_run([rule_for(value, 2.5)], HistoryStore(path), D(2026, 1, 2))
        store = HistoryStore(path)
        assert [(r.predicate_key, r.correlation_score) for r in store.records] == [
            (f"X={value}", 1.5), ("X=z", 2.0), (f"X={value}", 2.5)
        ]
        assert store.keys_on(D(2026, 1, 1)) == {f"X={value}", "X=z"}

    def test_format_is_tab_separated(self, tmp_path):
        path = tmp_path / "history.tsv"
        record_run([rule_for("a", 2.5, count=7)], HistoryStore(path), D(2026, 1, 3))
        assert path.read_text(encoding="utf-8") == "2026-01-03\tX=a\t2.5\t7\n"

    def test_cold_start_lifts_on_run_fifteen(self, tmp_path):
        path = tmp_path / "history.tsv"
        store = HistoryStore(path)
        for i in range(14):
            day = D(2026, 1, 1) + datetime.timedelta(days=i)
            out = triage([rule_for("a", 10.0)], store, day)
            assert out[0].category is TriageCategory.NEW, f"run {i + 1}"
            record_run([rule_for("a", 10.0)], store, day)
        out = triage([rule_for("a", 10.0)], store, D(2026, 1, 15))
        assert out[0].category is TriageCategory.KNOWN

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "history.tsv"
        path.write_text("2026-01-01\tk\t1.0\n", encoding="utf-8")  # 3 fields
        with pytest.raises(ValueError, match=":1"):
            HistoryStore(path)

    @pytest.mark.parametrize(
        "fields, named",
        [
            ("2026-08-09\tk\t0.5\t", "count field '' is not an integer"),
            ("2026-08-09\tk\t0.5\t1.0", "count field '1.0' is not an integer"),
            ("2026-02-30\tk\t0.5\t3", "run_date field '2026-02-30' is not an ISO date"),
            ("yesterday\tk\t0.5\t3", "run_date field 'yesterday' is not an ISO date"),
            ("2026-08-09\tk\thigh\t3", "score field 'high' is not a finite number"),
            ("2026-08-09\tk\tnan\t3", "score field 'nan' is not a finite number"),
            ("2026-08-09\tk\tinf\t3", "score field 'inf' is not a finite number"),
            ("2026-08-09\tk\t-inf\t3", "score field '-inf' is not a finite number"),
        ],
        ids=[
            "empty-count",
            "float-count",
            "impossible-date",
            "word-date",
            "word-score",
            "nan-score",
            "inf-score",
            "minus-inf-score",
        ],
    )
    def test_bad_field_names_line_and_field(self, tmp_path, fields, named):
        path = tmp_path / "history.tsv"
        path.write_text(f"2026-08-08\tk\t0.5\t3\n{fields}\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            HistoryStore(path)
        assert str(err.value) == f"{path}:2: {named}"

    def test_indexes_answer_like_a_scan_of_the_records(self, tmp_path):
        path = tmp_path / "history.tsv"
        batches = [  # in date order, and 2026-01-02 twice
            (D(2026, 1, 2), {"k1": 3.0, "k2": 4.0}),
            (D(2026, 1, 2), {"k0": 7.0}),
            (D(2026, 1, 5), {"k0": 1.0, "k1": 2.0}),
            (D(2026, 1, 7), {"k1": 8.0, "k2": 9.0}),
            (D(2026, 1, 9), {"k0": 5.0, "k1": 6.0}),
        ]
        for day, scores in batches:
            HistoryStore(path).append([HistoryRecord(day, k, v, 1) for k, v in scores.items()])
        store = HistoryStore(path)
        window = [D(2026, 1, 2), D(2026, 1, 7), D(2026, 1, 9)]
        assert store.scores_in_window("k1", window) == [3.0, 8.0, 6.0]  # file order
        for key in ("k0", "k1", "k2", "absent"):
            scan = [
                r.correlation_score
                for r in store.records
                if r.predicate_key == key and r.run_date in window
            ]
            assert store.scores_in_window(key, window) == scan
        assert store.keys_on(D(2026, 1, 2)) == {"k0", "k1", "k2"}
        assert store.keys_on(D(2026, 1, 3)) == set()
        assert store.run_dates() == [D(2026, 1, d) for d in (2, 5, 7, 9)]
        assert store.run_dates(before=D(2026, 1, 9)) == [D(2026, 1, d) for d in (2, 5, 7)]
        assert store.run_dates(before=D(2026, 1, 12)) == [D(2026, 1, d) for d in (2, 5, 7, 9)]
        # a query before the last run-date is refused, as an append is
        with pytest.raises(ValueError, match="run-date 2026-01-07 comes before 2026-01-09"):
            store.run_dates(before=D(2026, 1, 7))
        with pytest.raises(ValueError, match="run-date 2026-01-08 comes before 2026-01-09"):
            triage([rule_for("a", 1.0)], store, D(2026, 1, 8))

    @pytest.mark.parametrize(
        "batch, named",
        [
            ([(D(2026, 1, 3), "k9")], "run-date 2026-01-03 comes before 2026-01-09"),
            ([(D(2026, 1, 10), "k0"), (D(2026, 1, 9), "k9")], "run-date 2026-01-09 comes before 2026-01-10"),
            ([(D(2026, 1, 9), "k9"), (D(2026, 1, 3), "k9")], "run-date 2026-01-03 comes before 2026-01-09"),
        ],
        ids=["before-the-store", "down-in-the-batch", "same-date-then-down"],
    )
    def test_a_batch_whose_run_dates_go_down_is_refused_before_writing(self, tmp_path, batch, named):
        path = tmp_path / "history.tsv"
        store = HistoryStore(path)
        store.append([HistoryRecord(D(2026, 1, 5), "k0", 1.0, 1), HistoryRecord(D(2026, 1, 9), "k0", 2.0, 1)])
        before = path.read_bytes()
        for target in (store, HistoryStore(path)):
            with pytest.raises(ValueError, match=named):
                target.append([HistoryRecord(day, key, 0.5, 1) for day, key in batch])
        assert path.read_bytes() == before
        assert HistoryStore(path).keys_on(D(2026, 1, 9)) == {"k0"}

    def test_a_load_names_a_run_date_that_goes_down(self, tmp_path):
        # a store written out of date order, as older versions allowed
        path = tmp_path / "history.tsv"
        path.write_text("".join(GOOD[i] + "\n" for i in (0, 1, 6, 3)), encoding="utf-8")
        with pytest.raises(ValueError) as err:
            HistoryStore(path)
        assert str(err.value) == f"{path}:4: run_date 2026-08-02 comes before 2026-08-03 on an earlier line"

    def test_an_append_holds_none_of_what_it_wrote(self, tmp_path):
        # An append drops the run-date map, and the next query or check reads
        # the file's end again: the benchmark's set-up seeds a year of history
        # through append in its own process, and every child it starts
        # inherits that process's peak RSS.
        path = tmp_path / "history.tsv"
        store = HistoryStore(path)
        for day in (D(2026, 1, 1), D(2026, 1, 2)):
            store.append([HistoryRecord(day, f"k{i}", 1.0, 1) for i in range(3)])
            assert store._on is None
        with pytest.raises(ValueError, match="run-date 2026-01-01 comes before 2026-01-02"):
            store.append([HistoryRecord(D(2026, 1, 1), "k9", 1.0, 1)])
        assert store.run_dates() == [D(2026, 1, 1), D(2026, 1, 2)]
        assert {day: set(keys) for day, keys in store._on.items()} == {
            D(2026, 1, 1): {"k0", "k1", "k2"}, D(2026, 1, 2): {"k0", "k1", "k2"}
        }
        path.write_bytes(b"")  # the held map answers until an append drops it
        assert store.keys_on(D(2026, 1, 2)) == {"k0", "k1", "k2"}
        store.append([HistoryRecord(D(2026, 1, 3), "k0", 1.0, 1)])
        assert store._on is None and store.run_dates() == [D(2026, 1, 3)]

    @settings(max_examples=60, deadline=None)
    @given(
        batches=st.lists(
            st.tuples(
                st.sampled_from(DATES),
                st.lists(st.tuples(st.sampled_from(KEYS), st.floats(-1e3, 1e3)), max_size=4),
            ),
            min_size=1,
            max_size=6,
        ),
        window=st.lists(st.sampled_from(DATES), max_size=4),
    )
    def test_queries_after_each_append_answer_like_a_fresh_load(self, batches, window):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "history.tsv")
            store, stored, last = HistoryStore(path), set(), None
            for day, scored in batches:  # a date repeated with new keys, or one that goes down
                new = [(day, k, v) for k, v in dict(scored).items() if (day, k) not in stored]
                if new and last is not None and day < last:  # refused, and nothing written
                    size = os.path.getsize(path)
                    with pytest.raises(ValueError, match=f"run-date {day} comes before {last}"):
                        store.append([HistoryRecord(d, k, v, 1) for d, k, v in new])
                    assert os.path.getsize(path) == size
                    continue
                stored.update((d, k) for d, k, _ in new)
                last = day if new else last
                store.append([HistoryRecord(d, k, v, 1) for d, k, v in new])
                for d, k, _ in new[:1]:  # a stored (date, key) is refused, map built or not
                    with pytest.raises(ValueError, match="duplicate"):
                        store.append([HistoryRecord(d, k, 0.0, 1)])
                fresh = HistoryStore(path)
                for before in (None, *DATES):
                    if before is not None and last is not None and before < last:
                        for s in (store, fresh):
                            with pytest.raises(ValueError, match="comes before"):
                                s.run_dates(before)
                    else:
                        assert store.run_dates(before) == fresh.run_dates(before)
                for d in DATES:
                    assert store.keys_on(d) == fresh.keys_on(d)
                for key in KEYS:
                    scan = [r.correlation_score for r in fresh.records if r.predicate_key == key and r.run_date in window]
                    assert store.scores_in_window(key, window) == fresh.scores_in_window(key, window) == scan

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(st.integers(0, 2), st.lists(st.sampled_from(KEYS), unique=True, max_size=3)),
            min_size=1,
            max_size=12,
        ),
        window_runs=st.integers(1, 3),
        chunk=st.sampled_from([8, 40, 1 << 18]),
    )
    def test_a_store_read_from_its_end_answers_like_a_scan(self, steps, window_runs, chunk):
        """On in-order batches, the records of the last window_runs + 1
        run-dates answer every query on or after the last run-date as a scan
        of every record does, and a query reaching further back raises."""
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(triage_module, "WINDOW_RUNS", window_runs), \
                mock.patch.object(triage_module, "_CHUNK_BYTES", chunk):
            path = os.path.join(tmp, "history.tsv")
            writer, day, stored = HistoryStore(path), D(2026, 1, 1), set()
            for step, keys in steps:  # step 0 is the last run-date again, with new keys
                day += datetime.timedelta(days=step)
                new = [k for k in keys if (day, k) not in stored]
                stored.update((day, k) for k in new)
                writer.append([HistoryRecord(day, k, float(len(stored)), 1) for k in new])
            store, records = HistoryStore(path), HistoryStore(path).records
            dates = sorted({r.run_date for r in records})
            if not dates:
                return
            last = dates[-1]
            held = [r for r in records if r.run_date in dates[-window_runs - 1:]]
            assert sum(map(len, store._on.values())) == len(held)
            for today in (last, last + datetime.timedelta(days=1)):
                window = store.run_dates(before=today)
                assert window == [d for d in dates if d < today][-window_runs:]
                for d in (*window, today):
                    assert store.keys_on(d) == {r.predicate_key for r in records if r.run_date == d}
                for key in KEYS:
                    scan = [r.correlation_score for r in records if r.predicate_key == key and r.run_date in window]
                    assert store.scores_in_window(key, window) == scan
            for d in dates[:-1]:
                with pytest.raises(ValueError, match=f"run-date {d} comes before {last}"):
                    store.run_dates(before=d)
            if len(dates) > window_runs + 1:  # older lines were not read
                older = dates[-window_runs - 2]
                with pytest.raises(ValueError, match="not loaded"):
                    store.keys_on(older)
                with pytest.raises(ValueError, match="not loaded"):
                    store.scores_in_window("k0", [older, last])

    def test_a_five_year_store_loads_only_the_window(self, tmp_path):
        path = tmp_path / "history.tsv"
        days = [D(2021, 1, 1) + datetime.timedelta(days=i) for i in range(5 * 365)]
        path.write_text("".join(f"{d}\tk{k}\t0.5\t3\n" for d in days for k in range(3)), encoding="utf-8")
        store = HistoryStore(path)
        assert sum(map(len, store._on.values())) == 3 * (triage_module.WINDOW_RUNS + 1)
        assert len(store.records) == 3 * len(days)
        today = days[-1] + datetime.timedelta(days=1)
        assert store.run_dates(before=today) == days[-triage_module.WINDOW_RUNS:]
        assert triage([rule_for("a", 1.0)], store, today)[0].category is TriageCategory.NEW
        record_run([rule_for("a", 1.0)], store, today)
        assert len(HistoryStore(path).records) == 3 * len(days) + 1

    def test_a_malformed_line_before_the_window_is_named_only_by_records(self, tmp_path):
        path = tmp_path / "history.tsv"
        days = [D(2026, 1, 1) + datetime.timedelta(days=i) for i in range(triage_module.WINDOW_RUNS + 2)]
        lines = [f"{d}\tk\t0.5\t3\n" for d in days]
        lines.insert(1, "2026-01-01\tbad\tnan\n")  # line 2, in the oldest run-date
        path.write_text("".join(lines), encoding="utf-8")
        store = HistoryStore(path)
        assert store.run_dates() == days[-triage_module.WINDOW_RUNS:]
        assert sum(map(len, store._on.values())) == triage_module.WINDOW_RUNS + 1
        with pytest.raises(ValueError) as err:
            store.records
        assert str(err.value) == f"{path}:2: expected 4 tab-separated fields"

    @pytest.mark.parametrize("score", [math.inf, -math.inf, math.nan])
    def test_a_score_that_is_not_finite_is_refused_before_writing(self, tmp_path, score):
        path = tmp_path / "history.tsv"
        record_run([rule_for("a", 1.0)], HistoryStore(path), D(2026, 1, 1))
        before = path.read_bytes()
        batch = [HistoryRecord(D(2026, 1, 2), "X=a", 1.0, 1), HistoryRecord(D(2026, 1, 2), "X=b", score, 1)]
        with pytest.raises(ValueError, match=f"score {score!r} for 'X=b' on 2026-01-02 is not a finite number"):
            HistoryStore(path).append(batch)
        assert path.read_bytes() == before

    def test_an_append_ends_a_last_line_that_lacks_its_line_end(self, tmp_path):
        path = tmp_path / "history.tsv"
        path.write_text("2026-08-01\tk0\t0.5\t3", encoding="utf-8")
        HistoryStore(path).append([HistoryRecord(D(2026, 8, 2), "k1", 1.5, 4)])
        assert path.read_text(encoding="utf-8") == "2026-08-01\tk0\t0.5\t3\n2026-08-02\tk1\t1.5\t4\n"
        assert HistoryStore(path).records == [
            HistoryRecord(D(2026, 8, 1), "k0", 0.5, 3), HistoryRecord(D(2026, 8, 2), "k1", 1.5, 4)
        ]

    @pytest.mark.parametrize(
        "cut, named",
        [
            (17, "expected 4 tab-separated fields"),
            (19, "count field '' is not an integer"),
            (6, "expected 4 tab-separated fields"),
            (13, "not UTF-8 text"),
        ],
        ids=["in-the-score", "after-the-score", "in-the-date", "in-a-character"],
    )
    def test_a_torn_last_line_is_named_until_it_is_removed(self, tmp_path, cut, named):
        # 20 run-dates, so the unread head of the file counts in the line number
        path = tmp_path / "history.tsv"
        whole = "".join(f"2026-01-{d:02d}\tk{k}\t0.5\t3\n" for d in range(1, 21) for k in range(2)).encode()
        torn = "2026-01-21\tké\t0.5\t3\n".encode()[:cut]  # "é" is bytes 12 and 13
        path.write_bytes(whole + torn)
        for load in (HistoryStore, lambda p: HistoryStore(p).records):
            with pytest.raises(ValueError) as err:
                load(path)
            assert str(err.value) == f"{path}:41: {named}"
        path.write_bytes(whole)  # the fix: delete the partial line
        record_run([rule_for("a", 1.0)], HistoryStore(path), D(2026, 1, 21))
        assert len(HistoryStore(path).records) == 41

    def test_a_load_and_an_append_wait_for_an_exclusive_lock(self, tmp_path):
        path = tmp_path / "history.tsv"
        path.write_text("2026-01-01\tk\t1.0\t1\n", encoding="utf-8")
        store, loaded = HistoryStore(path), []
        with open(path, "rb") as held:
            fcntl.flock(held, fcntl.LOCK_EX)
            threads = [
                threading.Thread(target=lambda: loaded.append(HistoryStore(path))),
                threading.Thread(target=store.append, args=([HistoryRecord(D(2026, 1, 2), "k", 2.0, 1)],)),
            ]
            for t in threads:
                t.start()
                t.join(timeout=0.3)
                assert t.is_alive()
            assert not loaded and path.read_text(encoding="utf-8") == "2026-01-01\tk\t1.0\t1\n"
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert len(loaded) == 1 and len(HistoryStore(path).records) == 2

    @pytest.mark.parametrize("writers", [2, 4])
    def test_processes_appending_one_date_at_once_one_wins(self, tmp_path, writers):
        path = tmp_path / "history.tsv"
        HistoryStore(path).append([HistoryRecord(D(2026, 1, 1), "k", 1.0, 1)])
        spawn = multiprocessing.get_context("spawn")
        barrier, results = spawn.Barrier(writers), spawn.Queue()
        procs = [
            spawn.Process(target=_append_once_all_loaded, args=(path, barrier, results, float(i)))
            for i in range(writers)
        ]
        for p in procs:
            p.start()
        outcomes = sorted(results.get(timeout=120) for _ in procs)
        for p in procs:
            p.join(timeout=60)
            assert not p.is_alive() and p.exitcode == 0
        assert outcomes == ["duplicate record for 'k' on 2026-01-02"] * (writers - 1) + ["ok"]
        records = HistoryStore(path).records
        assert [(r.run_date, r.predicate_key) for r in records] == [(D(2026, 1, 1), "k"), (D(2026, 1, 2), "k")]


def _append_once_all_loaded(path, barrier, results, score):
    """Load the store, wait until every other writer has too, then append."""
    store = HistoryStore(path)
    barrier.wait()
    try:
        store.append([HistoryRecord(D(2026, 1, 2), "k", score, 1)])
        results.put("ok")
    except ValueError as err:
        results.put(str(err))


GOOD = [f"2026-08-0{d}\tk{k}\t0.5\t3" for d in range(1, 4) for k in range(3)]  # 9 lines
FAULTS = {
    "field-count": ("2026-08-09\tk\t0.5", "expected 4 tab-separated fields"),
    "date": ("2026-02-30\tk\t0.5\t3", "run_date field '2026-02-30' is not an ISO date"),
    "score": ("2026-08-09\tk\thigh\t3", "score field 'high' is not a finite number"),
    "nan-score": ("2026-08-09\tk\tnan\t3", "score field 'nan' is not a finite number"),
    "inf-score": ("2026-08-09\tk\t-inf\t3", "score field '-inf' is not a finite number"),
    "count": ("2026-08-09\tk\t0.5\t3.0", "count field '3.0' is not an integer"),
    # the same run-date and key as GOOD[0], written another way
    "duplicate": ("20260801\tk0\t0.7\t3", "duplicate record for 'k0' on 2026-08-01"),
}


class TestHistoryLoadErrors:
    """A load stops at the first faulty line and names it, counted from the
    start of the file, with its first faulty field."""

    @pytest.mark.parametrize("at", [0, 4, 9], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("fault", FAULTS)
    def test_fault_names_its_line_and_field(self, tmp_path, fault, at):
        bad, named = FAULTS[fault]
        if fault == "duplicate":
            at = max(at, 1)  # a record repeats one on an earlier line
        lines = GOOD[:at] + [bad] + GOOD[at:]
        path = tmp_path / "history.tsv"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with pytest.raises(ValueError) as err:
            HistoryStore(path)
        assert str(err.value) == f"{path}:{at + 1}: {named}"

    def test_the_first_faulty_line_wins_over_a_later_one_of_another_kind(self, tmp_path):
        path = tmp_path / "history.tsv"
        path.write_text("\n".join([GOOD[0], FAULTS["count"][0], FAULTS["field-count"][0]]) + "\n")
        with pytest.raises(ValueError, match=r":2: count field"):
            HistoryStore(path)

    @pytest.mark.parametrize("chunk", [16, 64, 1 << 18])
    def test_blank_lines_crlf_and_no_final_newline(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(triage_module, "_CHUNK_BYTES", chunk)
        path = tmp_path / "history.tsv"
        text = "\r\n".join([GOOD[0], "", GOOD[1], "  \t ", GOOD[4], "\r", GOOD[8]])
        path.write_bytes(text.encode("utf-8"))
        store = HistoryStore(path)
        assert [(r.run_date, r.predicate_key, r.correlation_score, r.request_count) for r in store.records] == [
            (D(2026, 8, 1), "k0", 0.5, 3), (D(2026, 8, 1), "k1", 0.5, 3),
            (D(2026, 8, 2), "k1", 0.5, 3), (D(2026, 8, 3), "k2", 0.5, 3),
        ]
        assert store.run_dates() == [D(2026, 8, 1), D(2026, 8, 2), D(2026, 8, 3)]
        assert store.keys_on(D(2026, 8, 1)) == {"k0", "k1"}
        # the blank lines still count, and only "\n" ends a line ("\r\r\n" is
        # one blank line): the bad line after them is file line 8
        path.write_bytes((text + "\r\n" + FAULTS["score"][0]).encode("utf-8"))
        with pytest.raises(ValueError) as err:
            HistoryStore(path)
        assert str(err.value) == f"{path}:8: {FAULTS['score'][1]}"

    @pytest.mark.parametrize("chunk", [16, 1 << 18])
    def test_duplicate_across_chunks(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(triage_module, "_CHUNK_BYTES", chunk)
        path = tmp_path / "history.tsv"
        path.write_text("".join(line + "\n" for line in GOOD + ["2026-08-01\tk2\t9.0\t1"]))
        with pytest.raises(ValueError) as err:
            HistoryStore(path)
        assert str(err.value) == f"{path}:10: duplicate record for 'k2' on 2026-08-01"

    def test_scores_and_counts_parse_as_float_and_int_do(self, tmp_path):
        path = tmp_path / "history.tsv"
        path.write_text("2026-08-01\tk\t 1_5.25 \t +7 \n", encoding="utf-8")
        [rec] = HistoryStore(path).records
        assert (rec.correlation_score, rec.request_count) == (15.25, 7)
