"""Classify each rule against a rolling score history.

Categories: new (key unseen in the window), regressed (score more than one
standard deviation above the historical mean), known (within one standard
deviation), improved (more than one below), resolved (key present on the
previous run-date but absent today). The window is the 14 most recent
run-dates present in the store, so skipped runs do not shrink it. Until 14
run-dates of history exist every rule is new (cold start).

The store is a newline-delimited UTF-8 file, one record per line:

    run_date<TAB>predicate_key<TAB>score<TAB>count
"""

from __future__ import annotations

import datetime
import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

from .model import Rule, TriageCategory, TriagedRule

WINDOW_RUNS = 14


@dataclass(frozen=True)
class HistoryRecord:
    run_date: datetime.date
    predicate_key: str
    correlation_score: float
    request_count: int


class HistoryStore:
    """Append-only, file-backed store of per-day rule scores."""

    def __init__(self, path):
        self.path = os.fspath(path)
        self.records: list[HistoryRecord] = []
        self._seen: set[tuple[datetime.date, str]] = set()
        if os.path.exists(self.path):
            self._load()

    def _load(self):
        with open(self.path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                parts = line.rstrip("\n").split("\t")
                if len(parts) != 4:
                    raise ValueError(
                        f"{self.path}:{line_no}: expected 4 tab-separated fields"
                    )
                rec = HistoryRecord(
                    run_date=datetime.date.fromisoformat(parts[0]),
                    predicate_key=parts[1],
                    correlation_score=float(parts[2]),
                    request_count=int(parts[3]),
                )
                self._remember(rec, line_no)

    def _remember(self, rec: HistoryRecord, line_no=None):
        pair = (rec.run_date, rec.predicate_key)
        if pair in self._seen:
            where = f"{self.path}:{line_no}: " if line_no else ""
            raise ValueError(
                f"{where}duplicate record for {rec.predicate_key!r} on {rec.run_date}"
            )
        self._seen.add(pair)
        self.records.append(rec)

    def check(self, new_records: Sequence[HistoryRecord]) -> None:
        """ValueError if a record repeats a (date, key) stored or earlier in the batch."""
        staged = set()
        for rec in new_records:
            pair = (rec.run_date, rec.predicate_key)
            if pair in self._seen or pair in staged:
                raise ValueError(
                    f"duplicate record for {rec.predicate_key!r} on {rec.run_date}"
                )
            staged.add(pair)

    def append(self, new_records: Sequence[HistoryRecord]) -> None:
        """Validate, then durably append; nothing is written on a validation error."""
        self.check(new_records)
        lines = [
            f"{r.run_date.isoformat()}\t{r.predicate_key}\t{r.correlation_score!r}\t{r.request_count}\n"
            for r in new_records
        ]
        with open(self.path, "a", encoding="utf-8") as f:
            f.writelines(lines)
            f.flush()
            os.fsync(f.fileno())
        for rec in new_records:
            self._seen.add((rec.run_date, rec.predicate_key))
            self.records.append(rec)

    def run_dates(self, before: datetime.date | None = None) -> list[datetime.date]:
        """Distinct run-dates in the store, ascending, optionally before a date."""
        dates = {r.run_date for r in self.records}
        if before is not None:
            dates = {d for d in dates if d < before}
        return sorted(dates)

    def keys_on(self, day: datetime.date) -> set[str]:
        return {r.predicate_key for r in self.records if r.run_date == day}

    def scores_in_window(
        self, key: str, window_dates: Iterable[datetime.date]
    ) -> list[float]:
        window = set(window_dates)
        return [
            r.correlation_score
            for r in self.records
            if r.predicate_key == key and r.run_date in window
        ]


def triage(
    rules: Sequence[Rule], store: HistoryStore, today: datetime.date
) -> list[TriagedRule]:
    """Assign exactly one category to every rule present today."""
    prior_dates = store.run_dates(before=today)
    cold_start = len(prior_dates) < WINDOW_RUNS
    window = prior_dates[-WINDOW_RUNS:]
    out = []
    for rule in rules:
        if cold_start:
            out.append(TriagedRule(rule, TriageCategory.NEW))
            continue
        scores = store.scores_in_window(rule.key(), window)
        if not scores:
            out.append(TriagedRule(rule, TriageCategory.NEW))
            continue
        mean = sum(scores) / len(scores)
        sigma = math.sqrt(sum((s - mean) ** 2 for s in scores) / len(scores))
        score = rule.correlation_score
        if score > mean + sigma:
            category = TriageCategory.REGRESSED
        elif score < mean - sigma:
            category = TriageCategory.IMPROVED
        else:
            category = TriageCategory.KNOWN
        out.append(TriagedRule(rule, category))
    return out


def detect_resolved(
    rules_today: Sequence[Rule], store: HistoryStore, today: datetime.date
) -> list[str]:
    """Keys extracted on the previous run-date but absent today, sorted."""
    prior_dates = store.run_dates(before=today)
    if not prior_dates:
        return []
    previous = store.keys_on(prior_dates[-1])
    current = {r.key() for r in rules_today}
    return sorted(previous - current)


def run_records(rules: Sequence[Rule], today: datetime.date) -> list[HistoryRecord]:
    """Today's post-dedup rules as one history record per key."""
    return [
        HistoryRecord(
            run_date=today,
            predicate_key=rule.key(),
            correlation_score=rule.correlation_score,
            request_count=rule.request_count,
        )
        for rule in rules
    ]


def record_run(
    rules: Sequence[Rule], store: HistoryStore, today: datetime.date
) -> HistoryStore:
    """Persist today's post-dedup rules as one history record per key."""
    store.append(run_records(rules, today))
    return store
