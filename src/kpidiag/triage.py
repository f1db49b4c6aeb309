"""Classify each rule against a rolling score history.

Categories: new (key unseen in the window), regressed (score more than one
standard deviation above the historical mean), known (within one standard
deviation), improved (more than one below), resolved (key present on the
previous run-date but absent today). The window is the 14 most recent
run-dates present in the store, so skipped runs do not shrink it. Until 14
run-dates of history exist every rule is new (cold start).

The store is a UTF-8 file, one record per line, each ended by "\n" (and
split at "\n" only, so a key may hold a "\r"; a key that holds a tab or a
"\n" is refused):

    run_date<TAB>predicate_key<TAB>score<TAB>count

The store is read as columns: one read, one split into fields, and one
parse per field column. Loading rejects a line whose fields do not parse,
whose score is not a finite number, or that repeats a stored (date, key),
with a ValueError naming the file, the first such line and its field.
"""

from __future__ import annotations

import datetime
import itertools
import math
import os
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .model import Rule, TriageCategory, TriagedRule

WINDOW_RUNS = 14
# Bytes of the store parsed at a time.
_CHUNK_BYTES = 1 << 18


@dataclass(frozen=True)
class HistoryRecord:
    run_date: datetime.date
    predicate_key: str
    correlation_score: float
    request_count: int


class HistoryStore:
    """Append-only, file-backed store of per-day rule scores, held as columns."""

    def __init__(self, path):
        self.path = os.fspath(path)
        # one entry per stored record, in file order
        self._days: list[datetime.date] = []
        self._keys: list[str] = []
        self._scores: list[float] = []
        self._counts: list[int] = []
        # run-date -> {key -> the record's position}; built on the first query
        # or the first check of a stored date, so an append-only caller that
        # adds new dates never pays for it, and kept up to date from then on
        self._on: dict[datetime.date, dict[str, int]] | None = None
        self._dates: set[datetime.date] = set()  # every stored run-date
        if os.path.exists(self.path):
            self._load()

    @property
    def records(self) -> Sequence[HistoryRecord]:
        """Every stored record, in file order; each is built when it is read."""
        return _Records(self)

    def _load(self):
        days, keys, scores, counts = [], [], [], []
        day_of: dict[str, datetime.date] = {}
        try:
            with open(self.path, encoding="utf-8", newline="\n") as f:
                # a chunk of lines at a time, so that only its fields are held as texts
                while lines := f.readlines(_CHUNK_BYTES):
                    if any(map(str.isspace, lines)):
                        lines = [line for line in lines if not line.isspace()]
                    if len(lines) != list(map(str.count, lines, itertools.repeat("\t"))).count(3):
                        raise ValueError("a line without 4 fields")
                    # the last field keeps its line end, which int() ignores
                    fields = "\t".join(lines).split("\t")
                    for text in set(fields[0::4]) - day_of.keys():
                        day_of[text] = datetime.date.fromisoformat(text)
                    days += map(day_of.__getitem__, fields[0::4])
                    keys += fields[1::4]
                    scores += map(float, fields[2::4])
                    counts += map(int, fields[3::4])
            if not all(map(math.isfinite, scores)):
                raise ValueError("a score that is not finite")
            on = _date_map(days, keys)
            if sum(map(len, on.values())) != len(keys):
                raise ValueError("a record stored twice")
        except ValueError:
            raise self._first_fault() from None
        self._days, self._keys, self._scores, self._counts = days, keys, scores, counts
        self._on, self._dates = on, set(on)

    def _first_fault(self) -> ValueError:
        """The error naming the first line with a fault, and its first field,
        from a second, line-by-line read."""
        stored = set()
        with open(self.path, encoding="utf-8", newline="\n") as f:
            for line_no, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                parts = line.rstrip("\n").split("\t")
                if len(parts) != 4:
                    return ValueError(f"{self.path}:{line_no}: expected 4 tab-separated fields")
                for name, i, parse, expected in _FIELDS:
                    try:
                        parse(parts[i])
                    except ValueError:
                        return ValueError(f"{self.path}:{line_no}: {name} field {parts[i]!r} is not {expected}")
                day, key = datetime.date.fromisoformat(parts[0]), parts[1]
                if (day, key) in stored:
                    return ValueError(f"{self.path}:{line_no}: duplicate record for {key!r} on {day}")
                stored.add((day, key))
        raise AssertionError("some line has a fault")

    def check(self, new_records: Sequence[HistoryRecord]) -> None:
        """ValueError if a record's key holds a tab or a line end, or if it
        repeats a (date, key) stored or earlier in the batch."""
        staged = set()
        for rec in new_records:
            if "\t" in rec.predicate_key or "\n" in rec.predicate_key:
                raise ValueError(f"key {rec.predicate_key!r} holds a tab or a line end, which the store cannot hold")
            pair = (rec.run_date, rec.predicate_key)
            if pair in staged or rec.run_date in self._dates and rec.predicate_key in self._by_date()[rec.run_date]:
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
            if self._on is not None:
                self._on.setdefault(rec.run_date, {})[rec.predicate_key] = len(self._keys)
            self._dates.add(rec.run_date)
            self._days.append(rec.run_date)
            self._keys.append(rec.predicate_key)
            self._scores.append(rec.correlation_score)
            self._counts.append(rec.request_count)

    def _by_date(self) -> dict[datetime.date, dict[str, int]]:
        if self._on is None:
            self._on = _date_map(self._days, self._keys)
        return self._on

    def run_dates(self, before: datetime.date | None = None) -> list[datetime.date]:
        """Distinct run-dates in the store, ascending, optionally before a date."""
        return sorted(d for d in self._by_date() if before is None or d < before)

    def keys_on(self, day: datetime.date) -> set[str]:
        return set(self._by_date().get(day, ()))

    def scores_in_window(
        self, key: str, window_dates: Iterable[datetime.date]
    ) -> list[float]:
        """The key's scores on the window's dates, in file order."""
        on = self._by_date()
        rows = [on[d][key] for d in set(window_dates) if key in on.get(d, ())]
        return [self._scores[i] for i in sorted(rows)]


class _Records(Sequence):
    def __init__(self, store: HistoryStore):
        self._store = store

    def __len__(self) -> int:
        return len(self._store._keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        s = self._store
        return HistoryRecord(s._days[i], s._keys[i], s._scores[i], s._counts[i])


def _date_map(days: list, keys: list) -> dict[datetime.date, dict[str, int]]:
    """Each run-date's keys, each with its last record's position."""
    on: dict[datetime.date, dict[str, int]] = {day: {} for day in dict.fromkeys(days)}
    for day, key, i in zip(days, keys, itertools.count()):
        on[day][key] = i
    return on


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


# (name, position, parser, what a valid field is) of each field a line's reader checks, in order
_FIELDS = (
    ("run_date", 0, datetime.date.fromisoformat, "an ISO date"),
    ("score", 2, _finite_float, "a finite number"),
    ("count", 3, int, "an integer"),
)


def triage(
    rules: Sequence[Rule], store: HistoryStore, today: datetime.date
) -> list[TriagedRule]:
    """Assign exactly one category to every rule present today."""
    prior_dates = store.run_dates(before=today)
    cold_start = len(prior_dates) < WINDOW_RUNS
    window = prior_dates[-WINDOW_RUNS:]
    out = []
    for rule in rules:
        scores = [] if cold_start else store.scores_in_window(rule.key(), window)
        category = TriageCategory.NEW
        if scores:
            mean = sum(scores) / len(scores)
            sigma = math.sqrt(sum((s - mean) ** 2 for s in scores) / len(scores))
            if rule.correlation_score > mean + sigma:
                category = TriageCategory.REGRESSED
            elif rule.correlation_score < mean - sigma:
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
