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

Run-dates only grow down the file: an append whose run-dates go down, or
start before the store's last one, is refused. So a load reads only the
file's end: backward, a chunk at a time, up to the last line of a run-date
older than the last WINDOW_RUNS + 1 (the window before a same-date rerun,
and that date). Those lines are parsed as columns: one split into fields,
and one parse per field column. Loading rejects a line whose fields do not
parse, whose score is not a finite number, that repeats a stored (date,
key) or whose run-date comes before an earlier line's, with a ValueError
naming the file, the first such line and its field. A load holds a shared
`flock` on the file, an append an exclusive one.
"""

from __future__ import annotations

import contextlib
import datetime
import fcntl
import io
import itertools
import math
import operator
import os
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .model import Rule, TriageCategory, TriagedRule

WINDOW_RUNS = 14
# Bytes of the store read, backward or forward, at a time.
_CHUNK_BYTES = 1 << 18


@dataclass(frozen=True)
class HistoryRecord:
    run_date: datetime.date
    predicate_key: str
    correlation_score: float
    request_count: int


class HistoryStore:
    """Append-only, file-backed store of per-day rule scores, of which the
    records of the last WINDOW_RUNS + 1 run-dates are held, as columns."""

    def __init__(self, path):
        self.path = os.fspath(path)
        # one entry per loaded or appended record, in file order
        self._days: list[datetime.date] = []
        self._keys: list[str] = []
        self._scores: list[float] = []
        self._counts: list[int] = []
        # run-date -> {key -> the record's position}; built on the first query
        # or the first check of a stored date, so an append-only caller that
        # adds new dates never pays for it, and kept up to date from then on
        self._on: dict[datetime.date, dict[str, int]] | None = None
        self._dates: set[datetime.date] = set()  # every held run-date
        self._floor: datetime.date | None = None  # the first held run-date, when older lines were not read
        self._end = 0  # the file's size when last read or written
        if os.path.exists(self.path):
            with open(self.path, "rb") as f:
                fcntl.flock(f, fcntl.LOCK_SH)
                self._load(f)

    @property
    def records(self) -> list[HistoryRecord]:
        """Every stored record, in file order, from a parse of the whole file."""
        if not os.path.exists(self.path):
            return []
        with open(self.path, "rb") as f:
            fcntl.flock(f, fcntl.LOCK_SH)
            return list(map(HistoryRecord, *self._read(f, 0)[:4]))

    def _load(self, f):
        self._end = f.seek(0, os.SEEK_END)
        start = _tail_start(f, self._end)
        self._days, self._keys, self._scores, self._counts, self._on = self._read(f, start)
        self._dates = set(self._on)
        self._floor = self._days[0] if start else None

    def _read(self, f, start: int) -> tuple[list, list, list, list, dict]:
        """The columns, and the run-date map, of the lines from byte `start` on."""
        f.seek(start)
        text = io.TextIOWrapper(f, encoding="utf-8", newline="\n")
        try:
            return _parse(text)
        except ValueError:
            raise self._first_fault(f, start) from None
        finally:
            text.detach()

    def _first_fault(self, f, start: int) -> ValueError:
        """The error naming the first line from byte `start` on with a fault,
        and its first field, from a second, line-by-line read; lines are
        numbered from the start of the file."""
        f.seek(0)
        stored, last = set(), datetime.date.min
        for line_no, raw in enumerate(f, start=f.read(start).count(b"\n") + 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                return ValueError(f"{self.path}:{line_no}: not UTF-8 text")
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
            if day < last:
                return ValueError(f"{self.path}:{line_no}: run_date {day} comes before {last} on an earlier line")
            stored.add((day, key))
            last = day
        raise AssertionError("some line has a fault")

    def _going_down(self, day: datetime.date, last: datetime.date) -> ValueError:
        return ValueError(f"run-date {day} comes before {last}, and run-dates in {self.path} only grow")

    def check(self, new_records: Sequence[HistoryRecord]) -> None:
        """ValueError if a record's key holds a tab or a line end, if its
        run-date comes before the store's last or the batch's previous one, or
        if it repeats a (date, key) stored or earlier in the batch."""
        staged, last = set(), (self._days or [datetime.date.min])[-1]
        for rec in new_records:
            if "\t" in rec.predicate_key or "\n" in rec.predicate_key:
                raise ValueError(f"key {rec.predicate_key!r} holds a tab or a line end, which the store cannot hold")
            if rec.run_date < last:
                raise self._going_down(rec.run_date, last)
            last = rec.run_date
            pair = (rec.run_date, rec.predicate_key)
            if pair in staged or rec.run_date in self._dates and rec.predicate_key in self._by_date()[rec.run_date]:
                raise ValueError(
                    f"duplicate record for {rec.predicate_key!r} on {rec.run_date}"
                )
            staged.add(pair)

    def append(self, new_records: Sequence[HistoryRecord]) -> None:
        """Validate, then durably append; nothing is written on a validation
        error. Under an exclusive lock, a store that another writer grew since
        the load is read again and the records checked again first."""
        self.check(new_records)
        with open(self.path, "ab+") as f:
            fcntl.flock(f, fcntl.LOCK_EX)
            size = f.seek(0, os.SEEK_END)
            if size != self._end:
                self._load(f)
                self.check(new_records)
            if size:
                f.seek(size - 1)
                if f.read(1) != b"\n":  # end a last line that lacks its line end
                    f.write(b"\n")
            for i in range(0, len(new_records), 4096):  # a block of lines at a time
                f.write("".join(
                    f"{r.run_date.isoformat()}\t{r.predicate_key}\t{r.correlation_score!r}\t{r.request_count}\n"
                    for r in new_records[i:i + 4096]
                ).encode())
            f.flush()
            os.fsync(f.fileno())
            self._end = os.fstat(f.fileno()).st_size
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

    def _held(self, days: Iterable[datetime.date]) -> None:
        """ValueError for a date before the held records, when older lines were not read."""
        if self._floor is not None and min(days, default=self._floor) < self._floor:
            raise ValueError(f"{self.path}: records before {self._floor} are not loaded")

    def run_dates(self, before: datetime.date | None = None) -> list[datetime.date]:
        """The last WINDOW_RUNS distinct run-dates, ascending, optionally before
        a date, which may not come before the store's last run-date."""
        if before is not None and self._days and before < self._days[-1]:
            raise self._going_down(before, self._days[-1])
        return sorted(d for d in self._by_date() if before is None or d < before)[-WINDOW_RUNS:]

    def keys_on(self, day: datetime.date) -> set[str]:
        self._held((day,))
        return set(self._by_date().get(day, ()))

    def scores_in_window(
        self, key: str, window_dates: Iterable[datetime.date]
    ) -> list[float]:
        """The key's scores on the window's dates, in file order."""
        window_dates = set(window_dates)
        self._held(window_dates)
        on = self._by_date()
        rows = [on[d][key] for d in window_dates if key in on.get(d, ())]
        return [self._scores[i] for i in sorted(rows)]


def _tail_start(f, size: int) -> int:
    """The byte offset of the lines of the last WINDOW_RUNS + 1 distinct
    run-dates, read backward from `size` a chunk at a time: the offset after
    the last line of an older run-date, or 0 if there is none. A run-date
    that does not parse counts for none; the parse of the lines names it."""
    seen: set[datetime.date] = set()
    head, end, rest = None, size, b""
    while end:
        start = max(0, end - _CHUNK_BYTES)
        f.seek(start)
        block = f.read(end - start) + rest
        lines = block.split(b"\n")
        rest = lines.pop(0) if start else b""  # its start is in the chunk before
        at = start + len(block)  # where the line being read ends
        for line in reversed(lines):
            text = line.partition(b"\t")[0]
            if text != head:
                head = text
                with contextlib.suppress(ValueError):
                    seen.add(datetime.date.fromisoformat(text.decode()))
                if len(seen) > WINDOW_RUNS + 1:
                    return at + 1
            at -= len(line) + 1
        end = start
    return 0


def _parse(stream) -> tuple[list, list, list, list, dict]:
    """Lines as columns, and their run-date map; ValueError, naming no line,
    on the first fault."""
    days, keys, scores, counts = [], [], [], []
    day_of: dict[str, datetime.date] = {}
    # a chunk of lines at a time, so that only its fields are held as texts
    while lines := stream.readlines(_CHUNK_BYTES):
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
    if any(map(operator.gt, days, itertools.islice(days, 1, None))):
        raise ValueError("a run-date that goes down")
    return days, keys, scores, counts, on


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
    window = store.run_dates(before=today)
    cold_start = len(window) < WINDOW_RUNS
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
