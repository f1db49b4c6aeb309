"""Classify each rule against a rolling score history.

Categories: new (key unseen in the window), regressed (score more than one
standard deviation above the historical mean), known (within one standard
deviation), improved (more than one below), resolved (key present on the
previous run-date but absent today). The window is the 14 most recent
run-dates present in the store, so skipped runs do not shrink it. Until 14
run-dates of history exist every rule is new (cold start).

The store is a UTF-8 file, one record per line, each ended by "\n" (and
split at "\n" only, so a key may hold a "\r"; a key that holds a tab, a
"\n" or a surrogate, which UTF-8 cannot encode, is refused):

    run_date<TAB>predicate_key<TAB>score<TAB>count

Run-dates only grow down the file: an append whose run-dates go down, or
start before the store's last one, is refused. So a load reads only the
file's end. It finds, backward a chunk at a time, the first line of the last
WINDOW_RUNS + 1 run-dates (the window before a same-date rerun, and that
date), then reads the lines from there once, into one map: run-date ->
{key -> (score, count)}. It stops at the first line whose fields do not
parse, whose score is not a finite number, that repeats a stored (date, key)
or whose run-date comes before an earlier line's, with a ValueError naming
the file, that line (counted from the start of the file) and its field. An
append refuses what a load would, writes nothing then, and drops the map it
held: the next query reads the file's end again. A load holds a shared
`flock` on the file, an append an exclusive one.
"""

from __future__ import annotations

import contextlib
import datetime
import fcntl
import math
import os
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .model import Rule, TriageCategory, TriagedRule

WINDOW_RUNS = 14
# Bytes of the store read backward at a time.
_CHUNK_BYTES = 1 << 18


@dataclass(frozen=True)
class HistoryRecord:
    run_date: datetime.date
    predicate_key: str
    correlation_score: float
    request_count: int


class HistoryStore:
    """Append-only, file-backed store of per-day rule scores, of which the
    records of the last WINDOW_RUNS + 1 run-dates are held."""

    def __init__(self, path):
        self.path = os.fspath(path)
        # run-date -> {key -> (score, count)} of the held records, ascending;
        # None from an append until a query or a check reads the file again
        self._on: dict[datetime.date, dict[str, tuple[float, int]]] | None = None
        self._floor: datetime.date | None = None  # the first held run-date, when older lines were not read
        self._end = 0  # the file's size when last read
        self._window()

    @property
    def records(self) -> list[HistoryRecord]:
        """Every stored record, in file order, from a parse of the whole file."""
        if not os.path.exists(self.path):
            return []
        with open(self.path, "rb") as f:
            fcntl.flock(f, fcntl.LOCK_SH)
            on = self._read(f, 0)
        return [HistoryRecord(day, key, *value) for day, keys in on.items() for key, value in keys.items()]

    def _window(self, days: Iterable[datetime.date] = ()) -> dict[datetime.date, dict[str, tuple[float, int]]]:
        """The held map, read from the file's end if none is held; ValueError
        for one of `days` before the held records, when older lines were not read."""
        if self._on is None and os.path.exists(self.path):
            with open(self.path, "rb") as f:
                fcntl.flock(f, fcntl.LOCK_SH)
                self._load(f)
        if self._floor is not None and min(days, default=self._floor) < self._floor:
            raise ValueError(f"{self.path}: records before {self._floor} are not loaded")
        return {} if self._on is None else self._on

    def _load(self, f):
        self._end = f.seek(0, os.SEEK_END)
        start = _tail_start(f, self._end)
        self._on = self._read(f, start)
        self._floor = next(iter(self._on)) if start else None

    def _read(self, f, start: int) -> dict[datetime.date, dict[str, tuple[float, int]]]:
        """The run-date map of the lines from byte `start` on; a ValueError
        names the first faulty line, counted from the start of the file."""
        f.seek(start)
        on, last = {}, datetime.date.min
        for n, raw in enumerate(f):
            try:
                if (fields := _fields(raw)) is None:
                    continue
                day, key, score, count = fields
                keys = on.setdefault(day, {})
                if key in keys:
                    raise ValueError(f"duplicate record for {key!r} on {day}")
                if day < last:
                    raise ValueError(f"run_date {day} comes before {last} on an earlier line")
                keys[key], last = (score, count), day
            except ValueError as err:
                f.seek(0)
                line_no = f.read(start).count(b"\n") + n + 1
                raise ValueError(f"{self.path}:{line_no}: {err}") from None
        return on

    def _going_down(self, day: datetime.date, last: datetime.date) -> ValueError:
        return ValueError(f"run-date {day} comes before {last}, and run-dates in {self.path} only grow")

    def check(self, new_records: Sequence[HistoryRecord]) -> None:
        """ValueError if a record's key holds a tab, a line end or a surrogate,
        or for a record a load would refuse: a score that is not finite, a
        run-date before the store's last or the batch's previous one, or a
        (date, key) stored or earlier in the batch."""
        on = self._window()
        last, staged = next(reversed(on), datetime.date.min), set()  # staged: the keys on `last`
        for rec in new_records:
            day, key = rec.run_date, rec.predicate_key
            if "\t" in key or "\n" in key:
                raise ValueError(f"key {key!r} holds a tab or a line end, which the store cannot hold")
            if any("\ud800" <= c <= "\udfff" for c in key):
                raise ValueError(f"key {key!r} holds a surrogate, which UTF-8 cannot encode")
            if not math.isfinite(rec.correlation_score):
                raise ValueError(f"score {rec.correlation_score!r} for {key!r} on {day} is not a finite number")
            if day < last:
                raise self._going_down(day, last)
            if day != last:
                last, staged = day, set()
            if key in staged or key in on.get(day, ()):
                raise ValueError(f"duplicate record for {key!r} on {day}")
            staged.add(key)

    def append(self, new_records: Sequence[HistoryRecord]) -> None:
        """Check, then durably append; nothing is written if the check fails.
        Under an exclusive lock, a store that another writer grew since it was
        read is read again and the records checked again first. The held map
        is dropped: what was written is read back by the next query."""
        self.check(new_records)
        with open(self.path, "ab+") as f:
            fcntl.flock(f, fcntl.LOCK_EX)
            size = f.seek(0, os.SEEK_END)
            if size != self._end:
                self._load(f)
                self.check(new_records)
            self._on = None
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

    def run_dates(self, before: datetime.date | None = None) -> list[datetime.date]:
        """The last WINDOW_RUNS distinct run-dates, ascending, optionally before
        a date, which may not come before the store's last run-date."""
        on = self._window()
        last = next(reversed(on), None)
        if before is not None and last is not None and before < last:
            raise self._going_down(before, last)
        return [d for d in on if before is None or d < before][-WINDOW_RUNS:]

    def keys_on(self, day: datetime.date) -> set[str]:
        return set(self._window((day,)).get(day, ()))

    def scores_in_window(self, key: str, window_dates: Iterable[datetime.date]) -> list[float]:
        """The key's scores on the window's dates, in file order."""
        window_dates = set(window_dates)
        on = self._window(window_dates)
        return [keys[key][0] for day, keys in on.items() if day in window_dates and key in keys]


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


def _fields(raw: bytes) -> tuple[datetime.date, str, float, int] | None:
    """A line's run-date, key, score and count; None for a blank line. A
    ValueError names the line's first fault, worded from _FIELDS only then."""
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError("not UTF-8 text") from None
    if line.isspace():
        return None
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 4:
        raise ValueError("expected 4 tab-separated fields")
    try:
        return datetime.date.fromisoformat(parts[0]), parts[1], _finite_float(parts[2]), int(parts[3])
    except ValueError:
        pass
    for name, i, parse, expected in _FIELDS:
        try:
            parse(parts[i])
        except ValueError:
            raise ValueError(f"{name} field {parts[i]!r} is not {expected}") from None
    raise AssertionError("some field does not parse")


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
