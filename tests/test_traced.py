"""The traced benchmark run patches functions by module and name; each must
still exist, or `--trace 1` fails on the first call."""

import importlib.util
from pathlib import Path

from kpidiag import ingest
from kpidiag.triage import HistoryStore

TRACED = Path(__file__).resolve().parent.parent / "bench" / "traced.py"


def test_every_patched_function_exists_and_is_restored():
    spec = importlib.util.spec_from_file_location("traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    targets = [(ingest, "load"), *((owner, attr) for owner, attr, _, _ in traced._TRACED)]
    before = [getattr(owner, attr) for owner, attr in targets]
    assert all(callable(fn) for fn in before)
    with traced.instrumented(traced.Tracer("test"), {}):
        assert all(getattr(owner, attr) is not fn for (owner, attr), fn in zip(targets, before))
    assert [getattr(owner, attr) for owner, attr in targets] == before


def test_history_hook_counts_every_stored_record(tmp_path):
    spec = importlib.util.spec_from_file_location("traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    [hook] = [hook for owner, attr, _, hook in traced._TRACED if attr == "HistoryStore"]
    path = tmp_path / "history.tsv"
    lines = [f"2026-08-{d:02d}\tk{k}\t0.5\t3\n" for d in range(1, 29) for k in range(150)]
    path.write_text("".join(lines[:2000]) + "\n" + "".join(lines[2000:]), encoding="utf-8")
    counts = {}
    hook((path,), HistoryStore(path), counts)
    assert counts == {"triage.history_records": len(lines)}
