"""The traced benchmark run patches functions by module and name; each must
still exist, or `--trace 1` fails on the first call."""

import importlib.util
from pathlib import Path

from kpidiag import ingest

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
