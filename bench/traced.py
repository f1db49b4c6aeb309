"""Traced in-process run of a workload's CLI steps, for per-layer numbers.

    python3 bench/traced.py SPEC.json

SPEC names the run id, the CLI argument lists to run in order and the file
to write the result to. Each layer's public functions, as the pipeline and
the CLI call them, are wrapped so that every call records a span (name,
start, end, parent span, run id) and the counts its result carries. Each
CLI step is one root span. Spans stay in memory and are written out, with
the counts and the per-layer metrics derived from them, when all steps end.
The untraced end-to-end runs never load this module.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time

import kpidiag.cli
from kpidiag import forest, ingest, pipeline, prep, report, rules
from kpidiag.model import ColumnKind, PredicateOp
from kpidiag.triage import WINDOW_RUNS


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run_id": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, covered in zip(self.spans, child_time):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - covered
        return out


def _rss_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _model_shape(model, counts: dict) -> None:
    nodes = leaves = depth = cat = cont = 0
    for tree in model.trees:
        stack = [(tree, 0)]
        while stack:
            node, d = stack.pop()
            nodes += 1
            depth = max(depth, d)
            if node.is_leaf:
                leaves += 1
                continue
            if node.split.op is PredicateOp.EQUALS:
                cat += 1
            else:
                cont += 1
            stack += [(node.left, d + 1), (node.right, d + 1)]
    counts.update({
        "forest.trees": len(model.trees),
        "forest.nodes": nodes,
        "forest.leaves": leaves,
        "forest.max_depth": depth,
        "forest.splits_categorical": cat,
        "forest.splits_continuous": cont,
    })


def _count_load(args, table, counts, rss_before):
    kinds = [spec.kind for spec in table.schema]
    counts.update({
        "ingest.rows": table.row_count,
        "ingest.bytes": os.path.getsize(args[0]),
        "ingest.columns_categorical": kinds.count(ColumnKind.CATEGORICAL),
        "ingest.columns_continuous": kinds.count(ColumnKind.CONTINUOUS),
        "ingest.categories": sum(
            len(table.categories(s.name)) for s in table.schema
            if s.kind is ColumnKind.CATEGORICAL
        ),
        # the child is fresh, so its peak so far is the one reached inside load
        "ingest.peak_rss_mb": max(
            0.0, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 - rss_before
        ),
    })


def _count_stratify(args, result, counts):
    # the first call labels the full table; a binary KPI's second call
    # labels only the training sample
    counts.setdefault("prep.positive_rows", result.positive_count)
    counts.setdefault("prep.negative_rows", result.negative_count)


def _count_triage(args, result, counts):
    store, today = args[1], args[2]
    counts["triage.window_dates"] = len(store.run_dates(before=today)[-WINDOW_RUNS:])
    for t in result:
        key = f"triage.{t.category.value}"
        counts[key] = counts.get(key, 0) + 1


def _count_report(args, result, counts):
    entries = json.loads(result)["rules"]
    counts["report.json_bytes"] = len(result.encode("utf-8"))
    counts["report.queries"] = sum(1 for e in entries if e.get("query"))
    counts["rules.reported"] = len(entries)


# (owner, attribute, span name, count hook(args, result, counts))
_TRACED = [
    (prep, "impute", "prep.impute", None),
    (prep, "recommend_pruning", "prep.prune", None),
    (prep, "stratify", "prep.stratify", _count_stratify),
    (prep, "sample", "prep.sample",
     lambda a, r, c: c.__setitem__("prep.rows_sampled", r.row_count)),
    (forest, "train", "forest.train",
     lambda a, r, c: (_model_shape(r, c), c.__setitem__("prep.min_rows_in_leaf",
                                                         a[2].min_rows_in_leaf))),
    (forest, "dump_text", "forest.dump",
     lambda a, r, c: c.__setitem__("forest.dump_bytes", len(r.encode("utf-8")))),
    (forest, "parse_text", "forest.parse", lambda a, r, c: _model_shape(r, c)),
    (rules, "extract_rules", "rules.extract_rules",
     lambda a, r, c: c.__setitem__("rules.candidates", len(r))),
    (rules, "deduplicate", "rules.deduplicate",
     lambda a, r, c: c.__setitem__("rules.after_dedup", len(r))),
    (rules, "filter_negative", "rules.filter_negative",
     lambda a, r, c: c.__setitem__("rules.after_filter", len(r))),
    (rules, "annotate_impacts", "rules.annotate_impacts",
     lambda a, r, c: c.update({"rules.impact_rows_scanned": len(a[0]) * a[1].row_count,
                               "rules.stale": sum(1 for x in r if x.stale)})),
    # the pipeline binds the triage layer's functions by name (the package
    # attribute `kpidiag.triage` is the function, not the module), so they
    # are patched where the pipeline looks them up
    (pipeline, "HistoryStore", "triage.load",
     lambda a, r, c: c.__setitem__("triage.history_records", len(r.records))),
    (pipeline, "triage_today", "triage.classify", _count_triage),
    (pipeline, "detect_resolved", "triage.resolve",
     lambda a, r, c: c.__setitem__("triage.resolved", len(r))),
    (pipeline, "record_run", "triage.record", None),
    (report, "render_json", "report.render_json", _count_report),
    (report, "render_markdown", "report.render_markdown", None),
]


def _wrap(tracer, fn, name, hook, counts):
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(args, result, counts)
        return result

    return traced


def _wrap_load(tracer, fn, counts):
    def traced(*args, **kwargs):
        rss_before = _rss_mb()
        with tracer.span("ingest.load"):
            table = fn(*args, **kwargs)
        _count_load(args, table, counts, rss_before)
        return table

    return traced


@contextlib.contextmanager
def instrumented(tracer: Tracer, counts: dict):
    saved = [(ingest, "load", ingest.load)]
    saved += [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in _TRACED]
    try:
        ingest.load = _wrap_load(tracer, ingest.load, counts)
        for owner, attr, name, hook in _TRACED:
            setattr(owner, attr, _wrap(tracer, getattr(owner, attr), name, hook, counts))
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


PER_LAYER_SPANS = {
    "ingest.load_s": ("ingest.load",),
    "prep.impute_s": ("prep.impute",),
    "prep.prune_s": ("prep.prune",),
    "prep.stratify_s": ("prep.stratify",),
    "prep.sample_s": ("prep.sample",),
    "forest.train_s": ("forest.train",),
    "forest.dump_s": ("forest.dump",),
    "forest.parse_s": ("forest.parse",),
    "rules.extract_s": ("rules.extract_rules", "rules.deduplicate", "rules.filter_negative"),
    "rules.impact_s": ("rules.annotate_impacts",),
    "triage.load_s": ("triage.load",),
    "triage.classify_s": ("triage.classify", "triage.resolve"),
    "triage.record_s": ("triage.record",),
    "report.render_s": ("report.render_json", "report.render_markdown"),
}
COUNTS = (
    "ingest.rows", "ingest.bytes", "ingest.columns_categorical", "ingest.columns_continuous",
    "ingest.categories", "ingest.peak_rss_mb",
    "prep.rows_sampled", "prep.positive_rows", "prep.negative_rows", "prep.min_rows_in_leaf",
    "forest.trees", "forest.nodes", "forest.leaves", "forest.max_depth",
    "forest.splits_categorical", "forest.splits_continuous", "forest.dump_bytes",
    "rules.candidates", "rules.after_dedup", "rules.after_filter", "rules.reported",
    "rules.impact_rows_scanned", "rules.stale",
    "triage.history_records", "triage.window_dates", "triage.new", "triage.regressed",
    "triage.known", "triage.improved", "triage.resolved",
    "report.json_bytes", "report.queries",
)


def layer_metrics(tracer: Tracer, counts: dict) -> dict[str, float]:
    """Per-layer metrics; a layer the steps never call reads 0."""
    self_time = tracer.self_times()
    metrics = {
        name: sum(self_time.get(s, 0.0) for s in spans)
        for name, spans in PER_LAYER_SPANS.items()
    }
    metrics.update({name: counts.get(name, 0) for name in COUNTS})
    candidates = metrics["rules.candidates"]
    metrics["rules.yield"] = metrics["rules.reported"] / candidates if candidates else 0.0
    return metrics


def layer_totals(tracer: Tracer) -> dict[str, float]:
    """Self time per layer (span-name prefix); root spans count as `cli`."""
    out: dict[str, float] = {}
    for name, seconds in tracer.self_times().items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + seconds
    return out


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    tracer = Tracer(spec["run_id"])
    counts: dict = {}
    exit_codes = []
    with instrumented(tracer, counts), open(os.devnull, "w") as sink:
        for argv in spec["steps"]:
            with tracer.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(sink):
                exit_codes.append(kpidiag.cli.main(argv))
    roots = [s for s in tracer.spans if s["parent"] is None]
    result = {
        "exit_codes": exit_codes,
        "total_s": sum(s["end"] - s["start"] for s in roots),
        "metrics": layer_metrics(tracer, counts),
        "layer_self_s": layer_totals(tracer),
        "spans": tracer.spans,
    }
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
