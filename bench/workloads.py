"""The two benchmark workloads: their inputs, CLI steps and output checks.

Every workload shares the North-star attribute shape (12 categorical
attributes up to cardinality 10000, 8 lognormal continuous ones), a
lognormal latency KPI, and plants one fault on C2=c07. Inputs are drawn
from the benchmark seed alone; the program under test only ever sees the
generated files.

- latency-train: `diagnose` on a CSV small enough that every row is
  trained, so forest training dominates the run.
- remine-history: the staged `extract` then `triage` path over JSON lines,
  with the model trained during set-up and a year of seeded history, so
  training is bypassed and JSONL ingest, model parsing, impact and
  history-heavy triage carry the run.

Sizes are a fraction of a real day of logs (100k rows and more) so that
twenty-odd runs of every workload, each measuring for most of a minute,
fit in an hour.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import shutil
from dataclasses import dataclass

import numpy as np

from kpidiag import forest, rules, synth
from kpidiag.ingest import write_csv
from kpidiag.model import ColumnKind, KpiKind, Predicate
from kpidiag.triage import HistoryRecord, HistoryStore

RUN_DATE = datetime.date(2026, 8, 10)
CATEGORICAL_CARDINALITIES = (10, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 10000)
CONTINUOUS_ATTRIBUTES = 8
HISTORY_DATES = 365
# Records per seeded date. Mined keys are topped up with churned keys (rules
# of past runs that no longer fire), so the history's size, and with it the
# cost of triage, does not follow the seed's rule count.
HISTORY_KEYS_PER_DATE = 200
# Keys present on the last history date but never mined, so `resolved` is exercised.
RETIRED_KEYS = tuple(f"C11=retired{i}" for i in range(5))
SCORING = "metric"
# Exit codes of the CLI: 2 means something new or regressed was reported.
EXIT_OK, EXIT_ALERT = 0, 2


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    input_format: str
    num_trees: int
    sample_rows: int | None = None
    min_rows_in_leaf_pct: float | None = None
    staged: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("latency-train", 20_000, "csv", num_trees=20),
        Workload(
            "remine-history",
            30_000,
            "jsonl",
            num_trees=12,
            sample_rows=5_000,
            min_rows_in_leaf_pct=0.2,
            staged=True,
        ),
    )
}


def attributes() -> tuple[synth.AttributeSpec, ...]:
    cats = tuple(
        synth.AttributeSpec(name=f"C{i}", kind=ColumnKind.CATEGORICAL, cardinality=c)
        for i, c in enumerate(CATEGORICAL_CARDINALITIES)
    )
    conts = tuple(
        synth.AttributeSpec(name=f"X{i}", kind=ColumnKind.CONTINUOUS, distribution="lognormal")
        for i in range(CONTINUOUS_ATTRIBUTES)
    )
    return cats + conts


def generator_config(w: Workload, seed: int) -> synth.GeneratorConfig:
    attrs = attributes()
    trigger = (Predicate.equals("C2", attrs[2].value(7)),)
    kpi = synth.KpiProfile(column="Latency", kind=KpiKind.CONTINUOUS, mu=0.0, sigma=1.0)
    fault = synth.FaultSpec(trigger=trigger, shift=50.0)
    return synth.GeneratorConfig(attrs, w.rows, kpi, (fault,), seed=seed)


def run_config(w: Workload, gen: synth.GeneratorConfig, seed: int) -> dict:
    slo = {"threshold": synth.slo_threshold(gen.kpi), "direction": "above"}
    cfg = {
        "kpi": {"column": gen.kpi.column, "kind": KpiKind.CONTINUOUS.value, "slo": slo},
        "seed": seed,
        "scoring": SCORING,
        "input_format": w.input_format,
        "hyperparams": {"num_trees": w.num_trees},
    }
    if w.sample_rows is not None:
        cfg["sample_rows"] = w.sample_rows
    if w.min_rows_in_leaf_pct is not None:
        cfg["hyperparams"]["min_rows_in_leaf_pct"] = w.min_rows_in_leaf_pct
    return cfg


def write_jsonl(table, path) -> None:
    """One flat JSON object per row; continuous cells as JSON numbers."""
    cols = []
    for spec in table.schema:
        if spec.kind is ColumnKind.CATEGORICAL:
            cats = table.categories(spec.name)
            cols.append([cats[c] for c in table.codes(spec.name)])
        else:
            cols.append(table.values(spec.name).tolist())
    names = table.column_names
    with open(path, "w", encoding="utf-8") as f:
        for row in zip(*cols):
            f.write(json.dumps(dict(zip(names, row))) + "\n")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class Inputs:
    """The files one workload's CLI steps read, plus the generator's truth."""

    config: str
    data: str
    truth: set[str]
    model: str | None = None
    history_seed: str | None = None

    def digests(self) -> dict[str, str]:
        paths = {"data": self.data, "model": self.model, "history": self.history_seed}
        return {name: sha256_file(p) for name, p in paths.items() if p is not None}


def prepare(w: Workload, seed: int, dir: str, train_model) -> Inputs:
    """Write every input of one workload into `dir`; this is the timed set-up.

    `train_model(config_path, data_path, out_dir)` runs `kpidiag train` for
    the staged workload. Re-running with the same seed rewrites identical
    files, which `Inputs.digests` lets the caller check.
    """
    os.makedirs(dir, exist_ok=True)
    gen = generator_config(w, seed)
    table, manifest = synth.generate(gen, RUN_DATE)
    inputs = Inputs(
        config=os.path.join(dir, "config.json"),
        data=os.path.join(dir, f"logs.{w.input_format}"),
        truth=synth.manifest_keys(manifest),
    )
    with open(inputs.config, "w", encoding="utf-8") as f:
        json.dump(run_config(w, gen, seed), f, indent=2)
    if w.input_format == "csv":
        write_csv(table, inputs.data)
    else:
        write_jsonl(table, inputs.data)
    synth.write_manifest(manifest, os.path.join(dir, "manifest.json"))
    del table
    if w.staged:
        model_dir = os.path.join(dir, "model")
        shutil.rmtree(model_dir, ignore_errors=True)
        train_model(inputs.config, inputs.data, model_dir)
        inputs.model = os.path.join(model_dir, "model.txt")
        inputs.history_seed = os.path.join(dir, "history.seed.tsv")
        seed_history(inputs.model, inputs.truth, inputs.history_seed, seed)
    return inputs


def seed_history(model_path, truth: set[str], path, seed: int) -> None:
    """A year of daily runs holding the mined keys except the planted ones.

    The keys are those `extract` will mine from the model (rule keys and
    scores come from the trees alone), at most HISTORY_KEYS_PER_DATE of them;
    churned keys fill every date but the last up to that many records. Each
    mined key's history sits near, below or above today's score, so triage
    sees known, regressed and improved rules, while the planted key has no
    history and comes out new.
    """
    with open(model_path, encoding="utf-8") as f:
        model = forest.parse_text(f.read())
    mined = rules.filter_negative(
        rules.deduplicate(rules.extract_rules(model, rules.resolve_scoring(SCORING)))
    )
    kept = [r for r in mined if r.key() not in truth][:HISTORY_KEYS_PER_DATE]
    churned = [f"C11=churned{i}" for i in range(HISTORY_KEYS_PER_DATE - len(kept))]
    rng = np.random.default_rng([seed, HISTORY_DATES])
    levels = rng.choice([1.0, 0.6, 1.6], size=len(kept), p=[0.6, 0.2, 0.2])
    records = []
    for back in range(HISTORY_DATES, 0, -1):
        day = RUN_DATE - datetime.timedelta(days=back)
        noise = rng.lognormal(0.0, 0.1, size=len(kept))
        for rule, level, eps in zip(kept, levels, noise):
            records.append(
                HistoryRecord(day, rule.key(), float(rule.correlation_score * level * eps),
                              rule.request_count)
            )
        if back == 1:
            records.extend(HistoryRecord(day, key, 1.0, 10) for key in RETIRED_KEYS)
        else:
            records.extend(HistoryRecord(day, key, 0.5, 10) for key in churned)
    if os.path.exists(path):
        os.remove(path)
    HistoryStore(path).append(records)


@dataclass(frozen=True)
class Step:
    argv: tuple[str, ...]
    expected_exit: int


def steps(w: Workload, inputs: Inputs, out: str, history: str) -> list[Step]:
    """The CLI invocations of one iteration, writing under `out`."""
    date = ("--date", RUN_DATE.isoformat())
    if not w.staged:
        return [
            Step(
                ("diagnose", "--config", inputs.config, "--input", inputs.data,
                 "--history", history, "--out", out) + date,
                EXIT_ALERT,
            )
        ]
    return [
        Step(
            ("extract", "--config", inputs.config, "--input", inputs.data,
             "--model", inputs.model, "--out", out) + date,
            EXIT_OK,
        ),
        Step(
            ("triage", "--config", inputs.config, "--rules", os.path.join(out, "rules.json"),
             "--history", history, "--out", out) + date,
            EXIT_ALERT,
        ),
    ]


def fresh_history(inputs: Inputs, history: str) -> None:
    """Give an iteration its starting history: empty, or the seeded year.

    The seeded file is copied back before every staged iteration because
    `triage` appends today's records, and a second run on the same date
    would fail on the duplicate records.
    """
    if os.path.exists(history):
        os.remove(history)
    if inputs.history_seed is not None:
        shutil.copyfile(inputs.history_seed, history)


def check_outputs(w: Workload, inputs: Inputs, out: str, history: str) -> tuple[dict, list[str]]:
    """Score one iteration's report against the truth; returns (facts, problems)."""
    problems = []
    report_path = os.path.join(out, "report.json")
    with open(report_path, encoding="utf-8") as f:
        doc = json.load(f)
    ranked = [entry["key"] for entry in doc["rules"]]
    found = inputs.truth & set(ranked)
    facts = {
        "fault_recall": len(found) / len(inputs.truth),
        "top1_hit": 1.0 if ranked and ranked[0] in inputs.truth else 0.0,
        "digests": {"report.json": sha256_file(report_path)},
    }
    if facts["fault_recall"] != 1.0:
        problems.append(f"planted keys missing from the report: {sorted(inputs.truth - found)}")
    if facts["top1_hit"] != 1.0:
        problems.append(f"planted key not ranked first (first is {ranked[:1]})")
    if w.staged:
        facts["digests"]["rules.json"] = sha256_file(os.path.join(out, "rules.json"))
        triage_of = {entry["key"]: entry["triage"] for entry in doc["rules"]}
        if any(triage_of[k] != "new" for k in found):
            problems.append("a planted key was not triaged new")
        if all(t == "new" for t in triage_of.values()):
            problems.append("every rule triaged new: the seeded history was not used")
        with open(inputs.history_seed, encoding="utf-8") as f:
            seeded = sum(1 for _ in f)
        with open(history, encoding="utf-8") as f:
            now = sum(1 for _ in f)
        if now - seeded != len(ranked):
            problems.append(f"history grew by {now - seeded} records for {len(ranked)} rules")
    else:
        facts["digests"]["model.txt"] = sha256_file(os.path.join(out, "model.txt"))
    return facts, problems
