"""End-to-end diagnosis pipeline and the per-stage pieces the CLI composes.

Order of stages: ingest -> impute -> pruning advisory -> stratify -> sample
-> train -> write model.txt and pruning.json -> extract -> dedup/filter ->
impact -> score floor -> triage -> write report.json and report.md ->
record history. The history append is the last step: a run whose report
cannot be written leaves the store as it was, and a same-date rerun fails
in triage, before its reports or the store are touched. The file-based
sub-commands (train, extract, triage) call the same functions as one
monolithic `diagnose` run and produce byte-identical files. The array
modules are imported by the stages that use them, so `kpidiag triage`
runs without numpy.
"""

from __future__ import annotations

import contextlib
import datetime
import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from . import report, rules
from .config import RunConfig, rule_to_json
from .errors import ConfigError, StageError
from .model import KpiKind, Rule, TriageCategory, TriagedRule
from .triage import HistoryStore, detect_resolved, record_run, run_records
from .triage import triage as triage_today

if TYPE_CHECKING:
    from .forest import ForestModel
    from .ingest import LogTable


@dataclass
class DiagnoseResult:
    exit_code: int
    report_json: str
    triaged: list[TriagedRule]
    warnings: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)


class _StageTimer:
    """Seconds per stage, summed over each time the stage runs."""

    def __init__(self):
        self.timings: dict[str, float] = {}

    @contextlib.contextmanager
    def stage(self, name: str):
        """Times a stage; its error, but not Ctrl-C, becomes a StageError."""
        start = time.perf_counter()
        try:
            yield
        except StageError:
            raise
        except Exception as e:
            raise StageError(name, e) from e
        finally:
            self.timings[name] = self.timings.get(name, 0.0) + (time.perf_counter() - start)


def _seeds(seed: int) -> tuple[int, int]:
    """Independent substreams for sampling and training from one seed."""
    import numpy as np
    children = np.random.SeedSequence(seed).spawn(2)
    return (
        int(children[0].generate_state(1)[0]),
        int(children[1].generate_state(1)[0]),
    )


def prepare_table(config: RunConfig, input_path, timer: _StageTimer | None = None) -> LogTable:
    """ingest -> impute; a KPI column without a single value is an error."""
    import numpy as np
    from . import ingest, prep
    timer = timer or _StageTimer()
    with timer.stage("ingest"):
        table = ingest.load(input_path, config.input_format, config.schema_config())
        kpi = config.kpi.column
        present = table.codes(kpi) >= 0 if config.kpi.kind is KpiKind.BINARY else ~np.isnan(table.values(kpi))
        if not present.any():
            raise ConfigError(f"KPI column {kpi!r} has no values in {input_path}")
    with timer.stage("impute"):
        return prep.impute(table)


def build_model(
    config: RunConfig, imputed: LogTable, timer: _StageTimer | None = None
) -> ForestModel:
    """stratify -> sample -> train on the prepared table."""
    from . import forest, prep
    timer = timer or _StageTimer()
    sample_seed, train_seed = _seeds(config.seed)
    with timer.stage("stratify"):
        stratified = prep.stratify(imputed, config.kpi)
    with timer.stage("sample"):
        sampled = prep.sample(stratified, config.kpi, config.sample_rows, sample_seed)
    with timer.stage("train"):
        y = prep.kpi_values(sampled, config.kpi)
        min_rows = max(1, round(config.min_rows_in_leaf_pct / 100.0 * sampled.row_count))
        hp = forest.Hyperparams(
            min_rows_in_leaf=min_rows,
            feature_sample_ratio=config.feature_sample_ratio,
            num_trees=config.num_trees,
            rng_seed=train_seed,
        )
        return forest.train(sampled, y, hp)


def run_train(config: RunConfig, input_path, out_dir, timer: _StageTimer | None = None):
    """prepare -> pruning advisory -> train, then write model.txt and pruning.json into out_dir.

    Returns (imputed table, model, warnings).
    """
    from . import forest, prep
    timer = timer or _StageTimer()
    imputed = prepare_table(config, input_path, timer)
    with timer.stage("prune"):
        pruning = prep.recommend_pruning(imputed, config.max_cardinality)
    # config-excluded columns never reach the advisory (they are not
    # features), so anything flagged here is still in play
    warnings = [
        f"column {rec.attribute!r} flagged ({rec.reason}, cardinality "
        f"{rec.cardinality}) but not excluded by the config"
        for rec in pruning
    ]
    model = build_model(config, imputed, timer)
    with timer.stage("dump-model"):
        _write(out_dir, "model.txt", forest.dump_text(model))
        doc = {"recommendations": list(map(asdict, pruning)), "warnings": warnings}
        _write(out_dir, "pruning.json", json.dumps(doc, indent=2, ensure_ascii=False) + "\n")
    return imputed, model, warnings


def mine_rules(
    config: RunConfig,
    model: ForestModel,
    imputed: LogTable,
    timer: _StageTimer | None = None,
) -> list[Rule]:
    """extract -> dedup -> drop inverted equalities -> impact -> score floor."""
    timer = timer or _StageTimer()
    with timer.stage("extract"):
        scoring = rules.resolve_scoring(config.scoring)
        candidates = rules.extract_rules(model, scoring)
        kept = rules.filter_negative(rules.deduplicate(candidates))
    with timer.stage("impact"):
        annotated = rules.annotate_impacts(kept, imputed, config.kpi)
    return [r for r in annotated if r.correlation_score >= config.min_score]


def run_triage(
    config: RunConfig,
    mined: list[Rule],
    history_path,
    out_dir,
    run_date: datetime.date,
    timer: _StageTimer | None = None,
):
    """triage -> detect resolved -> write reports -> record history.

    Returns (triaged, report json). The store is appended to only after
    both reports are written; a record it would reject (a same-date rerun)
    fails here before anything is written.
    """
    timer = timer or _StageTimer()
    with timer.stage("triage"):
        store = HistoryStore(history_path)
        triaged = triage_today(mined, store, run_date)
        resolved = detect_resolved(mined, store, run_date)
        store.check(run_records(mined, run_date))
    with timer.stage("report"):
        report_json = report.render_json(
            triaged, resolved, run_date, config.kpi, config.table_name
        )
        report_md = report.render_markdown(
            triaged, resolved, run_date, config.kpi, config.table_name
        )
        _write(out_dir, "report.json", report_json)
        _write(out_dir, "report.md", report_md)
    with timer.stage("triage"):
        record_run(mined, store, run_date)
    return triaged, report_json


def exit_code_for(triaged: list[TriagedRule]) -> int:
    alerting = {TriageCategory.NEW, TriageCategory.REGRESSED}
    return 2 if any(t.category in alerting for t in triaged) else 0


def run_diagnose(
    config: RunConfig,
    input_path,
    history_path,
    out_dir,
    run_date: datetime.date,
) -> DiagnoseResult:
    """Execute the full pipeline and write its artifacts into out_dir.

    Exit code 0: nothing new or regressed; 2: at least one new/regressed
    rule. Stage failures raise StageError(stage, cause).
    """
    timer = _StageTimer()
    imputed, model, warnings = run_train(config, input_path, out_dir, timer)
    mined = mine_rules(config, model, imputed, timer)
    triaged, report_json = run_triage(config, mined, history_path, out_dir, run_date, timer)
    return DiagnoseResult(
        exit_code=exit_code_for(triaged),
        report_json=report_json,
        triaged=triaged,
        warnings=warnings,
        timings=timer.timings,
    )


def _write(out_dir, name: str, text: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as f:
        f.write(text)


# -- rule (de)serialization for the stage-composition files ----------------


def write_rules(rules_list: list[Rule], out_dir) -> None:
    """rules.json: a JSON list with one compact rule record per line."""
    lines = [json.dumps(rule_to_json(r), ensure_ascii=False, separators=(",", ":")) for r in rules_list]
    _write(out_dir, "rules.json", "[\n" + ",\n".join(lines) + "\n]\n" if lines else "[]\n")


def read_model(path, kpi: KpiKind | None = None) -> ForestModel:
    """A model dump; given a KPI kind, its trees must be the kind that KPI trains."""
    from . import forest
    with open(path, encoding="utf-8", newline="") as f:
        model = forest.parse_text(f.read())
    if kpi is not None and (model.target_kind is forest.TargetKind.CLASSIFICATION) is not (kpi is KpiKind.BINARY):
        raise ConfigError(f"{path}: {model.target_kind.value} trees, but the config's KPI is {kpi.value}")
    return model
