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
import hashlib
import json
import os
import stat
import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from . import report, rules
from .config import RunConfig, rule_to_json
from .errors import ConfigError, StageError
from .model import ColumnKind, ColumnRole, ColumnSpec, KpiKind, Rule, TriageCategory, TriagedRule
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
        ranked = report.entries(triaged, config.table_name)
        report_json = report.render_json(ranked, resolved, run_date, config.kpi)
        report_md = report.render_markdown(ranked, resolved, run_date, config.kpi)
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


@contextlib.contextmanager
def _replacing(out_dir, name: str):
    """A binary file that replaces out_dir/name when the block ends. It is
    written beside it under a temporary name, so a block that fails leaves
    the old file, and no temporary one."""
    os.makedirs(out_dir, exist_ok=True)
    temp = os.path.join(out_dir, f".{name}.{os.getpid()}.tmp")
    try:
        with open(temp, "wb") as f:
            yield f
        os.replace(temp, os.path.join(out_dir, name))
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temp)


def _write(out_dir, name: str, text: str) -> None:
    with _replacing(out_dir, name) as f:
        f.write(text.encode("utf-8"))


# -- the prepared table that train hands to extract -------------------------

TABLE_FILE = "table.npz"
# A change to what prepare_table makes of given bytes and settings must bump
# this, so that extract loads no table.npz written before the change.
TABLE_FORMAT = 1


def input_state(path):
    """(device, inode, size, mtime) of a regular file, which tell its bytes
    apart without reading them; None for a pipe or a file that is not there."""
    with contextlib.suppress(OSError):
        s = os.stat(path)
        return (s.st_dev, s.st_ino, s.st_size, s.st_mtime_ns) if stat.S_ISREG(s.st_mode) else None


def _table_key(config: RunConfig) -> dict:
    """The settings prepare_table reads, as table.npz records them."""
    columns = {name: [d.kind and d.kind.value, d.role.value] for name, d in config.columns.items()}
    kpi = [config.kpi.column, config.kpi.kind.value]
    return {"format": TABLE_FORMAT, "input_format": config.input_format, "kpi": kpi, "columns": columns}


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while block := f.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def save_table(table: LogTable, config: RunConfig, input_path, out_dir, before) -> None:
    """Write out_dir/table.npz: a JSON header (input_path's digest, _table_key,
    the row count, each column's name, kind, role and categories), then each
    column's codes or values as the table holds them. `before` is input_state
    from before the input was read: a pipe, or a file changed since, writes nothing."""
    import numpy as np
    if before is None:
        return
    digest = _sha256(input_path)
    if input_state(input_path) != before:
        return
    columns, arrays = [], {}
    for i, s in enumerate(table.schema):
        coded = s.kind is ColumnKind.CATEGORICAL
        columns.append([s.name, s.kind.value, s.role.value, table.categories(s.name) if coded else None])
        arrays[f"c{i}"] = table.codes(s.name) if coded else table.values(s.name)
    header = {"key": _table_key(config), "sha256": digest, "rows": table.row_count, "columns": columns}
    with _replacing(out_dir, TABLE_FILE) as f:
        np.savez(f, header=np.frombuffer(json.dumps(header).encode("ascii"), np.uint8), **arrays)


def load_table(config: RunConfig, input_path, model_path) -> LogTable | None:
    """The table.npz beside model_path if train wrote it from input_path's
    bytes under the settings prepare_table reads, else None. The input is
    hashed only once those settings match. A file that does not hold such a
    table, whatever its fault, is None too, and the caller ingests."""
    import numpy as np
    from .ingest import LogTable
    if input_state(input_path) is None:
        return None
    try:
        with np.load(os.path.join(os.path.dirname(model_path), TABLE_FILE), allow_pickle=False) as npz:
            header = json.loads(npz["header"].tobytes())
            if header["key"] != _table_key(config) or header["sha256"] != _sha256(input_path):
                return None
            schema, codes, categories, values = [], {}, {}, {}
            for i, (name, kind, role, cats) in enumerate(header["columns"]):
                spec = ColumnSpec(name, ColumnKind(kind), ColumnRole(role))
                array = npz[f"c{i}"]
                if cats is None:  # continuous; LogTable refuses a spec whose kind disagrees
                    values[name], fits = array, array.dtype == np.float64 and np.isfinite(array).all()
                else:
                    codes[name], categories[name] = array, tuple(cats)
                    fits = array.dtype == np.int32 and all(isinstance(c, str) for c in cats)
                    fits = fits and cats == sorted(set(cats)) and not ((array < 0) | (array >= len(cats))).any()
                if not fits:
                    return None
                schema.append(spec)
            return LogTable(schema, codes, categories, values, header["rows"])
    except Exception:  # whatever a damaged or foreign file raises, it is only a miss
        return None


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
