"""Command-line interface.

    kpidiag diagnose --config run.json --input logs.csv --history hist.tsv --out outdir
    kpidiag generate --config gen.json --out datadir --date 2026-08-10
    kpidiag train    --config run.json --input logs.csv --out outdir
    kpidiag extract  --config run.json --input logs.csv --model outdir/model.txt --out outdir
    kpidiag triage   --config run.json --rules outdir/rules.json --history hist.tsv --out outdir
    kpidiag eval     --report outdir/report.json --manifest datadir/manifest.json
    kpidiag dump-model --model outdir/model.txt

diagnose exits 0 when nothing is new or regressed, 2 when something is,
1 on error, a usage error included. On diagnose and train, flags override
the corresponding config values.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys

from . import forest, pipeline, report, synth
from .config import RunConfig, load_generator_config, load_run_config
from .errors import ConfigError, StageError
from .ingest import write_csv


def _add_override_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--sample-rows", type=int, default=None, dest="sample_rows")
    p.add_argument("--trees", type=int, default=None, dest="num_trees")
    p.add_argument("--min-leaf-pct", type=float, default=None, dest="min_rows_in_leaf_pct")
    p.add_argument("--feature-ratio", type=float, default=None, dest="feature_sample_ratio")


def _date_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--date",
        type=datetime.date.fromisoformat,
        default=datetime.date.today(),
        help="run date (default: today)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kpidiag",
        description="Diagnose and triage KPI regressions from structured service logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diagnose", help="run the full pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--history", required=True)
    p.add_argument("--out", required=True)
    _date_arg(p)
    _add_override_flags(p)

    p = sub.add_parser("generate", help="generate synthetic logs plus a truth manifest")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    _date_arg(p)

    p = sub.add_parser("train", help="prepare data and train the forest")
    p.add_argument("--config", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    _add_override_flags(p)

    p = sub.add_parser("extract", help="mine rules from a trained model dump")
    p.add_argument("--config", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    _date_arg(p)

    p = sub.add_parser("triage", help="triage mined rules against history and report")
    p.add_argument("--config", required=True)
    p.add_argument("--rules", required=True)
    p.add_argument("--history", required=True)
    p.add_argument("--out", required=True)
    _date_arg(p)

    p = sub.add_parser("eval", help="precision of a report against a truth manifest")
    p.add_argument("--report", required=True)
    p.add_argument("--manifest", required=True)

    p = sub.add_parser("dump-model", help="validate and print a model dump")
    p.add_argument("--model", required=True)

    return parser


def _config_with_flags(args) -> RunConfig:
    return load_run_config(args.config).with_overrides(
        seed=args.seed,
        sample_rows=args.sample_rows,
        num_trees=args.num_trees,
        min_rows_in_leaf_pct=args.min_rows_in_leaf_pct,
        feature_sample_ratio=args.feature_sample_ratio,
    )


def _cmd_diagnose(args) -> int:
    config = _config_with_flags(args)
    result = pipeline.run_diagnose(config, args.input, args.history, args.out, args.date)
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    for stage, seconds in result.timings.items():
        print(f"{stage}: {seconds:.2f}s", file=sys.stderr)
    print(result.report_json, end="")
    print(result.report_markdown, end="")
    return result.exit_code


def _cmd_generate(args) -> int:
    cfg = load_generator_config(args.config)
    table, manifest = synth.generate(cfg, args.date)
    os.makedirs(args.out, exist_ok=True)
    write_csv(table, os.path.join(args.out, "logs.csv"))
    synth.write_manifest(manifest, os.path.join(args.out, "manifest.json"))
    print(f"wrote {table.row_count} rows to {args.out}/logs.csv", file=sys.stderr)
    return 0


def _cmd_train(args) -> int:
    _, _, warnings = pipeline.run_train(_config_with_flags(args), args.input, args.out)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"wrote {args.out}/model.txt", file=sys.stderr)
    return 0


def _cmd_extract(args) -> int:
    config = load_run_config(args.config)
    model = pipeline.read_model(args.model)
    imputed, _, _ = pipeline.prepare_table(config, args.input)
    mined = pipeline.mine_rules(config, model, imputed, args.date)
    pipeline.write_rules(mined, args.out)
    print(f"wrote {len(mined)} rules to {args.out}/rules.json", file=sys.stderr)
    return 0


def _cmd_triage(args) -> int:
    config = load_run_config(args.config)
    mined = pipeline.read_rules(args.rules)
    triaged, report_json, _ = pipeline.run_triage(config, mined, args.history, args.out, args.date)
    print(report_json, end="")
    return pipeline.exit_code_for(triaged)


def _cmd_eval(args) -> int:
    with open(args.report, encoding="utf-8") as f:
        doc = json.load(f)
    truth = synth.manifest_keys(synth.load_manifest(args.manifest))
    reported = {entry["key"] for entry in doc.get("rules", [])}
    value, valid = report.precision(reported, truth)
    out = {
        "precision": value,
        "valid_issues": valid,
        "reported": sorted(reported),
        "missed": sorted(truth - reported),
    }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_dump_model(args) -> int:
    print(forest.dump_text(pipeline.read_model(args.model)), end="")
    return 0


_COMMANDS = {
    "diagnose": _cmd_diagnose,
    "generate": _cmd_generate,
    "train": _cmd_train,
    "extract": _cmd_extract,
    "triage": _cmd_triage,
    "eval": _cmd_eval,
    "dump-model": _cmd_dump_model,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 0 after --help and 2 on a usage error
        return 0 if e.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except (StageError, ConfigError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
