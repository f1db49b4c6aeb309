"""Command-line interface.

    kpidiag diagnose --config run.json --input logs.csv --history hist.tsv --out outdir
    kpidiag generate --config gen.json --out datadir --date 2026-08-10
    kpidiag train    --config run.json --input logs.csv --out outdir
    kpidiag extract  --config run.json --input logs.csv --model outdir/model.txt --out outdir
    kpidiag triage   --config run.json --rules outdir/rules.json --history hist.tsv --out outdir
    kpidiag eval     --report outdir/report.json --manifest datadir/manifest.json
    kpidiag dump-model --model outdir/model.txt

diagnose exits 0 when nothing is new or regressed, 2 when something is,
1 on error, a usage error included; it prints the JSON report to stdout.
Run settings come only from the --config file.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys

from . import forest, pipeline, report, synth
from .config import fault_keys, load_generator_config, load_run_config, report_key, rule_from_json
from .errors import ConfigError, DumpParseError, StageError
from .ingest import write_csv


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

    p = sub.add_parser("generate", help="generate synthetic logs plus a truth manifest")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    _date_arg(p)

    p = sub.add_parser("train", help="prepare data and train the forest")
    p.add_argument("--config", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)

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


def _cmd_diagnose(args) -> int:
    config = load_run_config(args.config)
    result = pipeline.run_diagnose(config, args.input, args.history, args.out, args.date)
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    for stage, seconds in result.timings.items():
        print(f"{stage}: {seconds:.2f}s", file=sys.stderr)
    print(result.report_json, end="")
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
    _, _, warnings = pipeline.run_train(load_run_config(args.config), args.input, args.out)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"wrote {args.out}/model.txt", file=sys.stderr)
    return 0


def _cmd_extract(args) -> int:
    config = load_run_config(args.config)
    model = pipeline.read_model(args.model, config.kpi.kind)
    imputed = pipeline.prepare_table(config, args.input)
    mined = pipeline.mine_rules(config, model, imputed)
    pipeline.write_rules(mined, args.out)
    print(f"wrote {len(mined)} rules to {args.out}/rules.json", file=sys.stderr)
    return 0


def _cmd_triage(args) -> int:
    config = load_run_config(args.config)
    mined = pipeline.read_records(args.rules, "rule", rule_from_json)
    triaged, report_json = pipeline.run_triage(config, mined, args.history, args.out, args.date)
    print(report_json, end="")
    return pipeline.exit_code_for(triaged)


def _cmd_eval(args) -> int:
    reported = set(pipeline.read_records(args.report, "rule", report_key, key="rules"))
    truth = set().union(*pipeline.read_records(args.manifest, "fault", fault_keys, key="faults"))
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
    except (StageError, ConfigError, DumpParseError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
