"""Command-line interface.

    kpidiag diagnose --config run.json --input logs.csv --history hist.tsv --out outdir [--date D]
    kpidiag generate --config gen.json --out datadir [--date D]
    kpidiag train    --config run.json --input logs.csv --out outdir
    kpidiag extract  --config run.json --input logs.csv --model outdir/model.txt --out outdir [--date D]
    kpidiag triage   --config run.json --rules outdir/rules.json --history hist.tsv --out outdir [--date D]
    kpidiag eval     --report outdir/report.json --manifest datadir/manifest.json
    kpidiag dump-model --model outdir/model.txt

diagnose exits 0 when nothing is new or regressed, 2 when something is,
1 on error, a usage error included; it prints the JSON report to stdout.
Run settings come only from the --config file. D is an ISO date, today by
default.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys

# The handlers import the array modules they use: triage and eval run without numpy.
from . import pipeline, report
from .config import fault_keys, load_generator_config, load_run_config, read_records, report_key, rule_reader
from .errors import ConfigError, DumpParseError, StageError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kpidiag",
        description="Diagnose and triage KPI regressions from structured service logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag in flags.split():
            if flag == "date":
                p.add_argument(
                    "--date",
                    type=datetime.date.fromisoformat,
                    default=datetime.date.today(),
                    help="run date (default: today)",
                )
            else:
                p.add_argument(f"--{flag}", required=True)
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
    from . import synth
    from .ingest import write_csv
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
    mined = read_records(args.rules, "rule", rule_reader())
    triaged, report_json = pipeline.run_triage(config, mined, args.history, args.out, args.date)
    print(report_json, end="")
    return pipeline.exit_code_for(triaged)


def _cmd_eval(args) -> int:
    reported = set(read_records(args.report, "rule", report_key, key="rules"))
    truth = set().union(*read_records(args.manifest, "fault", fault_keys, key="faults"))
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
    from . import forest
    print(forest.dump_text(pipeline.read_model(args.model)), end="")
    return 0


# each sub-command's help, its flags (all required but --date) and its handler
_COMMANDS = {
    "diagnose": ("run the full pipeline", "config input history out date", _cmd_diagnose),
    "generate": ("generate synthetic logs plus a truth manifest", "config out date", _cmd_generate),
    "train": ("prepare data and train the forest", "config input out", _cmd_train),
    "extract": ("mine rules from a trained model dump", "config input model out date", _cmd_extract),
    "triage": ("triage mined rules against history and report", "config rules history out date", _cmd_triage),
    "eval": ("precision of a report against a truth manifest", "report manifest", _cmd_eval),
    "dump-model": ("validate and print a model dump", "model", _cmd_dump_model),
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 0 after --help and 2 on a usage error
        return 0 if e.code == 0 else 1
    try:
        return _COMMANDS[args.command][2](args)
    except (StageError, ConfigError, DumpParseError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
