import csv
import dataclasses
import errno
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import kpidiag
from kpidiag import cli, forest, pipeline, prep
from kpidiag.cli import main
from kpidiag.config import _SETTINGS, load_run_config, parse_run_config, rule_reader, rule_to_json
from kpidiag.errors import ConfigError
from kpidiag.ingest import load
from kpidiag.model import ColumnDecl, ColumnRole, KpiKind, Predicate, Rule

RUN_DATE = "2026-08-10"


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2), encoding="utf-8")
    return path


def gen_config(tmp_path, faults=(), rows=3000, seed=1, kind="continuous"):
    if kind == "continuous":
        kpi = {"column": "Lat", "kind": "continuous", "mu": 0.0, "sigma": 1.0}
    else:
        kpi = {"column": "Status", "kind": "binary", "failure_rate": 0.002}
    obj = {
        "row_count": rows,
        "seed": seed,
        "attributes": [
            {"name": "A", "kind": "categorical", "cardinality": 8},
            {"name": "B", "kind": "categorical", "cardinality": 25},
            {"name": "C", "kind": "continuous", "distribution": "normal"},
        ],
        "kpi": kpi,
        "faults": list(faults),
    }
    return write_json(tmp_path / "gen.json", obj)


def run_config(tmp_path, kind="continuous", min_score=0.0, scoring="metric", trees=8):
    if kind == "continuous":
        kpi = {
            "column": "Lat",
            "kind": "continuous",
            "slo": {"threshold": 21.98, "direction": "above"},
        }
    else:
        kpi = {"column": "Status", "kind": "binary", "slo": {"positive_label": "fail"}}
    obj = {
        "kpi": kpi,
        "columns": {},
        "scoring": scoring,
        "sample_rows": 100_000,
        "seed": 5,
        "min_score": min_score,
        "hyperparams": {
            "num_trees": trees,
            "feature_sample_ratio": 0.6,
            "min_rows_in_leaf_pct": 1.0,
        },
    }
    return write_json(tmp_path / "run.json", obj)


FAULT = {
    "trigger": [{"attribute": "A", "op": "eq", "value": "c3"}],
    "shift": 30.0,
}


def generate_data(tmp_path, **kw):
    out = tmp_path / "data"
    code = main(["generate", "--config", str(gen_config(tmp_path, **kw)), "--out", str(out), "--date", RUN_DATE])
    assert code == 0
    return out


def test_usage_lines_name_every_sub_command_and_its_flags():
    usage = re.findall(r"^    kpidiag (\S+)(.*)$", cli.__doc__, re.M)
    assert [(name, re.findall(r"--(\w+)", rest)) for name, rest in usage] == [
        (name, flags.split()) for name, (_, flags, _) in cli._COMMANDS.items()
    ]


class TestConfigParsing:
    def test_minimal_config(self):
        cfg = parse_run_config(
            {"kpi": {"column": "Lat", "kind": "continuous", "slo": {"threshold": 5}}}
        )
        assert cfg.kpi.kind is KpiKind.CONTINUOUS
        assert cfg.num_trees == 50
        assert cfg.sample_rows == 1_000_000

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_run_config(
                {
                    "kpi": {"column": "L", "kind": "continuous", "slo": {"threshold": 1}},
                    "tres": 3,
                }
            )

    def test_missing_kpi_rejected(self):
        with pytest.raises(ConfigError, match=r"^missing key 'kpi'$"):
            parse_run_config({})

    def test_binary_needs_positive_label(self):
        with pytest.raises(ConfigError, match="positive_label"):
            parse_run_config({"kpi": {"column": "S", "kind": "binary", "slo": {}}})

    def test_documented_defaults(self):
        from kpidiag.forest import Hyperparams

        cfg = parse_run_config(
            {"kpi": {"column": "Lat", "kind": "continuous", "slo": {"threshold": 5}}}
        )
        assert cfg.num_trees == 50
        assert cfg.feature_sample_ratio == 0.6
        assert cfg.min_rows_in_leaf_pct == 1.0
        assert cfg.sample_rows == 1_000_000
        assert cfg.max_cardinality == 10_000
        hp = Hyperparams()
        assert (hp.num_trees, hp.feature_sample_ratio) == (50, 0.6)

    def test_declared_feature_column_is_a_training_feature(self, tmp_path):
        cfg = parse_run_config(dict(MINIMAL, columns={"A": {"role": "feature"}, "B": {"role": "excluded"}}))
        assert cfg.columns["A"].role is ColumnRole.FEATURE
        path = tmp_path / "logs.csv"
        path.write_text("A,B,Lat\nx,y,1.5\n", encoding="utf-8")
        table = load(path, cfg.input_format, cfg.schema_config())
        assert [s.name for s in table.feature_columns()] == ["A"]


MINIMAL = {"kpi": {"column": "Lat", "kind": "continuous", "slo": {"threshold": 5}}}

# Every run setting: its JSON type and values just outside its range.
SETTING_RANGES = {
    "scoring": ("str", []),
    "sample_rows": ("int", [1]),
    "seed": ("int", [-1]),
    "max_cardinality": ("int", [0]),
    "min_score": ("float", []),
    "input_format": ("str", ["parquet", "CSV"]),
    "table_name": ("str", []),
    "hyperparams.num_trees": ("int", [0]),
    "hyperparams.feature_sample_ratio": ("float", [0, math.nextafter(1.0, 2.0)]),
    "hyperparams.min_rows_in_leaf_pct": ("float", [0, math.nextafter(100.0, 101.0)]),
}


def _bad_values(kind, out_of_range):
    wrong_type = [5] if kind == "str" else ["abc"]
    return [None, True, *wrong_type, *out_of_range] + {
        "int": [7.5, 7.9],
        "float": [math.nan, math.inf, -math.inf],
        "str": [],
    }[kind]


def _with(key, value):
    """MINIMAL with the dotted key set to value."""
    obj = json.loads(json.dumps(MINIMAL))
    *parents, name = key.split(".")
    node = obj
    for part in parents:
        node = node.setdefault(part, {})
    node[name] = value
    return obj


BAD_CONFIGS = [
    (key, value)
    for key, (kind, out_of_range) in SETTING_RANGES.items()
    for value in _bad_values(kind, out_of_range)
] + [
    ("hyperparams", []),
    ("hyperparams", None),
    ("columns", []),
    ("columns.A", "excluded"),
    ("kpi.slo", 22.0),
    ("kpi.slo.threshold", None),
    ("kpi.slo.threshold", math.nan),
    ("kpi.slo.threshold", math.inf),
    ("kpi.slo.threshold", "22"),
]


def test_every_setting_has_bad_value_cases():
    assert set(SETTING_RANGES) == set(_SETTINGS)


@pytest.mark.parametrize("key, value", BAD_CONFIGS, ids=[f"{k}={json.dumps(v)}" for k, v in BAD_CONFIGS])
def test_bad_setting_is_a_config_error_naming_the_key(tmp_path, capsys, key, value):
    obj = _with(key, value)
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be "):
        parse_run_config(obj)
    config = write_json(tmp_path / "run.json", obj)
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--input", "x.csv", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("sample_rows", 2),
        ("seed", 0),
        ("max_cardinality", 1),
        ("min_score", -3),
        ("input_format", "jsonl"),
        ("hyperparams.num_trees", 1),
        ("hyperparams.feature_sample_ratio", 1),
        ("hyperparams.min_rows_in_leaf_pct", 100),
        ("hyperparams.min_rows_in_leaf_pct", 1e-9),
    ],
)
def test_range_edges_accepted(key, value):
    assert getattr(parse_run_config(_with(key, value)), key.rpartition(".")[2]) == value


def test_kpi_column_and_positive_label_must_be_strings():
    binary = {"column": "S", "kind": "binary", "slo": {"positive_label": None}}
    with pytest.raises(ConfigError, match=r"^kpi\.slo\.positive_label must be a string, got null$"):
        parse_run_config({"kpi": binary})
    with pytest.raises(ConfigError, match=r"^kpi\.column must be a string, got 5$"):
        parse_run_config({"kpi": dict(binary, column=5, slo={"positive_label": "fail"})})


BAD_GENERATOR = [
    ("seed", None),
    ("seed", 7.9),
    ("row_count", "3000"),
    ("attributes[0].cardinality", True),
    ("attributes[2].loc", None),
    ("kpi.sigma", "1.5"),
    ("faults[0].shift", "30"),
]


@pytest.mark.parametrize("key, value", BAD_GENERATOR, ids=[f"{k}={json.dumps(v)}" for k, v in BAD_GENERATOR])
def test_bad_generator_number_is_a_config_error_naming_the_key(tmp_path, capsys, key, value):
    path = gen_config(tmp_path, faults=[FAULT])
    obj = json.loads(path.read_text())
    *parents, name = re.findall(r"\w+", key)
    node = obj
    for part in parents:
        node = node[int(part) if part.isdigit() else part]
    node[name] = value
    write_json(path, obj)
    out = tmp_path / "data"
    assert main(["generate", "--config", str(path), "--out", str(out), "--date", RUN_DATE]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be ") and err.endswith(f", got {json.dumps(value)}\n")
    assert not out.exists()


OVERFLOWING = [
    ("attributes", {"name": "X", "kind": "continuous", "distribution": "lognormal", "loc": 800},
     "attribute 'X' (lognormal, loc=800.0, scale=1.0)"),
    ("attributes", {"name": "X", "kind": "continuous", "distribution": "uniform", "loc": 1e308, "scale": 1e308},
     "attribute 'X' (uniform, loc=1e+308, scale=1e+308)"),
    ("kpi", {"column": "Lat", "kind": "continuous", "mu": 800, "sigma": 1.0},
     "kpi 'Lat' (lognormal, mu=800.0, sigma=1.0)"),
    ("faults", {"trigger": [{"attribute": "A", "op": "eq", "value": "c3"}], "multiplier": 1e308},
     "kpi 'Lat' (lognormal, mu=0.0, sigma=1.0) with its faults' effects"),
]


@pytest.mark.parametrize("key, entry, named", OVERFLOWING, ids=["lognormal", "uniform", "kpi", "fault"])
def test_draws_that_are_not_finite_exit_1_naming_the_parameters(tmp_path, capsys, key, entry, named):
    path = gen_config(tmp_path)
    obj = json.loads(path.read_text())
    if key == "kpi":
        obj["kpi"] = entry
    else:
        obj[key].append(entry)
    write_json(path, obj)
    out = tmp_path / "data"
    assert main(["generate", "--config", str(path), "--out", str(out), "--date", RUN_DATE]) == 1
    assert capsys.readouterr().err == f"error: {named} draws values that are not finite\n"
    assert not out.exists()


class TestDiagnose:
    def test_planted_fault_exits_two_with_top_rule(self, tmp_path, capsys):
        data = generate_data(tmp_path, faults=[FAULT])
        out = tmp_path / "out"
        code = main(
            [
                "diagnose",
                "--config", str(run_config(tmp_path)),
                "--input", str(data / "logs.csv"),
                "--history", str(tmp_path / "history.tsv"),
                "--out", str(out),
                "--date", RUN_DATE,
            ]
        )
        assert code == 2
        doc = json.loads((out / "report.json").read_text())
        assert json.loads(capsys.readouterr().out) == doc  # stdout is the JSON report alone
        assert doc["rules"][0]["key"] == "A=c3"
        assert doc["rules"][0]["triage"] == "new"
        assert (out / "report.md").exists()
        assert (out / "pruning.json").exists()
        assert (out / "model.txt").exists()

    def test_fault_free_with_floor_exits_zero(self, tmp_path):
        data = generate_data(tmp_path, faults=[])
        out = tmp_path / "out"
        code = main(
            [
                "diagnose",
                "--config", str(run_config(tmp_path, min_score=1e9)),
                "--input", str(data / "logs.csv"),
                "--history", str(tmp_path / "history.tsv"),
                "--out", str(out),
                "--date", RUN_DATE,
            ]
        )
        assert code == 0
        assert json.loads((out / "report.json").read_text())["rules"] == []

    def test_tree_error_in_a_worker_is_a_train_stage_error(self, tmp_path, capsys, monkeypatch):
        def fail(td, features):
            raise RuntimeError("split A=c3 leaves a child under 30 rows")

        data = generate_data(tmp_path, faults=[FAULT])
        capsys.readouterr()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(forest, "_grow_tree", fail)
        code = main(["diagnose", "--config", str(run_config(tmp_path)), "--input", str(data / "logs.csv"),
                     "--history", str(tmp_path / "history.tsv"), "--out", str(tmp_path / "out"),
                     "--date", RUN_DATE])
        assert code == 1
        assert capsys.readouterr().err == "error: stage 'train' failed: split A=c3 leaves a child under 30 rows\n"

    def test_missing_kpi_column_exits_one(self, tmp_path, capsys):
        data = generate_data(tmp_path)
        bad = run_config(tmp_path)
        obj = json.loads(bad.read_text())
        obj["kpi"]["column"] = "DoesNotExist"
        write_json(bad, obj)
        code = main(
            [
                "diagnose",
                "--config", str(bad),
                "--input", str(data / "logs.csv"),
                "--history", str(tmp_path / "history.tsv"),
                "--out", str(tmp_path / "out"),
                "--date", RUN_DATE,
            ]
        )
        assert code == 1
        assert "ingest" in capsys.readouterr().err

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "bad.json", {"kip": {}})
        code = main(
            [
                "diagnose",
                "--config", str(cfg),
                "--input", "x.csv",
                "--history", str(tmp_path / "h.tsv"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1

    def test_bad_scoring_expression_fails_before_any_output(self, tmp_path, capsys):
        data = generate_data(tmp_path, faults=[FAULT])
        capsys.readouterr()
        out = tmp_path / "out"
        code = main(
            [
                "diagnose",
                "--config", str(run_config(tmp_path, scoring="row_count +")),
                "--input", str(data / "logs.csv"),
                "--history", str(tmp_path / "history.tsv"),
                "--out", str(out),
                "--date", RUN_DATE,
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: bad scoring expression 'row_count +'")
        assert not out.exists()

    @pytest.mark.parametrize("decl", [{"role": "excluded"}, {"kind": "categorical"}, {}])
    def test_declared_kpi_column_fails_before_ingest(self, tmp_path, capsys, decl):
        cfg_path = run_config(tmp_path)
        obj = json.loads(cfg_path.read_text())
        obj["columns"] = {"Lat": decl}
        write_json(cfg_path, obj)
        code = main(["train", "--config", str(cfg_path), "--input", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: columns.Lat: the KPI column takes its kind and role from kpi\n"
        )
        assert not (tmp_path / "out").exists()

    def test_config_integer_past_digit_limit_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "big.json"
        cfg.write_text('{"seed": ' + "9" * 5000 + "}", encoding="utf-8")
        assert main(["train", "--config", str(cfg), "--input", "x.csv", "--out", str(tmp_path)]) == 1
        assert f"error: {cfg}: invalid JSON (Exceeds the limit" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("diagnose", ["--trees-typo", "3"]),
            ("diagnose", ["--date", "2026-13-01"]),
            ("diagnose", ["--format", "json"]),
            ("extract", ["--seed", "3"]),
            ("diagnose", ["--seed", "3"]),
            ("train", ["--trees", "3"]),
        ],
    )
    def test_usage_error_exits_one_not_the_alert_code(self, tmp_path, command, extra, capsys):
        argv = [command, "--config", "run.json", "--input", "x.csv", "--out", str(tmp_path / "out")]
        argv += {"diagnose": ["--history", "h.tsv"], "extract": ["--model", "model.txt"]}.get(command, [])
        assert main(argv + extra) == 1
        assert "usage:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_help_exits_zero(self, capsys):
        assert main(["diagnose", "--help"]) == 0
        assert "--history" in capsys.readouterr().out

    def test_binary_kpi_pipeline(self, tmp_path):
        fault = {
            "trigger": [{"attribute": "B", "op": "eq", "value": "c07"}],
            "failure_probability": 0.4,
        }
        data = generate_data(tmp_path, faults=[fault], kind="binary", rows=20_000)
        out = tmp_path / "out"
        code = main(
            [
                "diagnose",
                "--config", str(run_config(tmp_path, kind="binary", scoring="volume_weighted")),
                "--input", str(data / "logs.csv"),
                "--history", str(tmp_path / "history.tsv"),
                "--out", str(out),
                "--date", RUN_DATE,
            ]
        )
        assert code == 2
        doc = json.loads((out / "report.json").read_text())
        assert doc["rules"][0]["key"] == "B=c07"


class TestColumnExclusion:
    def test_excluded_column_out_of_training_and_advisory(self, tmp_path):
        # plant the fault on A, then exclude A: the top rule cannot be A=c3
        data = generate_data(tmp_path, faults=[FAULT])
        cfg_path = run_config(tmp_path)
        obj = json.loads(cfg_path.read_text())
        obj["columns"] = {"A": {"role": "excluded"}}
        write_json(cfg_path, obj)
        out = tmp_path / "out"
        main(
            [
                "diagnose",
                "--config", str(cfg_path),
                "--input", str(data / "logs.csv"),
                "--history", str(tmp_path / "history.tsv"),
                "--out", str(out),
                "--date", RUN_DATE,
            ]
        )
        doc = json.loads((out / "report.json").read_text())
        assert all(not r["key"].startswith("A=") for r in doc["rules"])
        pruning = json.loads((out / "pruning.json").read_text())
        assert all(p["attribute"] != "A" for p in pruning["recommendations"])


class TestDeterminism:
    def test_identical_runs_byte_identical_reports(self, tmp_path):
        data = generate_data(tmp_path, faults=[FAULT])
        reports = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            code = main(
                [
                    "diagnose",
                    "--config", str(run_config(tmp_path)),
                    "--input", str(data / "logs.csv"),
                    "--history", str(tmp_path / f"history-{name}.tsv"),
                    "--out", str(out),
                    "--date", RUN_DATE,
                ]
            )
            assert code == 2
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]


class TestComposition:
    def test_staged_run_equals_monolithic(self, tmp_path):
        data = generate_data(tmp_path, faults=[FAULT])
        config = run_config(tmp_path)
        mono = tmp_path / "mono"
        assert (
            main(
                [
                    "diagnose",
                    "--config", str(config),
                    "--input", str(data / "logs.csv"),
                    "--history", str(tmp_path / "h-mono.tsv"),
                    "--out", str(mono),
                    "--date", RUN_DATE,
                ]
            )
            == 2
        )
        staged = tmp_path / "staged"
        assert (
            main(["train", "--config", str(config), "--input", str(data / "logs.csv"), "--out", str(staged)])
            == 0
        )
        assert (
            main(
                [
                    "extract",
                    "--config", str(config),
                    "--input", str(data / "logs.csv"),
                    "--model", str(staged / "model.txt"),
                    "--out", str(staged),
                    "--date", RUN_DATE,
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "triage",
                    "--config", str(config),
                    "--rules", str(staged / "rules.json"),
                    "--history", str(tmp_path / "h-staged.tsv"),
                    "--out", str(staged),
                    "--date", RUN_DATE,
                ]
            )
            == 2
        )
        for name in ("report.json", "report.md", "model.txt", "pruning.json"):
            assert (staged / name).read_bytes() == (mono / name).read_bytes(), name
        assert (tmp_path / "h-staged.tsv").read_bytes() == (tmp_path / "h-mono.tsv").read_bytes()
        # rules.json holds one compact rule record per line
        lines = (staged / "rules.json").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "[" and lines[-1] == "]" and len(lines) > 3
        assert [json.loads(line.removesuffix(",")) for line in lines[1:-1]] == json.loads("\n".join(lines))


class TestHistoryIsRecordedLast:
    def diagnose(self, tmp_path, data, out, date, config=None):
        return main(
            [
                "diagnose",
                "--config", str(config or run_config(tmp_path)),
                "--input", str(data / "logs.csv"),
                "--history", str(tmp_path / "history.tsv"),
                "--out", str(out),
                "--date", date,
            ]
        )

    def test_failed_report_write_leaves_history_unchanged(self, tmp_path, capsys):
        data = generate_data(tmp_path, faults=[FAULT])
        assert self.diagnose(tmp_path, data, tmp_path / "day1", "2026-08-09") == 2
        history = (tmp_path / "history.tsv").read_bytes()
        out = tmp_path / "day2"
        (out / "report.json").mkdir(parents=True)
        assert self.diagnose(tmp_path, data, out, RUN_DATE) == 1
        assert "stage 'report' failed" in capsys.readouterr().err
        assert (tmp_path / "history.tsv").read_bytes() == history

    def test_same_date_rerun_fails_before_writing(self, tmp_path, capsys):
        data = generate_data(tmp_path, faults=[FAULT])
        out = tmp_path / "out"
        assert self.diagnose(tmp_path, data, out, RUN_DATE) == 2
        report = (out / "report.json").read_bytes()
        history = (tmp_path / "history.tsv").read_bytes()
        # another seed mines other scores, so a written report would differ
        seed6 = dict(json.loads(run_config(tmp_path).read_text()), seed=6)
        config = write_json(tmp_path / "run-seed6.json", seed6)
        assert self.diagnose(tmp_path, data, out, RUN_DATE, config) == 1
        assert "duplicate record" in capsys.readouterr().err
        assert (out / "report.json").read_bytes() == report
        assert (tmp_path / "history.tsv").read_bytes() == history

    def test_a_score_that_is_not_finite_fails_extract_before_writing(self, tmp_path, capsys):
        data = generate_data(tmp_path, faults=[FAULT])
        capsys.readouterr()
        out = tmp_path / "out"
        assert self.diagnose(tmp_path, data, out, RUN_DATE, run_config(tmp_path, scoring="metric * 1e308")) == 1
        assert capsys.readouterr().err == (
            "error: stage 'extract' failed: scoring expression 'metric * 1e308' gives inf,"
            " which is not a finite number\n"
        )
        assert not (tmp_path / "history.tsv").exists() and not (out / "report.json").exists()

    def test_key_with_a_tab_fails_before_writing(self, tmp_path, capsys):
        history = tmp_path / "history.tsv"
        history.write_bytes(b"2026-08-09\tRack=c\t1.0\t10\n")
        rule = Rule(Predicate.equals("Rack", "a\tb"), (), 1.0, 10, 0.5, 10)
        rules = write_json(tmp_path / "rules.json", [rule_to_json(rule)])
        out = tmp_path / "out"
        argv = ["triage", "--config", str(run_config(tmp_path)), "--rules", str(rules)]
        assert main(argv + ["--history", str(history), "--out", str(out), "--date", RUN_DATE]) == 1
        assert "holds a tab or a line end" in capsys.readouterr().err
        assert not (out / "report.json").exists() and not (out / "report.md").exists()
        assert history.read_bytes() == b"2026-08-09\tRack=c\t1.0\t10\n"

    def test_triage_before_the_last_run_date_fails_before_writing(self, tmp_path, capsys):
        history = tmp_path / "history.tsv"
        history.write_bytes(b"2026-08-11\tRack=c\t1.0\t10\n")
        rule = Rule(Predicate.equals("Rack", "a"), (), 1.0, 10, 0.5, 10)
        rules = write_json(tmp_path / "rules.json", [rule_to_json(rule)])
        out = tmp_path / "out"
        argv = ["triage", "--config", str(run_config(tmp_path)), "--rules", str(rules)]
        assert main(argv + ["--history", str(history), "--out", str(out), "--date", RUN_DATE]) == 1
        assert "run-date 2026-08-10 comes before 2026-08-11" in capsys.readouterr().err
        assert not (out / "report.json").exists() and not (out / "report.md").exists()
        assert history.read_bytes() == b"2026-08-11\tRack=c\t1.0\t10\n"


class TestEval:
    def test_precision_against_manifest(self, tmp_path, capsys):
        data = generate_data(tmp_path, faults=[FAULT])
        out = tmp_path / "out"
        main(
            [
                "diagnose",
                "--config", str(run_config(tmp_path, min_score=10.0)),
                "--input", str(data / "logs.csv"),
                "--history", str(tmp_path / "history.tsv"),
                "--out", str(out),
                "--date", RUN_DATE,
            ]
        )
        capsys.readouterr()
        code = main(
            ["eval", "--report", str(out / "report.json"), "--manifest", str(data / "manifest.json")]
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["precision"] == 1.0
        assert result["valid_issues"] == 1
        assert result["missed"] == []


RULE = {
    "correlated_predicate": {"attribute": "A", "op": "eq", "value": "c3", "polarity": True},
    "scope_predicates": [],
    "correlation_score": 1.5,
    "request_count": 10,
    "performance_impact": 2.0,
    "full_row_count": 12,
}

GEN = {
    "row_count": 50,
    "attributes": [{"name": "A", "kind": "categorical", "cardinality": 3},
                   {"name": "C", "kind": "continuous"}],
    "kpi": {"column": "Lat", "kind": "continuous"},
}


def _gen_with(attribute=None, fault=None, trigger=None):
    """GEN with the first attribute, one shifting fault or its trigger predicate changed."""
    pred = dict({"attribute": "C", "op": "gt", "value": 1.0}, **(trigger or {}))
    doc = dict(GEN, faults=[dict({"trigger": [pred], "shift": 3.0}, **(fault or {}))])
    doc["attributes"] = [dict(GEN["attributes"][0], **(attribute or {})), GEN["attributes"][1]]
    return doc


def _kpi_with(**kw):
    return {"kpi": dict(MINIMAL["kpi"], **kw)}


def _main_on(tmp_path, file, doc):
    """main's exit code with doc as the given file and every other input valid, and that file."""
    path = write_json(tmp_path / f"bad-{file}.json", doc)
    out = tmp_path / "out"
    empty_report = write_json(tmp_path / "empty-report.json", {"rules": []})
    empty_manifest = write_json(tmp_path / "empty-manifest.json", {"faults": []})
    argv = {
        "run": ["train", "--config", str(path), "--input", "x.csv", "--out", str(out)],
        "gen": ["generate", "--config", str(path), "--out", str(out), "--date", RUN_DATE],
        "rules": ["triage", "--config", str(run_config(tmp_path)), "--rules", str(path),
                  "--history", str(tmp_path / "h.tsv"), "--out", str(out), "--date", RUN_DATE],
        "report": ["eval", "--report", str(path), "--manifest", str(empty_manifest)],
        "manifest": ["eval", "--report", str(empty_report), "--manifest", str(path)],
    }[file]
    code = main(argv)
    assert not out.exists()
    return code, path


# (id, file, whole document, message after `error: ` and, for the last
# three files, after `PATH: `); every message names the key
MALFORMED_INPUTS = [
    ("run-not-object", "run", [], "config must be a JSON object, got list"),
    ("run-no-kpi", "run", {}, "missing key 'kpi'"),
    ("kpi-kind", "run", _kpi_with(kind="ratio"), 'kpi.kind must be "continuous" or "binary", got "ratio"'),
    ("slo-direction", "run", _kpi_with(slo={"threshold": 5, "direction": "sideways"}),
     'kpi.slo.direction must be "above" or "below", got "sideways"'),
    ("binary-direction", "run", _kpi_with(kind="binary", slo={"positive_label": "fail", "direction": "above"}),
     "unknown config keys: ['kpi.slo.direction']"),
    ("column-role-kpi", "run", dict(MINIMAL, columns={"A": {"role": "kpi"}}),
     'columns.A.role must be "feature" or "excluded", got "kpi"'),
    ("dotted-top-level-key", "run", {**MINIMAL, "hyperparams.num_trees": 3}, "unknown config keys: ['hyperparams.num_trees']"),
    ("column-kind", "run", dict(MINIMAL, columns={"A": {"kind": "numeric"}}),
     'columns.A.kind must be "categorical" or "continuous", got "numeric"'),
    ("attributes-not-list", "gen", dict(GEN, attributes=5), "attributes must be a JSON list, got 5"),
    ("no-row-count", "gen", {k: v for k, v in GEN.items() if k != "row_count"}, "missing key 'row_count'"),
    ("attribute-name", "gen", _gen_with(attribute={"name": 5}), "attributes[0].name must be a string, got 5"),
    ("weighting", "gen", _gen_with(attribute={"weighting": "zipfian"}),
     'attributes[0].weighting must be "uniform" or "zipf", got "zipfian"'),
    ("distribution", "gen", _gen_with(attribute={"distribution": "gamma"}),
     'attributes[0].distribution must be "lognormal" or "normal" or "uniform", got "gamma"'),
    ("no-cardinality", "gen", _gen_with(attribute={"cardinality": 0}), "attributes[0]: attribute 'A' needs cardinality >= 1"),
    ("two-effects", "gen", _gen_with(fault={"multiplier": 2.0}), "faults[0]: a fault needs exactly one effect"),
    ("first-day-number", "gen", _gen_with(fault={"first_day": 5}), "faults[0].first_day must be a string, got 5"),
    ("last-day-month-13", "gen", _gen_with(fault={"last_day": "2026-13-01"}),
     'faults[0].last_day must be an ISO date, got "2026-13-01"'),
    ("trigger-op", "gen", _gen_with(trigger={"op": "lt"}), 'faults[0].trigger[0].op must be "eq" or "gt", got "lt"'),
    ("trigger-nan", "gen", _gen_with(trigger={"value": "nan"}),
     'faults[0].trigger[0].value must be a finite number, got "nan"'),
    ("null-score", "rules", [RULE, dict(RULE, correlation_score=None)],
     "rule 1: correlation_score must be a finite number, got null"),
    ("no-request-count", "rules", [{k: v for k, v in RULE.items() if k != "request_count"}],
     "rule 0: missing key 'request_count'"),
    ("object-not-list", "rules", {"rules": [RULE]}, "rules must be a JSON list, got object"),
    ("polarity-string", "rules", [dict(RULE, correlated_predicate=dict(RULE["correlated_predicate"], polarity="false"))],
     'rule 0: correlated_predicate.polarity must be true or false, got "false"'),
    ("scope-not-object", "rules", [RULE, dict(RULE, scope_predicates=[5])],
     "rule 1: scope_predicates[0] must be a JSON object, got 5"),
    ("no-attribute", "rules", [dict(RULE, correlated_predicate={"op": "eq", "value": "c3"})],
     "rule 0: missing key 'correlated_predicate.attribute'"),
    ("report-no-rules", "report", {}, "missing key 'rules'"),
    ("report-entry-without-key", "report", {"rules": [{"key": "A=c3"}, {"triage": "new"}]},
     "rule 1: missing key 'key'"),
    ("report-entry-not-object", "report", {"rules": [{"key": "A=c3"}, 5]},
     "rule 1: record must be a JSON object, got 5"),
    ("report-key-number", "report", {"rules": [{"key": 5}]}, "rule 0: key must be a string, got 5"),
    ("manifest-not-object", "manifest", [], "record must be a JSON object, got list"),
    ("fault-without-keys", "manifest", {"faults": [{}]}, "fault 0: missing key 'keys'"),
    ("keys-not-list", "manifest", {"faults": [{"keys": "A=c3"}]}, 'fault 0: keys must be a JSON list, got "A=c3"'),
    ("key-number", "manifest", {"faults": [{"keys": ["A=c3", 5]}]}, "fault 0: keys[1] must be a string, got 5"),
]


@pytest.mark.parametrize("file, doc, message", [c[1:] for c in MALFORMED_INPUTS], ids=[c[0] for c in MALFORMED_INPUTS])
def test_malformed_json_input_is_one_error_line_naming_the_key(tmp_path, capsys, file, doc, message):
    code, path = _main_on(tmp_path, file, doc)
    assert code == 1
    where = "" if file in ("run", "gen") else f"{path}: "
    assert capsys.readouterr().err == f"error: {where}{message}\n"


def test_a_repeated_predicate_record_reads_as_the_first_and_a_lookalike_is_checked():
    """A rules.json reader reads each distinct predicate record once; a record
    that differs only in a value's type or sign, which compares equal, is read anew."""
    read = rule_reader()
    pred = {"attribute": "C", "op": "gt", "value": 1.0, "polarity": True}
    rule = read(dict(RULE, correlated_predicate=pred, scope_predicates=[pred]))
    assert rule.scope_predicates == (rule.correlated_predicate,) == (Predicate.greater_than("C", 1.0),)
    zero = read(dict(RULE, correlated_predicate=dict(pred, value=0.0))).correlated_predicate
    negative = read(dict(RULE, correlated_predicate=dict(pred, value=-0.0))).correlated_predicate
    assert (math.copysign(1.0, zero.value), math.copysign(1.0, negative.value)) == (1.0, -1.0)
    for lookalike, got in (({"polarity": 1}, "polarity must be true or false, got 1"),
                           ({"value": True}, "value must be a finite number, got true")):
        with pytest.raises(ConfigError, match=f"^correlated_predicate.{got}$"):
            read(dict(RULE, correlated_predicate=dict(pred, **lookalike)))


SCOPED_RULE = dict(RULE, scope_predicates=[{"attribute": "C", "op": "gt", "value": 1.0, "polarity": False}])

# (file, a valid document, path of the object that gets the unknown key
# "zz"; a rules.json path starts at its first record): every kind of object
# the five JSON readers build
UNKNOWN_KEY_AT = [
    ("run", dict(MINIMAL, hyperparams={}, columns={"A": {"role": "feature"}}), at)
    for at in ("", "kpi", "kpi.slo", "hyperparams", "columns.A")
] + [
    ("gen", _gen_with(), at) for at in ("", "attributes[0]", "kpi", "faults[0]", "faults[0].trigger[0]")
] + [
    ("rules", [SCOPED_RULE], at) for at in ("", "correlated_predicate", "scope_predicates[0]")
]


@pytest.mark.parametrize("file, doc, at", UNKNOWN_KEY_AT, ids=[f"{f}:{at or 'root'}" for f, _, at in UNKNOWN_KEY_AT])
def test_unknown_key_is_an_error_naming_its_path(tmp_path, capsys, file, doc, at):
    doc = json.loads(json.dumps(doc))
    node = doc[0] if file == "rules" else doc
    for part in re.findall(r"\w+", at):
        node = node[int(part) if part.isdigit() else part]
    node["zz"] = 1
    code, path = _main_on(tmp_path, file, doc)
    assert code == 1
    where = f"{path}: rule 0: " if file == "rules" else ""
    key = f"{at}.zz" if at else "zz"
    assert capsys.readouterr().err == f"error: {where}unknown config keys: [{key!r}]\n"


@pytest.mark.parametrize("suffix", ["csv", "jsonl"])
def test_misspelled_column_declaration_fails_at_ingest(tmp_path, capsys, suffix):
    # "x" names no column; ignored, it would leave the input's "X" a feature
    data = tmp_path / f"logs.{suffix}"
    if suffix == "csv":
        data.write_text("X,Lat\na,1\nb,9\n", encoding="utf-8")
        missing = "the input has no column 'x'"
    else:
        data.write_text('{"X": "a", "Lat": 1}\n{"X": "b", "Lat": 9}\n', encoding="utf-8")
        missing = "no line of the input has the key 'x'"
    doc = dict(MINIMAL, input_format=suffix, columns={"x": {"role": "excluded"}})
    config = write_json(tmp_path / "run.json", doc)
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--input", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: stage 'ingest' failed: columns.x: {missing}\n"
    assert not out.exists()


@pytest.mark.parametrize("suffix", ["csv", "jsonl"])
def test_kpi_column_without_values_fails_before_training(tmp_path, capsys, suffix):
    data = tmp_path / f"logs.{suffix}"
    if suffix == "csv":
        data.write_text("A,Lat\nx,\ny,\n", encoding="utf-8")
    else:
        data.write_text('{"A": "x"}\n{"A": "y", "Lat": null}\n', encoding="utf-8")
    config = write_json(tmp_path / "run.json", dict(MINIMAL, input_format=suffix))
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--input", str(data), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: stage 'ingest' failed: KPI column 'Lat' has no values in {data}\n"
    assert not out.exists()


def test_keyboard_interrupt_in_a_stage_propagates(tmp_path, monkeypatch):
    data = generate_data(tmp_path)

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(forest, "train", interrupted)
    argv = ["--config", str(run_config(tmp_path)), "--input", str(data / "logs.csv"), "--out", str(tmp_path / "out")]
    with pytest.raises(KeyboardInterrupt):
        main(["train", *argv])


class TestExtract:
    def test_model_of_the_other_kpi_kind_is_rejected(self, tmp_path, capsys):
        fault = {"trigger": [{"attribute": "B", "op": "eq", "value": "c07"}], "failure_probability": 0.4}
        data = generate_data(tmp_path, faults=[fault], kind="binary")
        work = tmp_path / "work"
        argv = ["--input", str(data / "logs.csv"), "--out", str(work)]
        assert main(["train", "--config", str(run_config(tmp_path, kind="binary", trees=2)), *argv]) == 0
        capsys.readouterr()
        model = work / "model.txt"
        assert main(["extract", "--config", str(run_config(tmp_path)), "--model", str(model), *argv]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {model}: Classification trees, but the config's KPI is continuous\n"
        assert not (work / "rules.json").exists()

    def test_runs_no_pruning_advisory(self, tmp_path, monkeypatch):
        data = generate_data(tmp_path, faults=[FAULT])
        config, work = str(run_config(tmp_path, trees=2)), tmp_path / "work"
        argv = ["--config", config, "--input", str(data / "logs.csv"), "--out", str(work)]
        assert main(["train", *argv]) == 0

        def advisory(*args):
            raise AssertionError("extract ran the pruning advisory")

        monkeypatch.setattr(prep, "recommend_pruning", advisory)
        assert main(["extract", *argv, "--model", str(work / "model.txt")]) == 0


class TestTableHandOff:
    """`train` leaves its prepared table as table.npz beside model.txt, and
    `extract` loads it instead of ingesting when it was made from the same
    input bytes under the same settings; either way rules.json is the same."""

    BINARY_FAULT = {"trigger": [{"attribute": "B", "op": "eq", "value": "c07"}], "failure_probability": 0.4}

    @pytest.fixture(params=[("continuous", "csv"), ("continuous", "jsonl"), ("binary", "csv"), ("binary", "jsonl")])
    def staged(self, request, tmp_path, monkeypatch):
        kind, suffix = request.param
        faults = [FAULT] if kind == "continuous" else [self.BINARY_FAULT]
        data = generate_data(tmp_path, faults=faults, kind=kind) / "logs.csv"
        if suffix == "jsonl":
            data = self.to_jsonl(data)
        config = run_config(tmp_path, kind=kind, trees=3)
        write_json(config, dict(json.loads(config.read_text()), input_format=suffix))
        work = tmp_path / "work"
        assert main(["train", "--config", str(config), "--input", str(data), "--out", str(work)]) == 0
        ingests = []
        real = pipeline.prepare_table
        monkeypatch.setattr(pipeline, "prepare_table", lambda *a, **k: ingests.append(a) or real(*a, **k))
        return Staged(config, data, work, ingests)

    @staticmethod
    def to_jsonl(csv_path):
        path = csv_path.with_suffix(".jsonl")
        with open(csv_path, newline="", encoding="utf-8") as f:
            rows = [{k: v if k in ("A", "B", "Status") else float(v) for k, v in row.items()} for row in csv.DictReader(f)]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        return path

    def test_hit_and_miss_write_the_same_rules(self, staged):
        assert staged.table.exists()
        hit = staged.extract(ingested=False)
        staged.table.unlink()
        assert staged.extract(ingested=True) == hit

    def test_input_changed_at_the_same_size_and_mtime_is_a_miss(self, staged):
        staged.extract(ingested=False)
        state = os.stat(staged.data)
        raw = staged.data.read_bytes()
        # the first row's first digit becomes another digit: same size, other table
        at = re.compile(rb"\d").search(raw, raw.index(b"\n")).start()
        staged.data.write_bytes(raw[:at] + (b"9" if raw[at:at + 1] == b"1" else b"1") + raw[at + 1:])
        os.utime(staged.data, ns=(state.st_atime_ns, state.st_mtime_ns))
        assert os.stat(staged.data).st_size == state.st_size
        changed = staged.extract(ingested=True)
        staged.table.unlink()
        assert staged.extract(ingested=True) == changed

    @pytest.mark.parametrize("change", ["columns", "kpi.kind", "kpi.column", "input_format"])
    def test_other_settings_are_a_miss(self, staged, change):
        config = load_run_config(staged.config)
        assert pipeline.load_table(config, staged.data, staged.work / "model.txt") is not None
        other = {
            "columns": {"columns": {"A": ColumnDecl(role=ColumnRole.EXCLUDED)}},
            "kpi.kind": {"kpi": dataclasses.replace(config.kpi, kind=KpiKind.BINARY, positive_label="fail")
                         if config.kpi.kind is KpiKind.CONTINUOUS
                         else dataclasses.replace(config.kpi, kind=KpiKind.CONTINUOUS, threshold=1.0)},
            "kpi.column": {"kpi": dataclasses.replace(config.kpi, column="B")},
            "input_format": {"input_format": "csv" if config.input_format == "jsonl" else "jsonl"},
        }[change]
        assert pipeline.load_table(dataclasses.replace(config, **other), staged.data, staged.work / "model.txt") is None

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "object array", "code out of range", "wrong dtype",
                                        "code under -1", "infinite value"])
    def test_damaged_table_is_a_miss(self, staged, damage):
        rules = staged.extract(ingested=False)
        table = staged.table
        if damage == "truncated":
            table.write_bytes(table.read_bytes()[: table.stat().st_size // 2])
        elif damage == "garbage":
            table.write_bytes(bytes(range(256)) * 64)
        else:
            with np.load(table) as npz:
                arrays = dict(npz)
            header = json.loads(arrays["header"].tobytes())
            coded = next(i for i, c in enumerate(header["columns"]) if c[3] is not None)
            plain = next(i for i, c in enumerate(header["columns"]) if c[3] is None)
            if damage == "object array":
                arrays[f"c{coded}"] = np.array(list(header["columns"][coded][3]) * 10, dtype=object)
            elif damage == "code out of range":
                arrays[f"c{coded}"][0] = len(header["columns"][coded][3])
            elif damage == "code under -1":  # -1 is a missing cell
                arrays[f"c{coded}"][0] = -2
            elif damage == "infinite value":  # NaN is a missing cell
                arrays[f"c{plain}"][0] = np.inf
            else:
                arrays[f"c{plain}"] = arrays[f"c{plain}"].astype(np.float32)
            with open(table, "wb") as f:
                np.savez(f, **arrays)
        assert staged.extract(ingested=True) == rules

    def test_a_pipe_neither_writes_nor_uses_the_table(self, staged, tmp_path):
        rules = staged.extract(ingested=False)
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        for argv in (["extract", "--model", str(staged.work / "model.txt"), "--date", RUN_DATE], ["train"]):
            feeder = threading.Thread(target=lambda: pipe.write_bytes(staged.data.read_bytes()), daemon=True)
            feeder.start()
            out = tmp_path / argv[0]
            assert main([*argv, "--config", str(staged.config), "--input", str(pipe), "--out", str(out)]) == 0
            feeder.join(timeout=60)
        assert (tmp_path / "extract" / "rules.json").read_bytes() == rules
        assert len(staged.ingests) == 2
        assert not (tmp_path / "train" / "table.npz").exists()

    def test_a_table_write_failing_midway_leaves_the_old_table(self, staged, monkeypatch):
        files = {name: (staged.work / name).read_bytes() for name in os.listdir(staged.work)}

        def full(f, **arrays):
            f.write(b"PK\x03\x04")
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(np, "savez", full)
        argv = ["--config", str(staged.config), "--input", str(staged.data), "--out", str(staged.work)]
        assert main(["train", *argv]) == 1
        assert {name: (staged.work / name).read_bytes() for name in os.listdir(staged.work)} == files

    def test_input_edited_during_train_writes_no_table(self, staged, monkeypatch):
        staged.table.unlink()
        prepare, row = pipeline.prepare_table, staged.data.read_text(encoding="utf-8").splitlines()[-1]

        def edited_once_read(*args, **kwargs):
            table = prepare(*args, **kwargs)
            with open(staged.data, "a", encoding="utf-8") as f:
                f.write(row + "\n")
            return table

        monkeypatch.setattr(pipeline, "prepare_table", edited_once_read)
        argv = ["--config", str(staged.config), "--input", str(staged.data), "--out", str(staged.work)]
        assert main(["train", *argv]) == 0
        assert (staged.work / "model.txt").exists() and not staged.table.exists()


@dataclasses.dataclass
class Staged:
    """A trained work directory, and the inputs `train` read to make it."""

    config: Path
    data: Path
    work: Path
    ingests: list  # the calls extract made to prepare_table

    @property
    def table(self) -> Path:
        return self.work / "table.npz"

    def extract(self, ingested: bool) -> bytes:
        """rules.json of an extract run, which ingested the input or not."""
        calls = len(self.ingests)
        argv = ["--config", str(self.config), "--input", str(self.data), "--model", str(self.work / "model.txt")]
        assert main(["extract", *argv, "--out", str(self.work), "--date", RUN_DATE]) == 0
        assert len(self.ingests) == calls + ingested
        return (self.work / "rules.json").read_bytes()


def test_diagnose_leaves_no_table(tmp_path):
    data = generate_data(tmp_path, faults=[FAULT])
    out = tmp_path / "out"
    argv = ["--config", str(run_config(tmp_path, trees=2)), "--input", str(data / "logs.csv"), "--out", str(out)]
    assert main(["diagnose", *argv, "--history", str(tmp_path / "history.tsv"), "--date", RUN_DATE]) == 2
    assert sorted(os.listdir(out)) == ["model.txt", "pruning.json", "report.json", "report.md"]


def test_a_write_failing_midway_leaves_the_old_file_and_no_temp_file(tmp_path, monkeypatch):
    pipeline._write(tmp_path, "report.json", "old\n")
    opened = []

    class HalfWritten:
        """A file that takes half of the first bytes it is given, then runs out of space."""

        def __init__(self, path, mode):
            opened.append(path)
            self.f = open(path, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.f.write(data[: len(data) // 2])
            self.f.flush()
            assert os.path.getsize(opened[0]) > 0
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(pipeline, "open", HalfWritten, raising=False)
    with pytest.raises(OSError, match="No space"):
        pipeline._write(tmp_path, "report.json", "new and longer\n")
    assert len(opened) == 1 and os.path.dirname(opened[0]) == str(tmp_path)
    assert os.listdir(tmp_path) == ["report.json"]
    assert (tmp_path / "report.json").read_text() == "old\n"


class TestDumpModel:
    def test_round_trip_print(self, tmp_path, capsys):
        data = generate_data(tmp_path)
        staged = tmp_path / "staged"
        main(["train", "--config", str(run_config(tmp_path, trees=2)), "--input", str(data / "logs.csv"), "--out", str(staged)])
        capsys.readouterr()
        assert main(["dump-model", "--model", str(staged / "model.txt")]) == 0
        printed = capsys.readouterr().out
        assert printed == (staged / "model.txt").read_text()

    def test_malformed_dump_is_one_error_line(self, tmp_path, capsys):
        model = tmp_path / "model.txt"
        model.write_text("TREE 0 Foo\n", encoding="utf-8")
        assert main(["dump-model", "--model", str(model)]) == 1
        assert capsys.readouterr().err == "error: line 1: unknown tree kind 'Foo'\n"


class TestMultiDayResolution:
    def test_fault_removal_drives_resolved(self, tmp_path):
        config = run_config(tmp_path, min_score=10.0)
        fault = dict(FAULT, first_day="2026-08-01", last_day="2026-08-05")
        history = tmp_path / "history.tsv"
        seen = {}
        for day in range(1, 7):
            date = f"2026-08-{day:02d}"
            gen = gen_config(tmp_path, faults=[fault], seed=1)
            data_dir = tmp_path / f"data{day}"
            main(["generate", "--config", str(gen), "--out", str(data_dir), "--date", date])
            out = tmp_path / f"out{day}"
            main(
                [
                    "diagnose",
                    "--config", str(config),
                    "--input", str(data_dir / "logs.csv"),
                    "--history", str(history),
                    "--out", str(out),
                    "--date", date,
                ]
            )
            seen[day] = json.loads((out / "report.json").read_text())
        for day in range(1, 6):
            assert [r["key"] for r in seen[day]["rules"]] == ["A=c3"]
            assert seen[day]["resolved"] == []
        assert seen[6]["rules"] == []
        assert seen[6]["resolved"] == ["A=c3"]


def test_triage_and_eval_run_without_numpy(tmp_path):
    """Neither sub-command does array work, so neither imports numpy."""
    rule = Rule(Predicate.equals("Rack", "a"), (Predicate.greater_than("X", 1.5, polarity=False),), 2.0, 10, 0.5, 10)
    rules = write_json(tmp_path / "rules.json", [rule_to_json(rule)])
    manifest = write_json(tmp_path / "manifest.json", {"faults": [{"keys": ["Rack=a"]}]})
    out = tmp_path / "out"
    steps = [
        (["triage", "--config", str(run_config(tmp_path)), "--rules", str(rules),
          "--history", str(tmp_path / "history.tsv"), "--out", str(out), "--date", RUN_DATE], 2),
        (["eval", "--report", str(out / "report.json"), "--manifest", str(manifest)], 0),
    ]
    probe = "import sys; from kpidiag.cli import main; print(main(sys.argv[1:]), 'numpy' in sys.modules, file=sys.stderr)"
    env = dict(os.environ, PYTHONPATH=str(Path(kpidiag.__file__).parent.parent))
    for argv, code in steps:
        run = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=env)
        assert run.stderr.splitlines() == [f"{code} False"], argv[0]
