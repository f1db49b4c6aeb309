"""README's library-use example runs against the package's exports, its
configuration table states the settings the config parser applies, and its
error examples are what the CLI prints for them."""

import inspect
import json
import re
from pathlib import Path

import pytest

import kpidiag
from kpidiag.cli import main
from kpidiag.config import _SETTINGS, parse_run_config

README = Path(__file__).resolve().parent.parent / "README.md"
ERRORS = {"ConfigError", "DumpParseError", "SchemaError", "StageError"}


def test_library_use_block_imports_exactly_the_exports():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    (block,) = [b for b in blocks if "from kpidiag import (" in b]
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    imported = {name for name in namespace if not name.startswith("__")}
    # the package binds each export on first use: bind all of them, so that
    # the namespace below holds every export whatever ran before
    assert not any(inspect.ismodule(getattr(kpidiag, name)) for name in kpidiag.__all__)
    exported = {
        name
        for name, value in vars(kpidiag).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == set(kpidiag.__all__) == imported | ERRORS


def _config_table() -> dict[str, tuple[str, str]]:
    """README's configuration table: key -> (default, valid values)."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| ([^|]+) \| ([^|]+) \|", section, re.M)
    return {key: (default.strip().strip("`"), valid.strip()) for key, default, valid in rows}



def test_config_table_states_what_the_parser_applies():
    table = _config_table()
    assert set(table) == {"kpi", "columns"} | set(_SETTINGS)
    kpi = {"column": "L", "kind": "continuous", "slo": {"threshold": 1}}
    # every listed key set to its listed default, each where the table puts it
    obj = {"kpi": kpi}
    for key, (default, valid) in table.items():
        if key in _SETTINGS:
            assert valid == _SETTINGS[key].valid(), key
        if key != "kpi":
            *section, name = key.split(".")
            (obj.setdefault(section[0], {}) if section else obj)[name] = json.loads(default)
    assert parse_run_config(obj) == parse_run_config({"kpi": kpi})


def _errors_section() -> str:
    return README.read_text(encoding="utf-8").split("## Errors", 1)[1].split("\n## ", 1)[0]


ERROR_EXAMPLES = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \| `([^`]+)` \|$", _errors_section(), re.M)


def test_readme_quotes_error_messages_only_in_the_errors_table():
    text = README.read_text(encoding="utf-8").replace(_errors_section(), "")
    spans = re.findall(r"`([^`]*)`", re.sub(r"```.*?```", "", text, flags=re.S))
    assert not [s for s in spans if re.search(r"must be|missing key|is not |failed:", s)]
    assert len(ERROR_EXAMPLES) >= 10


@pytest.mark.parametrize(
    "file, content, message", ERROR_EXAMPLES, ids=[f"{i}-{f}" for i, (f, _, _) in enumerate(ERROR_EXAMPLES)]
)
def test_error_example_is_what_the_cli_prints(tmp_path, monkeypatch, capsys, file, content, message):
    monkeypatch.chdir(tmp_path)
    suffix = "jsonl" if file.endswith(".jsonl") else "csv"
    kpi = {"column": "Latency", "kind": "continuous", "slo": {"threshold": 22.0}}
    files = {  # every other input valid, then the example's file
        "run.json": json.dumps({"kpi": kpi, "input_format": suffix}),
        "data/logs.csv": "Latency,Rack\n" + "".join(f"{10 + 30 * (i % 2)},c{i % 2}\n" for i in range(40)),
        "work/rules.json": "[]",
        "out/report.json": '{"rules": []}',
        "data/manifest.json": '{"faults": []}',
        file: content.replace("\\n", "\n").replace("\\t", "\t"),
    }
    for name, text in files.items():
        Path(name).parent.mkdir(exist_ok=True)
        Path(name).write_text(text, encoding="utf-8")
    date = ["--date", "2026-08-10"]
    triage = ["triage", "--config", "run.json", "--rules", "work/rules.json",
              "--history", "history.tsv", "--out", "work", *date]
    evaluate = ["eval", "--report", "out/report.json", "--manifest", "data/manifest.json"]
    argv = {
        "gen.json": ["generate", "--config", "gen.json", "--out", "gen", *date],
        "work/rules.json": triage,
        "history.tsv": triage,
        "out/report.json": evaluate,
        "data/manifest.json": evaluate,
        "work/model.txt": ["extract", "--config", "run.json", "--input", "data/logs.csv",
                           "--model", "work/model.txt", "--out", "work", *date],
    }.get(file, ["diagnose", "--config", "run.json", "--input", f"data/logs.{suffix}",
                 "--history", "history.tsv", "--out", "work", *date])
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
