"""README's library-use example runs against the package's exports, and
its configuration table states the settings the config parser applies."""

import inspect
import json
import re
from pathlib import Path

import kpidiag
from kpidiag.config import _SETTINGS, parse_run_config

README = Path(__file__).resolve().parent.parent / "README.md"
ERRORS = {"ConfigError", "DumpParseError", "SchemaError", "StageError"}


def test_library_use_block_imports_exactly_the_exports():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    (block,) = [b for b in blocks if "from kpidiag import (" in b]
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    imported = {name for name in namespace if not name.startswith("__")}
    exported = {
        name
        for name, value in vars(kpidiag).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == imported | ERRORS


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
