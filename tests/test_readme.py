"""README's library-use example runs against the package's exports."""

import inspect
import re
from pathlib import Path

import kpidiag

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
