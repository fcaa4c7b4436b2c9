"""Every third-party module the package imports is a declared runtime dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # the standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent


def _imported_top_level_modules() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "forumlens").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_declared():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", r)[0].lower() for r in requirements}
    third_party = _imported_top_level_modules() - set(sys.stdlib_module_names) - {"forumlens"}
    assert {"numpy", "scipy", "orjson"} <= third_party  # the walk sees the imports
    assert third_party <= declared, f"imported but not in [project].dependencies: {third_party - declared}"
