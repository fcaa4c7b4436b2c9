"""Every third-party module the package imports is a declared runtime dependency, and the
package's own modules import each other at module level, in one direction."""

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


# the token table, the id-row kernel and sequential_sum, which corpus defines
_TOKEN_IDS = {"TokenTable", "id_counts", "_CHUNK_TOKENS", "IdRows", "_chunks", "_row_sums",
              "_distinct", "distinct_terms", "token_sums", "term_sums", "sequential_sum"}


def _package_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "src" / "forumlens").glob("*.py"))}


def _package_imports(node: ast.AST) -> list[tuple[int, str]]:
    """(line, module) of each import of a forumlens module under ``node``; ``module`` is the
    module's last name, such as ``topics``."""
    found = []
    for n in ast.walk(node):
        if isinstance(n, ast.Import):
            found += [(n.lineno, a.name.split(".")[-1]) for a in n.names if a.name.split(".")[0] == "forumlens"]
        elif isinstance(n, ast.ImportFrom) and (n.level or n.module.split(".")[0] == "forumlens"):
            if n.module in (None, "forumlens"):  # from . import topics
                found += [(n.lineno, a.name) for a in n.names]
            else:
                found.append((n.lineno, n.module.split(".")[-1]))
    return found


def _defined(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_package_imports_at_module_level():
    """No module imports a forumlens module inside a function, so no import cycle is hidden there."""
    for stem, tree in _package_trees().items():
        functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        assert [found for f in functions for found in _package_imports(f)] == [], stem


def test_token_ids_live_in_corpus():
    """corpus defines the token table, the id-row kernel and sequential_sum; topics defines none
    of them and imports only the table and id_counts, which it calls; classify and genmodel
    import nothing from topics."""
    trees = _package_trees()
    assert _TOKEN_IDS <= _defined(trees["corpus"])
    assert _TOKEN_IDS & _defined(trees["topics"]) == set()
    imported = {a.asname or a.name for n in trees["topics"].body if isinstance(n, ast.ImportFrom) for a in n.names}
    assert _TOKEN_IDS & imported == {"TokenTable", "id_counts"}
    for stem in ("classify", "genmodel"):
        assert [found for found in _package_imports(trees[stem]) if found[1] == "topics"] == [], stem
