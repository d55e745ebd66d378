"""Every name a package module imports is used there, exported through
`__all__`, or imported on a line marked `# noqa` (kept for another reader,
such as the benchmark's tracer); every package name a script imports exists."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "interboost").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "# noqa" in lines[node.end_lineno - 1]:
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    kept = used | _exported(tree)
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in kept]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_finds_an_unused_import():
    assert unused_imports("import json\nimport os\n\nos.sep\n") == ["line 1: json"]
    assert unused_imports("import json  # noqa\n") == []
    assert unused_imports("from .data import Task\n__all__ = ['Task']\n") == []


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_imports_resolve(path):
    # read from the source rather than running the script, which takes seconds
    names = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "interboost"
        for alias in node.names
    ]
    assert names, "no interboost imports found"
    missing = [f"{m}.{n}" for m, n in names if not hasattr(importlib.import_module(m), n)]
    assert missing == []
