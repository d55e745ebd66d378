"""Every name a package module imports is used there, exported through
`__all__`, or imported on a line marked `# noqa` (kept for another reader,
such as the benchmark's tracer); every package name a script imports exists;
every module-level function and class of the package has a reader; and every
file the package writes goes through `data.write_atomic`."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "interboost").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
TRACER = ROOT / "perfbench" / "tracer.py"


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


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _readers() -> set[str]:
    """Names the package reads (as a name or an attribute), exports through
    `__all__`, or lets the scripts import, plus the attributes the
    benchmark's tracer wraps (the second field of each TARGETS entry)."""
    names = set()
    for path in SOURCES:
        tree = _parse(path)
        names |= _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    for path in SCRIPTS:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("interboost"):
                names |= {alias.name for alias in node.names}
    for node in _parse(TRACER).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            names |= {ast.literal_eval(entry.elts[1]) for entry in node.value.elts}
    return names


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_definition_has_a_reader(path):
    defined = [
        node.name
        for node in _parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    readers = _readers()
    assert [name for name in defined if name not in readers] == []


def file_writes(source: str) -> list[str]:
    """Calls outside a function named `write_atomic` that write a file:
    `open`, `Path.open` or `os.fdopen` with a literal mode holding w, a, x
    or +, and `write_text` or `write_bytes`."""
    tree = ast.parse(source)
    exempt = {
        node
        for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef) and f.name == "write_atomic"
        for node in ast.walk(f)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or node in exempt:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("open", "fdopen"):
            # the mode is open's second argument, or Path.open's first
            args = node.args[:2] + [k.value for k in node.keywords if k.arg == "mode"]
            modes = [a.value for a in args if isinstance(a, ast.Constant) and isinstance(a.value, str)]
            if not any(re.fullmatch(r"[rwxabt+]+", m) and set(m) & set("wax+") for m in modes):
                continue
        elif name not in ("write_text", "write_bytes"):
            continue
        found.append(f"line {node.lineno}: {name}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_file_write_is_atomic(path):
    assert file_writes(path.read_text(encoding="utf-8")) == []


def test_check_finds_a_file_write():
    source = (
        "def write_atomic(path, text):\n"
        "    with os.fdopen(fd, 'w') as fh:\n"
        "        fh.write(text)\n"
        "def save(path):\n"
        "    open(path, 'w')\n"
        "    open(path, mode='ab')\n"
        "    path.open('r+')\n"
        "    path.write_text('')\n"
        "    open(path)\n"
        "    open('data.csv', 'rb')\n"
        "    gzip.open(path)\n"
    )
    assert file_writes(source) == ["line 5: open", "line 6: open", "line 7: open", "line 8: write_text"]
