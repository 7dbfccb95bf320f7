"""The runtime rule: cosym3 imports only the standard library and itself."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cosym3"


def absolute_imports(path: Path):
    """Top-level names of every absolute import in one module."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_every_import_is_stdlib_or_cosym3():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 1
    foreign = {
        (path.name, name)
        for path in modules
        for name in absolute_imports(path)
        if name != "cosym3" and name not in sys.stdlib_module_names
    }
    assert not foreign


def unused_imports(path: Path):
    """(line, name) of each name one module imports and never reads.  A
    ``__future__`` import and an import marked ``# noqa: F401`` (a
    re-export) are exempt."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in used:
                yield node.lineno, name


def test_every_imported_name_is_used():
    unused = {
        (path.name, line, name)
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, name in unused_imports(path)
    }
    assert not unused


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)
