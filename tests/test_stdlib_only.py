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


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)
