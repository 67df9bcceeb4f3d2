"""Every name a ``cqsm`` module imports is used in that module, and every
private helper and constant a ``cqsm`` module defines is read in the package.

``__init__.py`` is skipped as an importer: its imports are the package's
public API.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cqsm"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements in ``source`` and never referenced."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nprint(np.pi, tau)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_definitions(module: str, package: list[str]) -> list[str]:
    """Module-level ``_``-prefixed functions and classes and UPPER_CASE
    constants of ``module`` that no source in ``package`` reads."""
    defined = {}
    for node in ast.parse(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
            defined[node.name] = node.lineno
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and CONSTANT.fullmatch(target.id):
                defined[target.id] = node.lineno
    read = set()
    for tree in map(ast.parse, package):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [f"line {line}: {name}" for name, line in defined.items() if name not in read]


def test_dead_definitions_are_found():
    module = ("LIMIT = 1\nSTEP: float = 0.5\n_TABLE = {}\nlower = 2\n"
              "def _used():\n    return LIMIT\ndef _unused():\n    pass\n"
              "class _Spare:\n    pass\ndef public():\n    return _used()\n")
    other = "from .mod import _TABLE\n"
    assert dead_definitions(module, [module, other]) == [
        "line 2: STEP", "line 7: _unused", "line 9: _Spare"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_defines_nothing_dead(path):
    package = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    assert dead_definitions(path.read_text(encoding="utf-8"), package) == []
