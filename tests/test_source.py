"""The docs and the imports stay honest: README's library example imports
only names the package exports, no module imports a name it never uses, and
no function imports anything, so an import cycle cannot hide in a call."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fedmetasim"


def test_readme_library_imports_exist():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library", 1)[1]
    block = re.search(r"^from fedmetasim import \(.*?^\)$", section, re.M | re.S)
    assert block, "README's Library section has no `from fedmetasim import (...)` block"
    exec(compile(block.group(0), "README.md", "exec"), {})


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by an import and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = (
        "from dataclasses import dataclass, field\n"
        "import os.path\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int\n"
    )
    assert unused_imports(source) == ["line 1: field", "line 2: os"]


def function_imports(source: str) -> list[str]:
    """The imports ``source`` makes inside a function body."""
    return [
        f"line {node.lineno}: in {func.name}"
        for func in ast.walk(ast.parse(source))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_function_imports(module):
    assert function_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_function_import_is_found():
    source = (
        "import os\n"
        "def f():\n"
        "    def g():\n"
        "        from .model import Batch\n"
        "    return g\n"
    )
    assert function_imports(source) == ["line 4: in f", "line 4: in g"]
