"""The docs and the imports stay honest: README's library example imports
only names the package exports, no module imports a name it never uses, no
function imports anything, so an import cycle cannot hide in a call, each
module imports only modules below it in one layer order, no module imports
or reaches a private numpy name, which numpy may change in any release, and
no module keeps state outside its functions' arguments through
``contextvars``, ``threading`` or a ``global`` statement."""

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


# The package's modules, lowest first: each imports only from those before
# it, so the step loop in ``model`` cannot reach rounds or traces.
LAYERS = (
    "errors", "rng", "model", "data", "optimizers", "personalization",
    "federation", "analysis", "config", "__init__", "cli",
)


def package_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) for each package module ``source`` imports, by a
    relative or an absolute import; a name taken from the package itself
    counts as ``__init__``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if not node.level:
                if parts[0] != PACKAGE.name:
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.append((node.lineno, parts[0]))
            else:
                found += [
                    (node.lineno, alias.name if alias.name in LAYERS else "__init__")
                    for alias in node.names
                ]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == PACKAGE.name:
                    found.append((node.lineno, parts[1] if len(parts) > 1 else "__init__"))
    return found


def layer_breaks(module: str, source: str) -> list[str]:
    """The imports by which ``module`` reaches a module not below it in ``LAYERS``."""
    below = LAYERS[: LAYERS.index(module)]
    return sorted(
        f"line {line}: {module} imports {target}"
        for line, target in package_imports(source)
        if target not in below
    )


def test_layer_order_names_every_module():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted(LAYERS)


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_imports_follow_the_layers(module):
    assert layer_breaks(module, (PACKAGE / f"{module}.py").read_text(encoding="utf-8")) == []


def test_layer_break_is_found():
    source = (
        "from .errors import ContractViolation\n"
        "from .federation import run_round\n"
        "from . import rng, __version__\n"
        "import fedmetasim.data, numpy\n"
        "from fedmetasim.model import Batch\n"
        "from fedmetasim import errors\n"
        "def f():\n"
        "    from .cli import main\n"
    )
    assert layer_breaks("model", source) == [
        "line 2: model imports federation",
        "line 3: model imports __init__",
        "line 4: model imports data",
        "line 5: model imports model",
        "line 8: model imports cli",
    ]


def private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_numpy(source: str) -> list[str]:
    """Where ``source`` imports a private numpy name, or reaches one through an
    attribute of a name it bound the numpy module to."""
    tree = ast.parse(source)
    found, aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "numpy":
                    aliases.add(alias.asname or "numpy")
                    if any(map(private, parts)):
                        found.append(f"line {node.lineno}: import {alias.name}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            names = [*node.module.split("."), *(alias.name for alias in node.names)]
            if any(map(private, names)):
                found.append(f"line {node.lineno}: from {node.module} import")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in aliases:
                found.append(f"line {node.lineno}: .{node.attr}")
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_private_numpy(module):
    assert private_numpy((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_private_numpy_is_found():
    source = (
        "import numpy as np\n"
        "import numpy._core.umath\n"
        "from numpy._core import multiarray\n"
        "from numpy import _globals, errstate\n"
        "state = np._core._extobj_contextvar.get()\n"
        "public = np.errstate, np.__version__, numpy.linalg.norm\n"
        "unrelated = state._private\n"
    )
    assert sorted(private_numpy(source)) == [
        "line 2: import numpy._core.umath",
        "line 3: from numpy._core import",
        "line 4: from numpy import",
        "line 5: ._core",
        "line 5: ._extobj_contextvar",
    ]


HIDDEN_STATE_MODULES = {"contextvars", "threading"}


def hidden_state(source: str) -> list[str]:
    """Where ``source`` imports ``contextvars`` or ``threading`` or declares a
    ``global``: the means by which a call could pass a value to another
    outside their arguments."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Global):
            found.append(f"line {node.lineno}: global {', '.join(node.names)}")
        elif isinstance(node, ast.Import):
            found += [
                f"line {node.lineno}: import {alias.name}"
                for alias in node.names
                if alias.name.split(".")[0] in HIDDEN_STATE_MODULES
            ]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if node.module.split(".")[0] in HIDDEN_STATE_MODULES:
                found.append(f"line {node.lineno}: from {node.module} import")
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_hidden_state(module):
    assert hidden_state((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_hidden_state_is_found():
    source = (
        "import contextvars, os\n"
        "from threading import local\n"
        "from . import threading\n"
        "import threading.local as tl\n"
        "COUNT = 0\n"
        "def f():\n"
        "    global COUNT, MARK\n"
    )
    assert hidden_state(source) == [
        "line 1: import contextvars",
        "line 2: from threading import",
        "line 4: import threading.local",
        "line 7: global COUNT, MARK",
    ]
