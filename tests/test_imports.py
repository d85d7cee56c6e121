"""Every imported name, and every private module-level name of the package, is read
somewhere; the package imports only at module level."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(ROOT.glob("src/qqc/*.py"))
READERS = PACKAGE + sorted(ROOT.glob("tests/*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression reads.

    `from __future__` imports and names the module lists in `__all__` count
    as used.
    """
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in read]


@pytest.mark.parametrize("path", READERS, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_flags_an_unread_name():
    source = "from __future__ import annotations\nimport math\nimport numpy as np\nnp.zeros(1)\n"
    assert unused_imports(source) == ["math (line 2)"]
    assert unused_imports("import math\n__all__ = ['math']\n") == []


def private_bindings(source: str) -> dict[str, int]:
    """Private names (one leading underscore) a module binds at top level.

    Counts `def`, `class` and assignment targets, with the line of the first
    binding.
    """
    bound: dict[str, int] = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                bound.setdefault(name, node.lineno)
    return bound


def read_names(source: str) -> set[str]:
    """Names a module reads: loaded names, attribute names and imported names."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def test_every_private_name_is_read():
    read = set().union(*(read_names(p.read_text()) for p in READERS))
    unread = [
        f"{p.relative_to(ROOT)}: {name} (line {line})"
        for p in PACKAGE
        for name, line in private_bindings(p.read_text()).items()
        if name not in read
    ]
    assert unread == []


def test_private_name_check_flags_an_unread_name():
    source = "_LIMIT = 3\n_USED = 4\n__all__ = []\n\n\ndef _helper():\n    return _USED\n"
    assert private_bindings(source) == {"_LIMIT": 1, "_USED": 2, "_helper": 6}
    assert {"_USED"} <= read_names(source)
    assert not {"_LIMIT", "_helper"} & read_names(source)
    assert "_helper" in read_names("from m import _helper\n")
    assert "_helper" in read_names("import m\nm._helper()\n")


def nested_imports(source: str) -> list[int]:
    """Lines of the import statements that are not top-level statements."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    )


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_package_imports_only_at_module_level(path):
    assert nested_imports(path.read_text()) == []


def test_nested_import_check_flags_a_deferred_import():
    source = "import math\n\n\ndef f():\n    from os import path\n    return path\n"
    assert nested_imports(source) == [5]
    assert nested_imports("import math\nfrom os import path\n") == []
