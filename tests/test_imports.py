"""Every module of the package uses each name it imports, and every private
helper is named outside its own definition."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "edof"


def _unused_imports(source):
    """Names a module imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_check_sees_an_unused_name():
    assert _unused_imports("import numpy as np\nfrom .a import b, c\nnp.sum(c)\n") == ["b"]


# __init__.py imports to re-export
@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_uses_every_name_it_imports(module):
    assert _unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def _dead_private_helpers(sources):
    """(module, name) of each module-level private function or class that no
    module names outside the statement defining it, in source order."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = []   # (module, top-level statement index, names read in it)
    for module, tree in trees.items():
        for index, stmt in enumerate(tree.body):
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            named.append((module, index, names))
    dead = []
    for module, tree in trees.items():
        for index, stmt in enumerate(tree.body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                    and stmt.name.startswith("_") and not stmt.name.startswith("__") \
                    and not any(stmt.name in names for m, i, names in named
                                if (m, i) != (module, index)):
                dead.append((module, stmt.name))
    return dead


def test_the_check_sees_a_dead_helper():
    sources = {"a.py": "def _loop():\n    return _loop()\n\n\nclass _Used:\n    pass\n",
               "b.py": "from .a import _Used\n\n\ndef _called():\n    return _Used()\n\n\n"
                       "def run():\n    return _called()\n"}
    assert _dead_private_helpers(sources) == [("a.py", "_loop")]


def test_every_private_helper_is_named_outside_its_definition():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert _dead_private_helpers(sources) == []
