"""Every module of the package uses each name it imports, every private
helper or constant is named outside its own definition, and every public
function, class and constant is named somewhere outside its own
definition."""

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


ROOT = PACKAGE.parents[1]
# where a public name may be read; the package's __init__.py only re-exports
READER_DIRS = ("src", "tests", "demos", "perfbench")


def _statement_names(trees):
    """(module, top-level statement index, names the statement reads) of
    every top-level statement of every tree."""
    named = []
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
    return named


def _defined_names(stmt):
    """Names a top-level statement defines: a function, a class, or the
    plain names a NAME = ... assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _dead_definitions(sources, readers, private):
    """(module, name) of each module-level private (or public) function,
    class or constant of ``sources``, dunders aside, that no statement of
    ``sources`` or ``readers`` names outside the statement defining it, in
    source order."""
    trees = {module: ast.parse(source) for module, source in {**readers, **sources}.items()}
    named = _statement_names(trees)
    dead = []
    for module in sources:
        for index, stmt in enumerate(trees[module].body):
            dead += [(module, name) for name in _defined_names(stmt)
                     if name.startswith("_") == private and not name.startswith("__")
                     and not any(name in names for m, i, names in named
                                 if (m, i) != (module, index))]
    return dead


def _dead_private_helpers(sources):
    """(module, name) of each module-level private function, class or
    constant that no module names outside the statement defining it, in
    source order."""
    return _dead_definitions(sources, {}, private=True)


def test_the_check_sees_a_dead_helper():
    sources = {"a.py": "def _loop():\n    return _loop()\n\n\nclass _Used:\n    pass\n",
               "b.py": "from .a import _Used\n\n\ndef _called():\n    return _Used()\n\n\n"
                       "def run():\n    return _called()\n"}
    assert _dead_private_helpers(sources) == [("a.py", "_loop")]


def test_every_private_helper_is_named_outside_its_definition():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert _dead_private_helpers(sources) == []


def test_the_check_sees_a_dead_public_function():
    # the function's own body does not count as a reader
    sources = {"a.py": "def used():\n    return 1\n\n\ndef left_behind(x):\n"
                       "    return left_behind(x - 1) if x else used()\n\n\n"
                       "class Record:\n    pass\n"}
    readers = {"tests/test_a.py": "from a import Record\n\n\ndef test_record():\n"
                                  "    assert Record()\n"}
    assert _dead_definitions(sources, readers, private=False) == [("a.py", "left_behind")]


def test_the_check_sees_a_dead_constant():
    # a constant read only by its own assignment is dead; dunders are not
    sources = {"a.py": "__all__ = ['run']\nLIMIT = 2\nSTALE_TOL = 1e-12\n"
                       "_SCALE = 3\n_OLD = _OLD_TOO = 4\n\n\n"
                       "def run(x):\n    return x < LIMIT * _SCALE\n"}
    readers = {"tests/test_a.py": "from a import run\n\n\ndef test_run():\n"
                                  "    assert run(1)\n"}
    assert _dead_definitions(sources, readers, private=False) == [("a.py", "STALE_TOL")]
    assert _dead_private_helpers(sources) == [("a.py", "_OLD"), ("a.py", "_OLD_TOO")]


def test_every_public_name_has_a_reader():
    """Each module-level public function, class and constant of the package
    is named in src/, tests/, demos/ or perfbench/ outside its own
    definition; the package's re-exports in __init__.py do not count."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    readers = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
               for d in READER_DIRS for p in sorted((ROOT / d).rglob("*.py"))
               if p.parent != PACKAGE}
    assert _dead_definitions(sources, readers, private=False) == []
