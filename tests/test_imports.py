"""Every module imports only names it uses, and every private name that
elaswave defines is read somewhere in elaswave."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "elaswave").glob("*.py"))
MODULES = sorted(p for d in ("src/elaswave", "tests", "tools") for p in (ROOT / d).glob("*.py"))


def unused_imports(source: str) -> list:
    """Names a module imports and never reads, with the line of each import."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a import b, c as d\nsys.exit(d)\n") == [
        (1, "os"), (3, "b")]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_orphans(sources: list) -> list:
    """The private top-level functions, classes and constants, and methods of
    top-level classes, that the sources define and none of them reads as a
    name, an attribute or an imported name."""
    trees = [ast.parse(source) for source in sources]
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined.update(n.name for n in node.body if isinstance(n, ast.FunctionDef))
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for target in targets for n in ast.walk(target)
                               if isinstance(n, ast.Name))
    read = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return sorted(name for name in defined - read if _private(name))


def test_no_private_orphans():
    assert private_orphans([path.read_text() for path in SOURCES]) == []


def test_finds_a_private_orphan():
    sources = ["_A = 1\n_B = 2\nclass _C:\n    def _m(self): pass\n    def _n(self): pass\n"
               "def _f(): return _A\n",
               "from .a import _f\nx = _C()._n()\n"]
    assert private_orphans(sources) == ["_B", "_m"]
