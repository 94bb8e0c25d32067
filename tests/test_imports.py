"""Every module imports only names it uses."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
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
