"""Every dataclass field of elaswave is read somewhere."""
import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src/elaswave").glob("*.py"))
READERS = sorted(p for d in ("src/elaswave", "tests", "tools") for p in (ROOT / d).glob("*.py"))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        name = dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", None)
        if name == "dataclass":
            return True
    return False


def declared_fields(source: str) -> list:
    """(line, class, field) of every annotated field of a dataclass in a module."""
    return [(stmt.lineno, node.name, stmt.target.id)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and _is_dataclass(node)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


def attributes_read(source: str) -> set:
    """Names a module reads as an attribute, x.name."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


@functools.cache
def read_anywhere() -> frozenset:
    return frozenset().union(*(attributes_read(p.read_text()) for p in READERS))


def unread_fields(source: str, read: frozenset) -> list:
    return [(line, f"{cls}.{name}") for line, cls, name in declared_fields(source)
            if name not in read]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_field_is_read(path):
    assert unread_fields(path.read_text(), read_anywhere()) == []


def test_finds_an_unread_field():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    read: int\n"
        "    unread: float = 0.0\n"
        "@dataclasses.dataclass\n"
        "class B:\n"
        "    written: int\n"
        "class C:\n"
        "    plain: int\n"
        "def f(a, b):\n"
        "    b.written = a.read\n"
    )
    assert declared_fields(source) == [(5, "A", "read"), (6, "A", "unread"), (9, "B", "written")]
    assert unread_fields(source, frozenset(attributes_read(source))) == [
        (6, "A.unread"), (9, "B.written")]
