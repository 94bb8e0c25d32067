"""Dataclass fields of elaswave that the test suite never reads.

    python3 tools/unread_fields.py

Runs `pytest -q tests` in-process with a plugin that wraps `__getattribute__`
of every dataclass defined in an elaswave module, so that each read of a
field on an instance is recorded.  Prints `Class.field` for each field that
no test read and exits 1 if there is any; exits with pytest's code if the
tests fail.  `tests/test_fields.py` is the fast static counterpart: it looks
for the field's name as an attribute anywhere, which a read of the same name
on another class satisfies.
"""
from __future__ import annotations

import dataclasses
import importlib
import os
import pkgutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

import elaswave  # noqa: E402


def dataclasses_of(package) -> list:
    """Every dataclass defined in a module of the package, in module order."""
    found = []
    for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
        module = importlib.import_module(info.name)
        found += [obj for obj in vars(module).values()
                  if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                  and obj.__module__ == module.__name__]
    return found


class FieldReads:
    """pytest plugin: records each read of a field of the given dataclasses,
    from the start of the session to its end."""

    def __init__(self, classes: list):
        self.fields = {cls: [f.name for f in dataclasses.fields(cls)] for cls in classes}
        self.read = set()
        self._originals = {}

    def _watch(self, cls) -> None:
        original, names, read = cls.__getattribute__, frozenset(self.fields[cls]), self.read

        def __getattribute__(obj, name):
            if name in names:
                read.add((cls, name))
            return original(obj, name)

        self._originals[cls] = original
        cls.__getattribute__ = __getattribute__

    def pytest_sessionstart(self, session) -> None:
        for cls in self.fields:
            self._watch(cls)

    def pytest_sessionfinish(self, session, exitstatus) -> None:
        for cls, original in self._originals.items():
            cls.__getattribute__ = original
        self._originals.clear()

    def unread(self) -> list:
        return [f"{cls.__name__}.{name}" for cls, names in self.fields.items()
                for name in names if (cls, name) not in self.read]


def main(argv=None) -> int:
    plugin = FieldReads(dataclasses_of(elaswave))
    code = pytest.main(["-q", os.path.join(ROOT, "tests"), *(argv or [])], plugins=[plugin])
    if code != 0:
        print(f"the tests failed (pytest exit code {int(code)}); no field report")
        return int(code)
    unread = plugin.unread()
    for name in unread:
        print(name)
    print(f"{len(unread)} of {sum(map(len, plugin.fields.values()))} dataclass fields "
          "of elaswave unread by the tests")
    return 1 if unread else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
