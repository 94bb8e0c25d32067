"""The pipeline's decompositions go through elaswave._lapack.

np.linalg's wrapper costs more than LAPACK itself on 3x3 and 6x6 matrices,
so a production function reaches its decompositions through `_lapack`.  The
test-only oracles keep np.linalg, as arbiters independent of `_lapack`.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src/elaswave").glob("*.py") if p.stem != "_lapack")
DECOMPOSITIONS = {"inv", "eig", "eigh", "eigvals", "eigvalsh", "svd", "det", "solve", "qr",
                  "cond"}
# module -> functions that may call np.linalg's decompositions
ALLOWED = {
    "factorization": {"contour_root_check", "_circle_moments"},      # contour oracle
    "impedance": {
        "_bl_integrals", "barnett_lothe_impedance",                 # Barnett-Lothe oracle
        "impedance_tau_derivative",                                  # Lyapunov oracle
        "Impedance.hermiticity_residual",                            # cross-check, needs qr
    },
    "boundary": {"iso_impedance_closed_form"},                       # closed-form oracle
    "materials": {"decompose_harmonic"},       # one fixed 2x2 solve per material
}


def direct_calls(source: str) -> list:
    """(line, enclosing function, name) of every reference to np.linalg's
    decompositions (numpy.linalg.X, *.linalg.X or a name imported from
    numpy.linalg), outside any function as "<module>"."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Attribute) and node.attr in DECOMPOSITIONS
                and isinstance(node.value, (ast.Attribute, ast.Name))
                and getattr(node.value, "attr", getattr(node.value, "id", None)) == "linalg"):
            found.append((node.lineno, scope or "<module>", node.attr))
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found.extend((node.lineno, scope or "<module>", alias.name)
                         for alias in node.names if alias.name in DECOMPOSITIONS)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_decompositions_go_through_lapack(path):
    allowed = ALLOWED.get(path.stem, set())
    calls = [(line, scope, name) for line, scope, name in direct_calls(path.read_text())
             if scope not in allowed]
    assert calls == []


def test_allowlist_names_existing_functions():
    for stem, allowed in ALLOWED.items():
        scopes = {scope for _, scope, _ in direct_calls((ROOT / f"src/elaswave/{stem}.py")
                                                        .read_text())}
        assert allowed <= scopes, stem


def test_finds_a_direct_call():
    source = ("import numpy as np\nfrom numpy.linalg import qr\n"
              "class A:\n    def f(self, a):\n        return np.linalg.svd(a)\n"
              "def g(a):\n    return np.linalg.norm(a), numpy.linalg.inv(a)\n")
    assert direct_calls(source) == [(2, "<module>", "qr"), (5, "A.f", "svd"),
                                    (7, "g", "inv")]
