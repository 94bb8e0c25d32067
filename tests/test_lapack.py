"""elaswave._lapack gives np.linalg's numbers and errors, bit for bit, and
scipy's zgees and ztrsen without importing scipy.linalg."""
import contextlib
import importlib.util
import os
import subprocess
import sys
import textwrap
import types
import warnings

import numpy as np
import pytest

from elaswave import _lapack
from elaswave.factorization import BoundaryFrame, boundary_polynomial, stroh

from conftest import NU, random_triclinic

PUBLIC = {
    "inv": np.linalg.inv,
    "det": np.linalg.det,
    "eigvalsh": np.linalg.eigvalsh,
    "eigh": np.linalg.eigh,
    "svd": np.linalg.svd,
    "svdvals": lambda a: np.linalg.svd(a, compute_uv=False),
    # the gufunc alone, without np.linalg's finiteness check: np.linalg's
    # values, complex128 also where it gives a real stack real ones
    "eigvals": lambda a: np.linalg.eigvals(a).astype(complex),
}
HERMITIAN = {"eigvalsh", "eigh"}


def stack(count: int, n: int, dtype, hermitian: bool, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng([seed, count, n, int(np.dtype(dtype).kind == "c")])
    a = rng.standard_normal((count, n, n))
    if np.dtype(dtype).kind == "c":
        a = a + 1j * rng.standard_normal((count, n, n))
    return 0.5 * (a + a.conj().swapaxes(-1, -2)) if hermitian else a


def outputs(result) -> tuple:
    return tuple(result) if isinstance(result, tuple) else (result,)


def assert_same(got, want) -> None:
    got, want = outputs(got), outputs(want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w, equal_nan=True)


def outcome(f, a):
    """f(a), or the type and message of what it raises; a warning raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return f(a)
        except Exception as exc:
            return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(PUBLIC))
@pytest.mark.parametrize("count", [1, 2, 7])
@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_bit_for_bit(name, count, n, dtype):
    a = stack(count, n, dtype, name in HERMITIAN)
    assert_same(getattr(_lapack, name)(a), PUBLIC[name](a))
    assert_same(getattr(_lapack, name)(a[0]), PUBLIC[name](a[0]))


# eigvals checks no finiteness: its caller tests every solvency residual
# with math.isfinite before it takes the eigenvalues.
@pytest.mark.parametrize("name,dtype,case", [
    pytest.param(name, dtype, case, id=f"{case}-{np.dtype(dtype).name}-{name}")
    for case in ("singular", "nan", "inf") for dtype in (np.float64, np.complex128)
    for name in sorted(PUBLIC) if case == "singular" or name != "eigvals"])
def test_failures_match(name, dtype, case):
    a = np.ones((2, 3, 3), dtype=dtype)
    a[1] = np.eye(3)
    if case != "singular":
        a[1, 1, 1] = np.nan if case == "nan" else np.inf
    got, want = outcome(getattr(_lapack, name), a), outcome(PUBLIC[name], a)
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
    else:
        assert_same(got, want)


def test_singular_and_nan_raise_numpys_errors():
    with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
        _lapack.inv(np.ones((3, 3)))
    nan = np.eye(3, dtype=complex)
    nan[1, 1] = np.nan
    for f, message in [(_lapack.eigvalsh, "Eigenvalues did not converge"),
                       (_lapack.svd, "SVD did not converge"),
                       (_lapack.svdvals, "SVD did not converge")]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match=f"^{message}$"):
                f(nan)


def load_lapack(monkeypatch, gufuncs):
    """A fresh copy of elaswave._lapack imported with `gufuncs` in place of
    numpy.linalg._umath_linalg (None hides it)."""
    monkeypatch.setitem(sys.modules, "numpy.linalg._umath_linalg", gufuncs)
    spec = importlib.util.spec_from_file_location("_lapack_copy", _lapack.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fallback_without_gufuncs(monkeypatch):
    fallback = load_lapack(monkeypatch, None)
    assert fallback.inv is np.linalg.inv and fallback.eigh is np.linalg.eigh
    for name in sorted(PUBLIC):
        for dtype in (np.float64, np.complex128):
            a = stack(7, 3, dtype, name in HERMITIAN, seed=1)
            assert_same(getattr(fallback, name)(a), getattr(_lapack, name)(a))


def test_fallback_per_missing_name(monkeypatch):
    # numpy 1.x names its SVD gufuncs differently: only those fall back
    real = importlib.import_module("numpy.linalg._umath_linalg")
    partial = types.SimpleNamespace(**{name: getattr(real, name) for name in dir(real)
                                       if not name.startswith("svd")})
    fallback = load_lapack(monkeypatch, partial)
    assert fallback.svd is np.linalg.svd and fallback.inv is not np.linalg.inv
    for name in ("svd", "svdvals", "inv"):
        a = stack(2, 6, np.complex128, hermitian=False, seed=2)
        assert_same(getattr(fallback, name)(a), PUBLIC[name](a))


def test_schur_bindings():
    a = stack(1, 6, np.complex128, hermitian=False)[0]
    t, _, _, z, _, info = _lapack.zgees(lambda x: None, a, lwork=_lapack.ZGEES_LWORK)
    assert info == 0
    assert np.allclose(z @ t @ z.conj().T, a)
    select = np.zeros(6, dtype=np.int32)
    select[:3] = 1
    *_, sdim, _, _, info = _lapack.ztrsen(select, t, z, job="N")
    assert (sdim, info) == (3, 0)


def run_under_raise(lapack) -> list:
    """Under a caller's np.errstate(all="raise"): a call, a raising call,
    and numpy's error state after each (the caller's must still hold)."""
    seen = []
    with np.errstate(all="raise"):
        lapack.inv(np.eye(3))
        seen.append(np.geterr())
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            lapack.inv(np.ones((3, 3)))
        seen.append(np.geterr())
        with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
            lapack.svdvals(np.full((3, 3), np.nan))
        seen.append(np.geterr())
        with pytest.raises(FloatingPointError):
            np.ones(1) / np.zeros(1)
    return seen


def test_callers_error_state_kept():
    # each call sets np.linalg's error state and puts the caller's back
    before = np.geterr()
    assert run_under_raise(_lapack) == [dict.fromkeys(before, "raise")] * 3
    assert np.geterr() == before


def test_errstate_fallback(monkeypatch):
    # numpy without _make_extobj (numpy 1.x) enters np.errstate per call
    with contextlib.suppress(ImportError):     # numpy 1.x has no numpy._core.umath
        monkeypatch.delattr(importlib.import_module("numpy._core.umath"), "_make_extobj",
                            raising=False)
    fallback = load_lapack(monkeypatch, importlib.import_module("numpy.linalg._umath_linalg"))
    assert fallback._make_extobj is None
    assert run_under_raise(fallback) == run_under_raise(_lapack)
    for name in sorted(PUBLIC):
        a = stack(2, 3, np.complex128, name in HERMITIAN, seed=3)
        assert_same(getattr(fallback, name)(a), PUBLIC[name](a))


SRC = os.path.dirname(os.path.dirname(_lapack.__file__))

# Runs first in a fresh interpreter to make elaswave._lapack fall back to
# scipy.linalg.lapack: importlib.util.find_spec("scipy") then finds no spec,
# or numpy's, whose directory has a linalg/ but no _flapack file in it.
HIDE = {
    name: f"""
        import importlib.util
        _find = importlib.util.find_spec
        importlib.util.find_spec = lambda name, package=None: (
            {found} if name == "scipy" else _find(name, package))
    """
    for name, found in (("spec", "None"), ("file", '_find("numpy")'))
}


def fresh_python(code: str, *args, hide: str | None = None) -> str:
    """Standard output of `code` run in a fresh interpreter that imports this
    elaswave, after HIDE[hide] where `hide` is given."""
    code = textwrap.dedent(HIDE[hide] if hide else "") + textwrap.dedent(code)
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, check=True).stdout.strip()


def test_cli_import_footprint():
    # scipy.linalg (with numpy.f2py, which it loads) would add about 25 MB of
    # resident memory to the ~34 MB of `import elaswave.cli` and double its
    # start-up time; scipy.optimize (for brentq, say) loads scipy.linalg and
    # 20.7 MB more.  Either is well past the 10 % bound the benchmark puts on
    # peak_rss_mb, so only scipy's compiled LAPACK module is loaded and the
    # root finders are written out.
    assert fresh_python("""
        import sys, elaswave.cli
        print([m for m in ("scipy.linalg", "numpy.f2py", "scipy.optimize") if m in sys.modules])
    """) == "[]"


def test_scipy_linalg_imported_later_keeps_its_flapack():
    # the loaded module left in sys.modules would hide it from scipy.linalg
    assert fresh_python("""
        import sys, elaswave._lapack, scipy.linalg
        print(scipy.linalg._flapack is sys.modules["scipy.linalg._flapack"],
              scipy.linalg.lapack.zgees is scipy.linalg._flapack.zgees)
    """) == "True True"


def test_loaded_flapack_is_reused():
    # and left in sys.modules, where scipy.linalg put it
    assert fresh_python("""
        import sys, scipy.linalg, elaswave._lapack as lapack
        print(lapack._FLAPACK is sys.modules["scipy.linalg._flapack"] is scipy.linalg._flapack)
    """) == "True"


@pytest.mark.parametrize("hide", sorted(HIDE))
def test_forced_fallback(hide):
    assert fresh_python("""
        import elaswave._lapack as lapack, scipy.linalg.lapack
        print(lapack._FLAPACK is scipy.linalg.lapack,
              lapack.zgees is scipy.linalg.lapack.zgees,
              lapack.ztrsen is scipy.linalg.lapack.ztrsen)
    """, hide=hide) == "True True True"


SCHUR = """
    import sys
    import numpy as np
    from elaswave import _lapack
    rows = {"t": [], "z": [], "sdim": [], "info": []}
    for s6 in np.load(sys.argv[1]):
        t, _, _, z, _, info = _lapack.zgees(lambda x: None, s6, lwork=_lapack.ZGEES_LWORK)
        select = np.zeros(6, dtype=np.int32)
        select[np.argsort(-t.diagonal().imag, kind="stable")[:3]] = 1
        t, z, _, sdim, _, _, info2 = _lapack.ztrsen(select, t, z, job="N")
        for key, value in zip(rows, (t, z, sdim, (info, info2))):
            rows[key].append(value)
    np.savez(sys.argv[2], **rows)
    print("scipy.linalg" in sys.modules)
"""


def test_both_paths_give_the_same_bits(tmp_path):
    # the Schur form and its reordering on seeded 6x6 Stroh matrices, from
    # the loaded module and from the scipy.linalg.lapack fallback
    rng = np.random.default_rng(25)
    strohs = [stroh(boundary_polynomial(
                  random_triclinic(rng),
                  BoundaryFrame(NU, np.array([rng.uniform(0.5, 1.5), 0.0, 0.0]),
                                -rng.uniform(0.05, 2.6))))
              for _ in range(12)]
    np.save(tmp_path / "stroh.npy", np.array(strohs))
    got = {}
    for hide in (None, "spec"):
        out = tmp_path / f"{hide}.npz"
        assert fresh_python(SCHUR, tmp_path / "stroh.npy", out,
                            hide=hide) == str(hide is not None)
        with np.load(out) as saved:
            got[hide] = dict(saved)
    assert (got[None]["sdim"] == 3).all() and (got[None]["info"] == 0).all()
    for key in ("t", "z", "sdim", "info"):
        assert np.array_equal(got[None][key], got["spec"][key])
