"""elaswave._lapack gives np.linalg's numbers and errors, bit for bit."""
import importlib.util
import sys
import types
import warnings

import numpy as np
import pytest

from elaswave import _lapack

PUBLIC = {
    "inv": np.linalg.inv,
    "det": np.linalg.det,
    "eigvalsh": np.linalg.eigvalsh,
    "eigh": np.linalg.eigh,
    "svd": np.linalg.svd,
    "svdvals": lambda a: np.linalg.svd(a, compute_uv=False),
    "eigvals": np.linalg.eigvals,
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


def test_real_eigvals_stay_real():
    # a real stack whose eigenvalues are all real gives real ones, as np.linalg does
    a = stack(2, 3, np.float64, hermitian=True)
    assert _lapack.eigvals(a).dtype == np.float64
    assert_same(_lapack.eigvals(a), np.linalg.eigvals(a))


@pytest.mark.parametrize("name", sorted(PUBLIC))
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("case", ["singular", "nan", "inf"])
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
                       (_lapack.svdvals, "SVD did not converge"),
                       (_lapack.eigvals, "Array must not contain infs or NaNs")]:
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
    nan = np.eye(3)
    nan[0, 0] = np.nan
    assert outcome(fallback.eigvals, nan) == outcome(_lapack.eigvals, nan)


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
