"""The pipeline's small decompositions, straight from numpy's LAPACK gufuncs.

On a 3x3 or 6x6 matrix np.linalg spends more time in its Python wrapper
(array conversion, type promotion, casts) than in LAPACK.  The functions
here call the same compiled gufuncs of numpy.linalg._umath_linalg with the
signatures and floating-point error handling np.linalg uses, so every result
is bit for bit np.linalg's and every failure is its LinAlgError with its
message.  They take an ndarray, or a stack of them, of float64 or complex128.
A gufunc this numpy lacks under its numpy 2 name is replaced by the public
np.linalg function: the same numbers, only slower.  LAPACK's complex Schur
form and its reordering, zgees and ztrsen, are bound here too.
"""
from __future__ import annotations

import importlib

import numpy as np
import scipy.linalg.lapack

try:
    _GUFUNCS = importlib.import_module("numpy.linalg._umath_linalg")
except ImportError:
    _GUFUNCS = None


def _raising(message: str):
    def raise_(err, flag):
        raise np.linalg.LinAlgError(message)
    return raise_


def _bound(name: str, real: str, cplx: str, on_error, public):
    """f(a): gufunc `name` with np.linalg's signature for a's type, under
    np.linalg's errstate where on_error is given (a fresh one per call: numpy
    enters an errstate once only), or `public` where numpy has no `name`."""
    gufunc = getattr(_GUFUNCS, name, None)
    if gufunc is None:
        return public
    if on_error is None:
        return lambda a: gufunc(a, signature=cplx if a.dtype.kind == "c" else real)

    def call(a):
        with np.errstate(call=on_error, invalid="call", over="ignore", divide="ignore",
                         under="ignore"):
            return gufunc(a, signature=cplx if a.dtype.kind == "c" else real)
    return call


_SINGULAR = _raising("Singular matrix")
_EIG = _raising("Eigenvalues did not converge")
_SVD = _raising("SVD did not converge")

inv = _bound("inv", "d->d", "D->D", _SINGULAR, np.linalg.inv)
det = _bound("det", "d->d", "D->D", None, np.linalg.det)
eigvalsh = _bound("eigvalsh_lo", "d->d", "D->d", _EIG, np.linalg.eigvalsh)
eigh = _bound("eigh_lo", "d->dd", "D->dD", _EIG, np.linalg.eigh)
svd = _bound("svd_f", "d->ddd", "D->DdD", _SVD, np.linalg.svd)
svdvals = _bound("svd", "d->d", "D->d", _SVD,
                 lambda a: np.linalg.svd(a, compute_uv=False))
_eigvals = _bound("eigvals", "d->D", "D->D", _EIG, None)


def eigvals(a: np.ndarray) -> np.ndarray:
    """np.linalg.eigvals: complex, or real where a is real and so is every
    eigenvalue of the stack."""
    if _eigvals is None:
        return np.linalg.eigvals(a)
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    w = _eigvals(a)
    return w.real if a.dtype.kind != "c" and (w.imag == 0).all() else w


# The workspace size of zgees on a 6x6 Stroh matrix is queried once rather
# than on every call.
zgees, ztrsen = scipy.linalg.lapack.zgees, scipy.linalg.lapack.ztrsen
ZGEES_LWORK = int(zgees(lambda x: None, np.eye(6, dtype=complex), lwork=-1)[-2][0].real)
