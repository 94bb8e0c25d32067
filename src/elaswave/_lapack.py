"""The pipeline's small decompositions, straight from numpy's LAPACK gufuncs.

On a 3x3 or 6x6 matrix np.linalg spends more time in its Python wrapper
(array conversion, type promotion, casts) than in LAPACK.  The functions
here call the same compiled gufuncs of numpy.linalg._umath_linalg with the
signatures and floating-point error handling np.linalg uses, so every result
is bit for bit np.linalg's and every failure is its LinAlgError with its
message.  They take an ndarray, or a stack of them, of float64 or complex128.
`eigvals` is the gufunc alone, without np.linalg's finiteness check: it is
np.linalg's only on a finite complex128 stack, which its one caller passes.
A gufunc this numpy lacks under its numpy 2 name is replaced by the public
np.linalg function: the same numbers, only slower.  np.linalg's error state
(a LinAlgError on an invalid result, other floating-point errors ignored) is
built once and set around each call through numpy 2's error-state context
variable, then reset to the caller's; a numpy without it (1.x) enters a
fresh np.errstate per call instead (with numpy 2.4 on an Intel Xeon, 1.1 us
a call against 0.26 us).

LAPACK's complex Schur form and its reordering, zgees and ztrsen, are bound
here too, from scipy's compiled LAPACK module scipy.linalg._flapack loaded
alone: `import scipy.linalg.lapack` would load all of scipy.linalg (about
300 modules and 28 MB of resident memory, half the start-up time of a CLI
call) for these two functions.  The module is loaded from scipy's directory
without importing scipy, under its real name, and its sys.modules entry is
removed again, so that a later `import scipy.linalg` builds its own and
finds it as an attribute; a process that has already imported it lends its
module.  Where scipy's directory or the file is not found, scipy.linalg.lapack
gives the same functions.
"""
from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

try:
    _GUFUNCS = importlib.import_module("numpy.linalg._umath_linalg")
except ImportError:
    _GUFUNCS = None
try:    # numpy 2 keeps the floating-point error state in a context variable
    from numpy._core.umath import _extobj_contextvar, _make_extobj
except ImportError:
    _make_extobj = None


def _raising(message: str):
    def raise_(err, flag):
        raise np.linalg.LinAlgError(message)
    return raise_


def _bound(name: str, real: str, cplx: str, on_error, public):
    """f(a): gufunc `name` with np.linalg's signature for a's type, under
    np.linalg's error state where on_error is given, or `public` where numpy
    has no `name`."""
    gufunc = getattr(_GUFUNCS, name, None)
    if gufunc is None:
        return public
    if on_error is None:
        return lambda a: gufunc(a, signature=cplx if a.dtype.kind == "c" else real)
    state = dict(call=on_error, invalid="call", over="ignore", divide="ignore",
                 under="ignore")
    if _make_extobj is None:
        def call(a):    # a fresh errstate per call: numpy enters one only once
            with np.errstate(**state):
                return gufunc(a, signature=cplx if a.dtype.kind == "c" else real)
        return call

    extobj = _make_extobj(**state)

    def call(a):        # what np.errstate(**state) sets and resets, built once
        token = _extobj_contextvar.set(extobj)
        try:
            return gufunc(a, signature=cplx if a.dtype.kind == "c" else real)
        finally:
            _extobj_contextvar.reset(token)
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
eigvals = _bound("eigvals", "d->D", "D->D", _EIG, np.linalg.eigvals)   # no finiteness check


def _flapack():
    """scipy.linalg._flapack, without importing scipy.linalg."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    for root in (scipy.submodule_search_locations if scipy else None) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_loader(name, loader))
                loader.exec_module(module)
                sys.modules.pop(name, None)  # the load adds it; scipy.linalg adds its own
                return module
    return importlib.import_module("scipy.linalg.lapack")


# The workspace size of zgees on a 6x6 Stroh matrix is queried once rather
# than on every call.
_FLAPACK = _flapack()
zgees, ztrsen = _FLAPACK.zgees, _FLAPACK.ztrsen
ZGEES_LWORK = int(zgees(lambda x: None, np.eye(6, dtype=complex), lwork=-1)[-2][0].real)
