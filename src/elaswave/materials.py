"""Stiffness tensors and elastic materials.

A stiffness tensor is a real rank-4 tensor C^{ijkm} on 3-space with the
minor and major symmetries C^{ijkm} = C^{jikm} = C^{kmij}.  This module
constructs isotropic, transversely isotropic, and general (triclinic)
tensors, rotates them, decomposes them into rotation-irreducible pieces,
tests strong convexity, and converts to/from 6x6 Voigt storage.  Materials
pair a stiffness tensor with a mass density.
"""
from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _lapack
from .errors import (
    AsymmetricStiffness,
    AsymmetricVoigtMatrix,
    InvalidInput,
    MaterialFileError,
    NonPositiveDensity,
    NonUnitAxis,
    NotARotation,
)

# Voigt pair order: 11, 22, 33, 23, 13, 12
_VOIGT_I, _VOIGT_J = np.array([0, 1, 2, 1, 0, 0]), np.array([0, 1, 2, 2, 2, 1])
_VOIGT_INDEX = np.array([[0, 5, 4], [5, 1, 3], [4, 3, 2]])     # the Voigt index of pair (i, j)

_EYE = np.eye(3)
# the isotropic basis tensors: delta_ij delta_km and delta_ik delta_jm + delta_im delta_jk
_DELTA_IJ_KM = np.einsum("ij,km->ijkm", _EYE, _EYE)
_DELTA_IK_JM_IM_JK = np.einsum("ik,jm->ijkm", _EYE, _EYE) + np.einsum("im,jk->ijkm", _EYE, _EYE)


def _is_real(x) -> bool:
    """x is a real number and not a bool, so that True does not pass as 1
    (a float, numpy's too, passes without the slower abstract check)."""
    return isinstance(x, float) or (isinstance(x, numbers.Real) and not isinstance(x, bool))


def _is_int(x) -> bool:
    """x is an int or numpy integer, not a bool: the gate of public counts and indices."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _numbers(x) -> tuple:
    """np.asarray(x), of object dtype for a ragged nesting, and whether its
    entries are real numbers: not of a complex, bool, object or str dtype."""
    try:
        arr = np.asarray(x)
    except ValueError:          # a ragged nesting
        arr = np.asarray(x, dtype=object)
    return arr, arr.dtype.kind in "iuf"


def _real_array(x, shape: tuple | None, message: str, not_finite: str | None = None,
                error=InvalidInput) -> np.ndarray:
    """x as a fresh, read-only float array: error(message) where its entries
    are not real numbers (`_numbers`) or its shape is not shape (None takes
    any shape), InvalidInput(not_finite, else message) where an entry is not
    finite."""
    arr, real = _numbers(x)
    if not real or shape is not None and arr.shape != shape:
        raise error(f"{message}, got {arr.dtype} of shape {arr.shape}")
    arr = arr.astype(float)
    if np.count_nonzero(np.isfinite(arr)) < arr.size:      # half the time of .all()
        raise InvalidInput(not_finite or message)
    arr.setflags(write=False)
    return arr


def _symmetrize(c: np.ndarray) -> np.ndarray:
    """Project onto the subspace with minor and major symmetries."""
    c = 0.5 * (c + c.transpose(1, 0, 2, 3))
    c = 0.5 * (c + c.transpose(0, 1, 3, 2))
    c = 0.5 * (c + c.transpose(2, 3, 0, 1))
    return c


@dataclass(frozen=True)
class StiffnessTensor:
    """Rank-4 stiffness tensor with minor and major symmetries.

    Construction symmetrizes the input exactly; inputs whose asymmetry
    exceeds 1e-8 relative are rejected as likely data errors rather than
    rounding noise.
    """

    entries: np.ndarray
    norm: float = field(init=False, repr=False, compare=False)    # Frobenius norm of entries

    def __post_init__(self):
        c, real = _numbers(self.entries)
        if not real:    # only the dtype's kind: `_real_array` would slow every material build
            raise InvalidInput(f"stiffness entries must be real numbers, got {c.dtype}")
        c = np.asarray(c, dtype=float)
        if c.shape != (3, 3, 3, 3):
            raise AsymmetricStiffness(
                f"stiffness entries must have shape (3,3,3,3), got {c.shape}")
        # a non-finite entry, or finite ones whose sums overflow, give a
        # non-finite sym; a norm that overflows is inf, and a boundary
        # polynomial built on it raises CoefficientOverflow
        with np.errstate(over="ignore", invalid="ignore"):
            sym = _symmetrize(c)
            if not np.isfinite(sym).all():
                raise InvalidInput("stiffness entries must be finite")
            scale = np.linalg.norm(sym)
            if scale > 0 and np.linalg.norm(c - sym) > 1e-8 * scale:
                raise AsymmetricStiffness(
                    "input violates minor/major symmetry beyond 1e-8 relative")
        sym.setflags(write=False)
        object.__setattr__(self, "entries", sym)
        object.__setattr__(self, "norm", float(scale))

    def __getitem__(self, idx):
        return self.entries[idx]


@dataclass(frozen=True)
class Material:
    """Stiffness tensor plus mass density.

    Units are metadata only; all numerics are unit-agnostic.
    """

    stiffness: StiffnessTensor
    density: float
    name: str = ""

    def __post_init__(self):
        if not _is_real(self.density):
            raise NonPositiveDensity(f"density must be a real number, got {self.density!r}")
        if not 0 < self.density < np.inf:
            raise NonPositiveDensity(f"density must be positive and finite, got {self.density}")


def _check_instance(x, cls: type, message: str):
    """x, or InvalidInput(message, with the type of x) unless it is a cls: the
    gate of every public entry point that takes a Material or a BoundaryFrame."""
    if not isinstance(x, cls):
        raise InvalidInput(f"{message}, got {type(x).__name__}")
    return x


def _finite_moduli(*moduli) -> None:
    """InvalidInput where a modulus is not a finite real number, before its
    products with the zeros of the identity products give NaN (and a numpy
    warning)."""
    for modulus in moduli:
        if not _is_real(modulus):
            raise InvalidInput(f"a modulus must be a real number, got {modulus!r}")
    if not all(map(math.isfinite, moduli)):
        raise InvalidInput("stiffness entries must be finite")


def isotropic_stiffness(lam: float, mu: float) -> StiffnessTensor:
    _finite_moduli(lam, mu)
    with np.errstate(over="ignore"):    # an entry that overflows fails StiffnessTensor
        return StiffnessTensor(lam * _DELTA_IJ_KM + mu * _DELTA_IK_JM_IM_JK)


def make_isotropic(lam: float, mu: float, rho: float, name: str = "") -> Material:
    """Isotropic material from Lame parameters and density."""
    return Material(isotropic_stiffness(lam, mu), rho, name)


def transversely_isotropic_stiffness(lam, mu, alpha, beta, gamma,
                                     axis) -> StiffnessTensor:
    j = _real_array(axis, (3,), "symmetry axis must be a vector of shape (3,)",
                    "stiffness entries must be finite")
    if abs(math.hypot(*j) - 1.0) > 1e-12:
        raise NonUnitAxis(f"symmetry axis must be a unit vector, |J| = {math.hypot(*j)}")
    _finite_moduli(lam, mu, alpha, beta, gamma)
    jj = np.outer(j, j)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails StiffnessTensor
        c = lam * _DELTA_IJ_KM + mu * _DELTA_IK_JM_IM_JK
        c += alpha * (np.einsum("ij,km->ijkm", _EYE, jj)
                      + np.einsum("km,ij->ijkm", _EYE, jj))
        c += beta * (np.einsum("ik,jm->ijkm", _EYE, jj)
                     + np.einsum("jm,ik->ijkm", _EYE, jj)
                     + np.einsum("im,jk->ijkm", _EYE, jj)
                     + np.einsum("jk,im->ijkm", _EYE, jj))
        c += gamma * np.einsum("ij,km->ijkm", jj, jj)
        return StiffnessTensor(c)


def make_transversely_isotropic(lam, mu, alpha, beta, gamma, axis, rho,
                                name: str = "") -> Material:
    """Transversely isotropic material: five moduli and a unit symmetry axis."""
    return Material(transversely_isotropic_stiffness(lam, mu, alpha, beta, gamma, axis),
                    rho, name)


def rotate_stiffness(c: StiffnessTensor, o: np.ndarray) -> StiffnessTensor:
    """Rotate a stiffness tensor: C'^{ijkm} = O_ia O_jb O_kc O_md C^{abcd}.

    A transversely isotropic tensor with axis J maps to one with axis OJ.
    """
    o = _real_array(o, (3, 3), "O must be a 3x3 matrix of real numbers", error=NotARotation)
    if np.linalg.norm(o.T @ o - _EYE) > 1e-10 or not np.isclose(_lapack.det(o), 1.0, atol=1e-8):
        raise NotARotation("O must satisfy O^T O = I and det O = +1")
    rotated = np.einsum("ia,jb,kc,md,abcd->ijkm", o, o, o, o, c.entries)
    return StiffnessTensor(rotated)


@dataclass(frozen=True)
class HarmonicDecomposition:
    """Rotation-irreducible pieces of a stiffness tensor.

    lam, mu are the scalar parts, a and b the two traceless symmetric
    deviators, and h the totally symmetric traceless rank-4 remainder.
    """

    lam: float
    mu: float
    a: np.ndarray
    b: np.ndarray
    h: np.ndarray

    def reassemble(self) -> StiffnessTensor:
        c = isotropic_stiffness(self.lam, self.mu).entries.copy()
        c += (np.einsum("ij,km->ijkm", _EYE, self.a)
              + np.einsum("km,ij->ijkm", _EYE, self.a))
        c += (np.einsum("ik,jm->ijkm", _EYE, self.b)
              + np.einsum("jm,ik->ijkm", _EYE, self.b)
              + np.einsum("im,jk->ijkm", _EYE, self.b)
              + np.einsum("jk,im->ijkm", _EYE, self.b))
        c += self.h
        return StiffnessTensor(c)


def decompose_harmonic(c: StiffnessTensor) -> HarmonicDecomposition:
    """Split C into scalar, deviatoric, and harmonic parts.

    The scalars come from the two full traces, the deviators from a 2x2
    linear system in the two partial traces, and the harmonic part is the
    remainder.
    """
    t = c.entries
    full1 = np.einsum("iikk->", t)   # 9 lam + 6 mu
    full2 = np.einsum("ijij->", t)   # 3 lam + 12 mu
    lam, mu = np.linalg.solve(np.array([[9.0, 6.0], [3.0, 12.0]]),
                              np.array([full1, full2]))
    p = np.einsum("iikm->km", t) - (3 * lam + 2 * mu) * _EYE   # 3A + 4B
    r = np.einsum("ijim->jm", t) - (lam + 4 * mu) * _EYE       # 2A + 5B
    a = (5 * p - 4 * r) / 7.0
    b = (3 * r - 2 * p) / 7.0
    partial = HarmonicDecomposition(lam, mu, a, b, np.zeros((3, 3, 3, 3)))
    h = t - partial.reassemble().entries
    return HarmonicDecomposition(float(lam), float(mu), a, b, h)


def to_mandel(c: StiffnessTensor) -> np.ndarray:
    """6x6 matrix with sqrt(2)/2 scaling so eigenvalues match the tensor form."""
    w = np.array([1.0, 1.0, 1.0, np.sqrt(2.0), np.sqrt(2.0), np.sqrt(2.0)])
    return np.outer(w, w) * to_voigt(c)


def check_strong_convexity(c: StiffnessTensor) -> tuple[bool, float]:
    """Positive definiteness of e -> (Ce|e) on symmetric 2-tensors.

    Returns (is_convex, minimum eigenvalue) from the Mandel-scaled 6x6
    spectrum, which coincides with the tensor-form spectrum.
    """
    eigs = _lapack.eigvalsh(to_mandel(c))
    return bool(eigs[0] > 0), float(eigs[0])


def to_voigt(c: StiffnessTensor) -> np.ndarray:
    """6x6 engineering (unscaled) Voigt matrix; pair order 11,22,33,23,13,12."""
    return c.entries[_VOIGT_I[:, None], _VOIGT_J[:, None], _VOIGT_I, _VOIGT_J]


def from_voigt(m: np.ndarray) -> StiffnessTensor:
    """Stiffness tensor from an engineering Voigt matrix (must be symmetric)."""
    m = _real_array(m, (6, 6), "Voigt matrix must be 6x6 real numbers",
                    "stiffness entries must be finite", AsymmetricVoigtMatrix)
    with np.errstate(over="ignore"):    # huge entries: a norm of inf, and StiffnessTensor decides
        scale = np.linalg.norm(m)
        if scale > 0 and np.linalg.norm(m - m.T) > 1e-12 * scale:
            raise AsymmetricVoigtMatrix("Voigt matrix is not symmetric")
    return StiffnessTensor(m[_VOIGT_INDEX[:, :, None, None], _VOIGT_INDEX])


# --- material files ---------------------------------------------------------

def _json_number(x) -> float:
    """float(x) for a JSON number; TypeError for any other JSON value, so
    that true and "2" do not pass as 1.0 and 2.0."""
    if x is True or x is False or not isinstance(x, (int, float)):
        raise TypeError(f"expected a JSON number, got {json.dumps(x)}")
    return float(x)


def _json_numbers(x) -> np.ndarray:
    """A JSON number, or an array of them nested to any depth, as floats;
    TypeError where an entry is any other JSON value (see `_json_number`)."""
    floats, entries = np.asarray(x, dtype=float), [x]
    for _ in range(floats.ndim):
        entries = [entry for row in entries for entry in row]
    for entry in entries:
        _json_number(entry)
    return floats


def _stiffness_field(spec: dict, key: str, kind: str, convert=_json_number):
    """convert(spec[key]); MaterialFileError when it is missing or not numeric."""
    try:
        return convert(spec[key])
    except KeyError as exc:
        raise MaterialFileError(f"{kind} stiffness needs {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise MaterialFileError(f"{kind} stiffness field {key!r} is not numeric: {exc}") from exc


def material_from_dict(d: dict) -> Material:
    """Build a material from the JSON schema used by the CLI.

    Raises MaterialFileError on schema problems; emits a warning (only) when
    the stiffness is not strongly convex.
    """
    if not isinstance(d, dict):
        raise MaterialFileError("material document must be a JSON object")
    try:
        name = str(d.get("name", ""))
        density = _json_number(d["density"])
        spec = d["stiffness"]
        kind = spec["type"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MaterialFileError(f"missing or malformed material field: {exc}") from exc

    if kind == "isotropic":
        lam, mu = (_stiffness_field(spec, key, "isotropic") for key in ("lambda", "mu"))
        mat = make_isotropic(lam, mu, density, name)
    elif kind == "transversely_isotropic":
        what = "transversely isotropic"
        moduli = [_stiffness_field(spec, key, what)
                  for key in ("lambda", "mu", "alpha", "beta", "gamma")]
        axis = _stiffness_field(spec, "axis", what, _json_numbers)
        if axis.shape != (3,):
            raise MaterialFileError(f"{what} stiffness axis has shape {axis.shape}, "
                                    "expected (3,)")
        mat = make_transversely_isotropic(*moduli, axis, density, name)
    elif kind == "voigt":
        if spec.get("convention", "engineering") != "engineering":
            raise MaterialFileError("only the engineering Voigt convention is supported")
        mat = Material(from_voigt(_stiffness_field(spec, "matrix", "Voigt", _json_numbers)),
                       density, name)
    else:
        raise MaterialFileError(f"unknown stiffness type {kind!r}")

    convex, min_eig = check_strong_convexity(mat.stiffness)
    if not convex:
        warnings.warn(
            f"material {name!r} is not strongly convex (min eigenvalue {min_eig:g})",
            stacklevel=2)
    return mat


def load_material(path: str) -> Material:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MaterialFileError(f"cannot read material file {path}: {exc}") from exc
    return material_from_dict(doc)
