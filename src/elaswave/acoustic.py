"""Acoustic (Christoffel) tensor and bulk plane-wave modes."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .errors import IndefiniteAcousticTensor, InvalidInput
from .materials import Material, StiffnessTensor, _real_array

DEGENERACY_TOL = 1e-8   # speeds^2 closer than this relative to the largest are one mode

_REFERENCE_FRAME = (np.array([0.0, 0.0, 1.0]),
                    np.array([1.0, 0.0, 0.0]),
                    np.array([0.0, 1.0, 0.0]))


def acoustic_tensor(c: StiffnessTensor, xi: np.ndarray) -> np.ndarray:
    """Symmetric 3x3 tensor l^{ik} = C^{ijkm} xi_j xi_m, for one xi or a stack."""
    xi = _real_array(xi, None, "xi must be real numbers", "xi must be finite")
    if xi.shape[-1:] != (3,):
        raise InvalidInput(f"xi must be a vector of shape (3,) or a stack of them, "
                           f"got shape {xi.shape}")
    return _contract(c, xi)


def _contract(c: StiffnessTensor, xi: np.ndarray) -> np.ndarray:
    """`acoustic_tensor` of a float xi already checked."""
    return np.einsum("ijkm,...j,...m->...ik", c.entries, xi, xi)


@dataclass(frozen=True)
class ChristoffelModes:
    """Plane-wave speeds and polarizations along a unit direction.

    Speeds are sorted descending; polarizations are the matching orthonormal
    eigenvectors (rows); projectors are the spectral projectors of the
    acoustic tensor, one per eigenvalue cluster, summing to the identity.
    """

    speeds: np.ndarray
    polarizations: np.ndarray
    projectors: tuple
    degenerate: bool


def cluster_sorted(vals: np.ndarray, tol: float) -> list[tuple[list[int], complex]]:
    """Group consecutive entries of an already-sorted array.

    An entry joins the current group when it lies within tol of the group's
    mean, and starts a new group otherwise.  Returns, per group, the
    positions of its entries and its mean.
    """
    clusters = []
    group, total = [0], vals[0]
    for k in range(1, len(vals)):
        if abs(vals[k] - total / len(group)) <= tol:
            group.append(k)
            total = total + vals[k]
        else:
            clusters.append((group, total / len(group)))
            group, total = [k], vals[k]
    clusters.append((group, total / len(group)))
    return clusters


def _orient_degenerate(vecs: np.ndarray) -> np.ndarray:
    """Reproducible basis in a degenerate eigenspace.

    Gram-Schmidt the projections of a fixed reference frame (e3, e1, e2)
    onto the subspace.  It always fills a basis: with j < k vectors taken,
    the squared residuals of e3, e1 and e2 sum to k - j >= 1.
    """
    p = vecs.T @ vecs
    basis = []
    for ref in _REFERENCE_FRAME:
        v = p @ ref
        for u in basis:
            v = v - (u @ v) * u
        n = np.linalg.norm(v)
        if n > 1e-8:
            basis.append(v / n)
        if len(basis) == vecs.shape[0]:
            break
    return np.array(basis)


def christoffel_modes(m: Material, xi_hat: np.ndarray) -> ChristoffelModes:
    """Eigen-decomposition of l(xi)/rho; speeds are sqrt of the eigenvalues."""
    xi_hat = _real_array(xi_hat, (3,), "direction must be a finite unit vector")
    if abs(math.hypot(*xi_hat) - 1.0) > 1e-12:
        raise InvalidInput("direction must be a finite unit vector")
    ell = _contract(m.stiffness, xi_hat) / m.density
    vals, vecs = _lapack.eigh(ell)   # ascending
    vmax = max(vals[-1], 1e-300)
    if vals[0] < -1e-10 * vmax:
        raise IndefiniteAcousticTensor(
            f"acoustic tensor indefinite along {xi_hat}: eigenvalue {vals[0]:g}")
    vals = np.clip(vals, 0.0, None)

    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order].T   # rows are eigenvectors

    scale = max(abs(vals[0]), abs(vals[-1]), 1e-300)
    clusters = cluster_sorted(vals, DEGENERACY_TOL * scale)
    degenerate = any(len(cl) > 1 for cl, _ in clusters)
    projectors = []
    pols = np.empty((3, 3))
    for cl, _ in clusters:
        sub = vecs[cl]
        if len(cl) > 1:
            sub = _orient_degenerate(sub)
        pols[cl] = sub
        projectors.append(sub.T @ sub)
    return ChristoffelModes(np.sqrt(vals), pols, tuple(projectors), degenerate)


def fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic quasi-uniform sample of n unit vectors."""
    k = np.arange(n)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * k
    z = 1.0 - 2.0 * (k + 0.5) / n
    r = np.sqrt(1.0 - z * z)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def eigen_gap_scan(m: Material, n_directions: int,
                   exclude_axis: np.ndarray | None = None,
                   exclude_angle_deg: float = 0.0):
    """Minimum relative eigenvalue gap of the acoustic tensor over the sphere.

    Directions within exclude_angle_deg of +-exclude_axis are skipped.
    Returns (min_gap, rows) where rows hold per-direction data for reporting.
    """
    if n_directions < 6:
        raise InvalidInput("need at least 6 directions")
    dirs = fibonacci_sphere(n_directions)
    if exclude_axis is not None:
        axis = _real_array(exclude_axis, (3,), "exclude_axis must be a vector of shape (3,)")
        if exclude_angle_deg > 0:
            axis = axis / np.linalg.norm(axis)
            cos_lim = np.cos(np.radians(exclude_angle_deg))
            dirs = dirs[np.abs(dirs @ axis) < cos_lim]
    min_gap = np.inf
    rows = []
    for d in dirs:
        ell = _contract(m.stiffness, d) / m.density
        vals = np.sort(_lapack.eigvalsh(ell))[::-1]
        gap = float(np.min(vals[:-1] - vals[1:]) / max(vals[0], 1e-300))
        min_gap = min(min_gap, gap)
        rows.append((d, np.sqrt(np.clip(vals, 0.0, None)), gap))
    return min_gap, rows
