import importlib
import warnings

import numpy as np
import pytest
from hypothesis import settings

from elaswave.factorization import BoundaryFrame, boundary_polynomial, classify_spectrum
from elaswave.materials import (
    Material,
    from_voigt,
    make_isotropic,
    make_transversely_isotropic,
)
from elaswave.scatter import TraceField

NU = np.array([0.0, 0.0, 1.0])
AXIS = np.array([0.0, 0.0, 1.0])

# Property tests draw the same examples on every run and machine: a fixed
# number of them, with no per-example deadline (timings vary across runners).
settings.register_profile("ci", derandomize=True, deadline=None, max_examples=30)
settings.load_profile("ci")

# When a property test fails, hypothesis imports hypothesis.extra._patching to
# suggest a patch.  That imports libcst, which may warn on import (an old
# mypy_extensions emits a DeprecationWarning); under pyproject's
# error::DeprecationWarning the warning becomes an INTERNALERROR that ends the
# session, so the tests after the failing one never run.  Import it here once,
# with warnings ignored; where it cannot be imported (no libcst), hypothesis
# meets the ImportError itself, as it would without this.
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        importlib.import_module("hypothesis.extra._patching")
    except ImportError:
        pass


@pytest.fixture(scope="session")
def iso():
    """Isotropic reference material: c_s = 1, c_p = 2."""
    return make_isotropic(2.0, 1.0, 1.0, "iso")


@pytest.fixture(scope="session")
def poisson():
    """Poisson solid (lambda = mu), c_s = 1."""
    return make_isotropic(1.0, 1.0, 1.0, "poisson")


@pytest.fixture(scope="session")
def ti():
    """Weakly transversely isotropic material with vertical axis."""
    return make_transversely_isotropic(1.0, 1.0, 0.05, 0.05, 0.02, AXIS, 1.0, "ti")


@pytest.fixture(scope="session")
def rotated_ti():
    """Strongly transversely isotropic material with its axis tilted 0.7 rad."""
    axis = np.array([np.sin(0.7), 0.0, np.cos(0.7)])
    return make_transversely_isotropic(1.0, 1.0, 0.1, 0.15, 0.1, axis, 1.0, "rotated_ti")


@pytest.fixture(scope="session")
def hard():
    """Stiff contrast medium for interfaces."""
    return make_isotropic(4.0, 3.0, 3.0, "hard")


def random_triclinic(rng):
    """Strongly convex triclinic material from a random SPD Mandel matrix."""
    g = rng.standard_normal((6, 6))
    mandel = g @ g.T / 6.0 + 0.5 * np.eye(6)
    scale = np.array([1.0, 1.0, 1.0, np.sqrt(2.0), np.sqrt(2.0), np.sqrt(2.0)])
    return Material(from_voigt(mandel / np.outer(scale, scale)), 1.0, "triclinic")


def region_of(m, frame):
    cls = classify_spectrum(boundary_polynomial(m, frame))
    if cls.glancing:
        return "glancing"
    return {0: "hyperbolic", 3: "elliptic"}.get(cls.dim_evanescent, "mixed")


def sample_frames(m, rng, n_per_region, regions=("hyperbolic", "mixed", "elliptic"),
                  tau_sign=-1.0, max_tries=100000):
    """Random non-glancing frames bucketed by region label.

    Draws tangential directions and magnitudes uniformly and frequencies
    over a range that straddles all three regions, resampling until each
    requested bucket is full.
    """
    buckets = {r: [] for r in regions}
    tries = 0
    while any(len(v) < n_per_region for v in buckets.values()):
        tries += 1
        if tries > max_tries:
            raise RuntimeError(f"frame sampling stalled: {buckets}")
        ang = rng.uniform(0.0, 2.0 * np.pi)
        mag = rng.uniform(0.5, 1.5)
        eta = mag * np.array([np.cos(ang), np.sin(ang), 0.0])
        tau = tau_sign * mag * rng.uniform(0.05, 2.6)
        frame = BoundaryFrame(NU, eta, tau)
        label = region_of(m, frame)
        if label in buckets and len(buckets[label]) < n_per_region:
            buckets[label].append(frame)
    return buckets


def assert_per_side_products(law, g):
    """A ScatterOperator's apply on trace g is, bit for bit, the products on
    each side's rows of the law alone: its mode rows (mode_maps, forms) and
    its evanescent and trace maps (side_maps)."""
    scattered = law.apply(TraceField(g, 0.0))
    assert list(scattered.sides) == list(law.sides)
    for j, (tag, side) in enumerate(scattered.sides.items()):
        rows = [k for k, t in enumerate(law.tags) if t == tag]
        modes = [law.modes[k] for k in rows]
        assert list(side.amplitudes) == list(side.fluxes) == modes == sorted(modes)
        amps = np.einsum("kij,j->ki", law.mode_maps[rows], g)
        flux = np.einsum("ki,ki->k", amps.conj(),
                         np.einsum("kij,kj->ki", law.forms[rows], amps)).real
        evanescent, trace = np.einsum("kij,j->ki", law.side_maps[j], g)
        for s, amp, fl in zip(modes, amps, flux):
            assert side.amplitudes[s].tobytes() == amp.tobytes()
            assert side.fluxes[s] == fl
        assert side.evanescent.tobytes() == evanescent.tobytes()
        assert side.trace.tobytes() == trace.tobytes()
