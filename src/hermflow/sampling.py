"""Seeded random fields used by verification sweeps and tests.

The construction is fixed so that any external oracle can regenerate the
same samples: coefficients are drawn independently with standard deviation
``decay ** total_degree`` (default decay 1/2) from a ``numpy``
``default_rng(seed)`` stream, in the frame's multi-index order.  Density
samples are then shifted nodally to ``min + 0.05 * (span + 1)`` above zero
and normalized to unit mass.
"""

from __future__ import annotations

import numpy as np

from .spectral import GaussianFrame, ScalarField, VectorField

__all__ = ["random_field", "random_density", "random_velocity", "tilted_density"]


def _unit_mass(frame: GaussianFrame, values: np.ndarray) -> ScalarField:
    """The projection of positive nodal values, scaled to unit mass."""
    coeffs = frame.project_nodal(values)
    return ScalarField(frame, coeffs=coeffs / coeffs[0])


def random_field(frame: GaussianFrame, rng: np.random.Generator,
                 decay: float = 0.5, amplitude: float = 1.0) -> ScalarField:
    """Signed field with variance-decaying Hermite coefficients."""
    scale = amplitude * decay**frame.total_degree
    return ScalarField(frame, coeffs=rng.standard_normal(frame.n_basis) * scale)


def random_density(frame: GaussianFrame, rng: np.random.Generator,
                   decay: float = 0.5, amplitude: float = 1.0) -> ScalarField:
    """Strictly positive, unit-mass relative density."""
    vals = random_field(frame, rng, decay, amplitude).nodal
    lo, hi = float(np.min(vals)), float(np.max(vals))
    return _unit_mass(frame, vals - lo + 0.05 * (hi - lo + 1.0))


def random_velocity(frame: GaussianFrame, rng: np.random.Generator,
                    decay: float = 0.5, amplitude: float = 1.0) -> VectorField:
    """One :func:`random_field` draw per component, in component order."""
    scale = amplitude * decay**frame.total_degree
    return VectorField(frame, coeffs=rng.standard_normal((frame.dim, frame.n_basis)) * scale)


def tilted_density(frame: GaussianFrame, alpha) -> ScalarField:
    """Exponential tilt exp(alpha . x - |alpha|^2 sigma^2 / 2), projected.

    This is the relative density of the reference Gaussian translated by
    alpha * sigma^2; it has unit mass and extremizes the logarithmic
    Sobolev inequality.  Coefficients decay like (|alpha| sigma)^k / sqrt(k!),
    so modest tilts are fully resolved.
    """
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), (frame.dim,))
    log_q = frame.nodes @ alpha - 0.5 * float(alpha @ alpha) * frame.sigma**2
    return _unit_mass(frame, np.exp(log_q))
