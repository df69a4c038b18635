r"""Density transport with exact Ornstein-Uhlenbeck diffusion.

One step of

.. math::

    \partial_t q + {\rm div}_m(q u) = \delta_1 \Delta_m q

with the velocity frozen is advanced through the Duhamel form

.. math::

    q(t) = e^{t\delta_1\Delta_m} q^0
         - \int_0^t e^{(t-s)\delta_1\Delta_m}\,{\rm div}_m(q(s)u)\,{\rm d}s,

closing the convolution integral with the midpoint rule and a short Picard
iteration on the endpoint value.  The semigroup is diagonal in the Hermite
basis, so the linear part is exact for any step size, and the zero-index
coefficient of the div_m image vanishes identically: mass is conserved to
round-off per step.

The scheme also tracks the two-sided positivity envelope

.. math::

    c^0 e^{-\int_0^t \|{\rm div}_m u\|_\infty} \le q(t)
        \le \frac{1}{c^0} e^{+\int_0^t \|{\rm div}_m u\|_\infty},

with the sup norm taken over quadrature nodes (the only computable
surrogate for the true essential sup) and trapezoidal accumulation of the
integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .calculus import div_m
from .errors import InvalidParameterError, InternalConsistencyError, StepFailureError
from .spectral import GaussianFrame, ScalarField, VectorField

__all__ = [
    "PositivityEnvelope",
    "ou_semigroup",
    "fp_step",
    "divm_sup",
    "envelope_update",
    "envelope_check",
]

#: Picard iterations on the endpoint density in one transport step
FP_SWEEPS = 2
#: slack of the envelope check on nodal density values
ENVELOPE_TOL = 1e-8


@dataclass(frozen=True)
class PositivityEnvelope:
    """Running two-sided bound on the relative density.

    ``c0`` is the initial two-sided bound (c0 <= q0 <= 1/c0); ``accumulated``
    is the integral of the nodal sup of div_m(u) so far, and ``last_sup`` the
    most recent integrand sample for trapezoidal continuation.
    """

    c0: float
    accumulated: float = 0.0
    last_sup: float = 0.0

    def __post_init__(self):
        if self.c0 <= 0.0:
            raise InvalidParameterError(f"c0 must be positive, got {self.c0}")
        if self.accumulated < 0.0:
            raise InvalidParameterError("accumulated integral cannot be negative")

    @property
    def lower(self) -> float:
        return self.c0 * math.exp(-self.accumulated)

    @property
    def upper(self) -> float:
        return math.exp(self.accumulated) / self.c0

    @classmethod
    def start(cls, lo: float, hi: float, u: VectorField) -> "PositivityEnvelope":
        """The envelope of an initial state whose trusted density range is [lo, hi]."""
        if lo <= 0.0:
            raise InvalidParameterError(f"initial density not strictly positive (min {lo:.3e})")
        return cls(c0=min(lo, 1.0 / hi), last_sup=divm_sup(u))


def _ou_decay(frame: GaussianFrame, delta1: float, s: float) -> np.ndarray:
    """Per-mode factors of the semigroup of delta1 * Delta_m over time s."""
    return np.exp(-delta1 * frame.total_degree * s / frame.sigma**2)


def ou_semigroup(q: ScalarField, s: float, delta1: float) -> ScalarField:
    """Exact solution of dq/dt = delta1 * Delta_m q over time s >= 0."""
    if s < 0.0:
        raise InvalidParameterError(f"semigroup time must be non-negative, got {s}")
    return ScalarField(q.frame, coeffs=q.coeffs * _ou_decay(q.frame, delta1, s))


def fp_step(q: ScalarField, u: VectorField, delta1: float, dt: float) -> ScalarField:
    """One exponential-midpoint Duhamel step with the velocity frozen.

    Picard-iterates the endpoint value ``FP_SWEEPS`` times; the midpoint density
    is the average of the endpoints, which keeps the step second order.  A
    growing iteration increment means the fixed-point map stopped
    contracting, which is reported as a step failure (reduce dt).
    """
    if dt <= 0.0:
        raise InvalidParameterError(f"dt must be positive, got {dt}")
    frame = q.frame
    c0 = q.coeffs
    un = u.nodal
    if delta1 == 0.0:
        # both decay tables would be all ones: the same values without them
        free, step = c0, dt
    else:
        free, step = _ou_decay(frame, delta1, dt) * c0, dt * _ou_decay(frame, delta1, 0.5 * dt)

    c_new = free
    prev_increment = None
    for _ in range(FP_SWEEPS):
        if c_new is c0 and q._synthesized:
            # no diffusion, first sweep: the midpoint 0.5 * (c0 + c0) is c0 itself
            qn = q.nodal
        else:
            qn = frame._synthesize(0.5 * (c0 + c_new))
        # div_m(q u), each flux component dealiased: projected from its nodal product
        divm_qu = np.zeros(frame.n_basis)
        for ax in range(frame.dim):
            divm_qu += frame.divm_mats[ax] @ frame.project_nodal(qn * un[ax])
        c_next = free - step * divm_qu
        delta = c_next - c_new
        increment = math.sqrt(delta @ delta)
        if prev_increment is not None and prev_increment > 1e-14:
            if increment > prev_increment:
                raise StepFailureError(
                    f"density fixed point not contracting (increments "
                    f"{prev_increment:.3e} -> {increment:.3e}); reduce dt"
                )
        prev_increment = increment
        c_new = c_next

    drift = abs(c_new[0] - c0[0])
    if drift > 1e-13 * max(abs(c0[0]), 1.0):
        raise InternalConsistencyError(f"mass drifted by {drift:.3e} in one density step")
    return ScalarField(frame, coeffs=c_new)


def divm_sup(u: VectorField) -> float:
    """Sup norm of div_m(u) over the trusted quadrature nodes."""
    return float(np.max(np.abs(div_m(u).nodal[u.frame.trusted])))


def envelope_update(env: PositivityEnvelope, u: VectorField, dt: float) -> PositivityEnvelope:
    """Trapezoidal accumulation of the envelope integral over one step."""
    sup_new = divm_sup(u)
    return replace(
        env,
        accumulated=env.accumulated + 0.5 * dt * (env.last_sup + sup_new),
        last_sup=sup_new,
    )


def envelope_check(lo: float, hi: float, env: PositivityEnvelope) -> bool:
    """True when the density range [lo, hi] respects the envelope up to ENVELOPE_TOL."""
    return lo >= env.lower - ENVELOPE_TOL and hi <= env.upper + ENVELOPE_TOL
