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
from .spectral import GaussianFrame, ScalarField, VectorField, _matvec, _row_norms

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
        (sup,) = divm_sup(u)
        return cls(c0=min(lo, 1.0 / hi), last_sup=sup)


def _ou_decay(frame: GaussianFrame, delta1: float, s: float) -> np.ndarray:
    """Per-mode factors of the semigroup of delta1 * Delta_m over time s."""
    return np.exp(-delta1 * frame.total_degree * s / frame.sigma**2)


def ou_semigroup(q: ScalarField, s: float, delta1: float) -> ScalarField:
    """Exact solution of dq/dt = delta1 * Delta_m q over time s >= 0."""
    if s < 0.0:
        raise InvalidParameterError(f"semigroup time must be non-negative, got {s}")
    return ScalarField(q.frame, coeffs=q.coeffs * _ou_decay(q.frame, delta1, s))


def fp_step(q: ScalarField, u: VectorField, delta1, dt: float) -> ScalarField:
    """One exponential-midpoint Duhamel step with the velocity frozen.

    Picard-iterates the endpoint value ``FP_SWEEPS`` times; the midpoint density
    is the average of the endpoints, which keeps the step second order.  A
    growing iteration increment means the fixed-point map stopped
    contracting, which is reported as a step failure (reduce dt).

    ``q`` and ``u`` may be stacks of members (see :class:`ScalarField`),
    with ``delta1`` a float or a (members, 1) column; each member's result,
    and the error a failing member raises, equal those of the member alone.
    """
    if dt <= 0.0:
        raise InvalidParameterError(f"dt must be positive, got {dt}")
    frame = q.frame
    c0 = q.coeffs
    un = u.nodal
    if not (np.count_nonzero(delta1) if isinstance(delta1, np.ndarray) else delta1):
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
        # div_m(q u), each flux component dealiased: its nodal product tested
        # against the basis by the sum-factorized adjoint (no dense V in d = 2)
        divm_qu = np.zeros(c0.shape)
        for ax in range(frame.dim):
            flux = frame._synthesize_adjoint(frame.weights * (qn * un[..., ax, :]))
            divm_qu += _matvec(frame.divm_mats[ax], flux)
        c_next = free - step * divm_qu
        increment = _row_norms(c_next - c_new)
        if prev_increment is not None:
            for i, (prev, now) in enumerate(zip(prev_increment, increment)):
                if prev > 1e-14 and now > prev:
                    raise StepFailureError(
                        f"density fixed point not contracting (increments "
                        f"{prev:.3e} -> {now:.3e}); reduce dt", member=i)
        prev_increment = increment
        c_new = c_next

    # each member's zero-index coefficient, before and after, as floats
    masses = zip(*(np.ravel(c[..., 0]).tolist() for c in (c0, c_new)))
    for i, (old, new) in enumerate(masses):
        drift = abs(new - old)
        if drift > 1e-13 * max(abs(old), 1.0):
            raise InternalConsistencyError(f"mass drifted by {drift:.3e} in one density step",
                                           member=i)
    return ScalarField(frame, coeffs=c_new)


def divm_sup(u: VectorField) -> list[float]:
    """Sup norm of div_m(u) over the trusted quadrature nodes, one per
    member row of u (one value for one field)."""
    values = div_m(u).nodal
    return np.ravel(np.max(np.abs(values[..., u.frame.trusted]), axis=-1)).tolist()


def envelope_update(envs: list[PositivityEnvelope], u: VectorField,
                    dt: float) -> list[PositivityEnvelope]:
    """Trapezoidal accumulation of the envelope integrals over one step,
    one envelope per member row of ``u``."""
    return [replace(env, accumulated=env.accumulated + 0.5 * dt * (env.last_sup + sup),
                    last_sup=sup)
            for env, sup in zip(envs, divm_sup(u))]


def envelope_check(lo: float, hi: float, env: PositivityEnvelope) -> bool:
    """True when the density range [lo, hi] respects the envelope up to ENVELOPE_TOL."""
    return lo >= env.lower - ENVELOPE_TOL and hi <= env.upper + ENVELOPE_TOL
