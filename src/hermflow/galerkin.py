r"""Finite-dimensional momentum dynamics coupled to the density update.

The velocity lives in the product Hermite space spanned by the basis fields
:math:`\Phi_\beta e_i`.  Tested against those fields, the momentum balance
becomes the differential equation

.. math::

    \frac{\rm d}{{\rm d}t}\big(\mathfrak{M}[q]\,u\big)
        = \mathcal{A}[q]u + \mathcal{N}[q, u]u + \mathcal{B}[q],

where the mass operator :math:`\langle\mathfrak{M}[q]v, w\rangle = \int q\,
v\cdot w\,{\rm d}\mu_m` is symmetric positive-definite whenever q is bounded
below, and the right-hand side collects viscosity, drag, transport,
diffusion coupling, capillarity, pressure and the quartic confinement drag
in weak form (the capillarity stress only ever meets first derivatives of
the test fields).

One time step solves the density equation and the mass-matrix update as a
joint fixed point: the density is advanced with the current velocity
iterate, the forces are assembled at the midpoint state, and the velocity
solve repeats until successive iterates agree to ``PICARD_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .calculus import ModelParams, StateBundle, require_positive
from .errors import (
    InternalConsistencyError,
    InvalidParameterError,
    PositivityError,
    StepFailureError,
)
from .fokker_planck import fp_step
from .spectral import GaussianFrame, ScalarField, VectorField

__all__ = [
    "SimState",
    "MassOperator",
    "assemble_mass",
    "project_initial_velocity",
    "momentum_rhs",
    "coupled_step",
    "make_initial_state",
]

#: velocity fixed point: coefficient-norm increment that ends the sweeps,
#: and the sweeps allowed before the step is reported as a failure
PICARD_TOL = 1e-10
MAX_SWEEPS = 25


@dataclass(frozen=True)
class SimState:
    """Relative density, velocity and time.

    ``momentum`` holds the (dim, n_basis) coefficients of int q u.phi of this
    exact (q, u), set by the step that produced the state so the next step
    need not assemble the mass operator of q again.  A state built by hand,
    or by ``dataclasses.replace`` of ``q`` or ``u``, must leave it ``None``.
    """

    q: ScalarField
    u: VectorField
    t: float = 0.0
    momentum: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def frame(self) -> GaussianFrame:
        return self.q.frame


def make_initial_state(q0: ScalarField, u0: VectorField) -> SimState:
    return SimState(q0, u0)


class MassOperator:
    """Density-weighted Gram matrix of the scalar basis.

    The full velocity-space operator is block diagonal with this same block
    for every component, so only one (n_basis x n_basis) matrix is stored.
    Its lower Cholesky factor is formed by LAPACK on the first solve and
    kept; ``matrix`` itself stays intact for the momentum of the step's state.
    """

    __slots__ = ("matrix", "_factor")

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self._factor = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve per velocity component; rhs has shape (dim, n_basis).

        A non-finite matrix or right-hand side means the step blew up; a
        matrix that is not positive definite means the density is
        under-resolved at the tails.
        """
        if self._factor is None:
            if not np.isfinite(self.matrix).all():
                raise StepFailureError("mass operator has non-finite entries; reduce dt")
            factor, info = dpotrf(self.matrix, lower=1, clean=0)
            if info > 0:
                raise PositivityError(
                    "mass operator not positive definite; the density is "
                    f"under-resolved at the tails ({info}-th leading minor "
                    "of the array is not positive definite)"
                )
            self._factor = factor
        rhs = np.asarray(rhs)
        if not np.isfinite(rhs).all():
            raise StepFailureError("momentum right-hand side has non-finite entries; reduce dt")
        x, _ = dpotrs(self._factor, rhs.T, lower=1)
        return x.T


def assemble_mass(q: ScalarField) -> MassOperator:
    """Gram matrix of the basis weighted by q, by plain (exact) quadrature.

    Positive definite whenever q stays positive at the quadrature nodes;
    the top basis modes carry most of their weighted mass near their
    turning points, so a density whose tail is not resolved down there can
    make the operator lose positivity.  That failure surfaces loudly at
    solve time as a positivity error rather than being patched silently.
    The Gram kernel returns an exactly symmetric matrix in both dimensions.
    """
    frame = q.frame
    return MassOperator(frame._weighted_gram(frame.weights * q.nodal))


def project_initial_velocity(q0: ScalarField, u0_nodal: np.ndarray) -> VectorField:
    """q0-weighted projection of a velocity onto the spectral space.

    Solves int q0 uN.w dmu = int q0 u0.w dmu against every basis field.  The
    projection never increases the q0-weighted kinetic energy.
    """
    frame = q0.frame
    u0_nodal = np.asarray(u0_nodal, dtype=float).reshape(frame.dim, frame.n_nodes)
    require_positive(q0)
    mass = assemble_mass(q0)
    wq = frame.weights * q0.nodal
    rhs = np.stack([frame._synthesize_adjoint(wq * u0_nodal[i]) for i in range(frame.dim)])
    return VectorField(frame, coeffs=mass.solve(rhs))


def momentum_rhs(q: ScalarField, u: VectorField, params: ModelParams, *,
                 pressure_coef: float | None = None,
                 transport_coef: float = 1.0,
                 nu: float | None = None,
                 kappa_sq: float | None = None) -> np.ndarray:
    """Weak-form force vector, shape (dim, n_basis).

    Collects, tested against each basis field phi:

    * viscosity        -2 nu int q D(u):D(phi)
    * linear drag      -r0  int u . phi
    * transport        +    int q u.(grad phi) u
    * diffusion        -d1  int (grad u)(grad q) . phi
    * cubic drag       -r1  int q |u|^2 u . phi
    * capillarity      -2 kappa^2 int [sqrt(q)D^2 sqrt(q) - grad sqrt(q) x grad sqrt(q)] : D(phi)
    * pressure         -lam sigma^2 int grad q . phi
    * confinement drag -(r4/sigma^4) int q |x|^2 x . phi

    The drag and diffusion terms, and the dealiased |u|^2 the cubic drag
    needs, are formed only when ``params.regularized``; otherwise the point
    force is the pressure alone.  The keyword overrides let a rescaled
    system reuse the assembly with time-dependent coefficients.
    """
    frame = q.frame
    d = frame.dim
    sig2 = frame.sigma**2
    nu = params.nu if nu is None else nu
    kappa_sq = params.kappa**2 if kappa_sq is None else kappa_sq
    pressure = params.lam * sig2 if pressure_coef is None else pressure_coef

    b = StateBundle(q, u)
    qn, un, du, gq = b.qn, b.un, b.du, b.gq
    w = frame.weights
    x = frame.nodes.T
    rsq = frame.radius_sq
    regularized = params.regularized

    out = np.empty((d, frame.n_basis))
    for i in range(d):
        if regularized:
            point = (
                -params.r0 * un[i]
                - params.delta1 * np.einsum("kn,kn->n", du[i], gq)
                - params.r1 * qn * b.s2 * un[i]
                - pressure * gq[i]
                - (params.r4 / sig2**2) * qn * rsq * x[i]
            )
        else:
            point = -pressure * gq[i]
        vec = frame._synthesize_adjoint(w * point)
        for k in range(d):
            grad_part = (
                transport_coef * qn * un[i] * un[k]
                - 2.0 * nu * qn * b.dsym[i, k]
                - 2.0 * kappa_sq * b.stress[i, k]
            )
            vec += frame._synthesize_adjoint(w * grad_part, (k,))
        out[i] = vec
    return out


def coupled_step(state: SimState, params: ModelParams, dt: float,
                 coeffs: dict | None = None) -> SimState:
    """Advance density and velocity together by one joint fixed point.

    Density update and midpoint force assembly repeat until the velocity
    iterates settle below ``PICARD_TOL`` in the coefficient norm; the update
    discretizes d/dt(M[q]u) directly, starting from the momentum M[q]u of
    the previous state.  The new state carries its own momentum, which the
    following step starts from.

    ``coeffs`` overrides the :func:`momentum_rhs` coefficients (none for the
    confined system); its ``transport_coef`` also scales the velocity that
    advects the density.
    """
    if dt <= 0.0:
        raise InvalidParameterError(f"dt must be positive, got {dt}")
    coeffs = coeffs or {}
    frame = state.frame
    q_prev, u_prev = state.q, state.u
    c_prev = u_prev.coeffs
    momentum_prev = state.momentum
    if momentum_prev is None:
        momentum_prev = c_prev @ assemble_mass(q_prev).matrix.T
    advection = 0.5 * coeffs.get("transport_coef", 1.0)

    # the velocity iterate is a coefficient array; fields are built only for
    # the density step and the force assembly
    c_iter = c_prev
    for _ in range(MAX_SWEEPS):
        if c_iter is c_prev and u_prev._synthesized:
            # first sweep: the average of u_prev with itself is u_prev, bit for bit
            u_mid = u_prev
        else:
            u_mid = VectorField(frame, coeffs=0.5 * (c_prev + c_iter))
        u_adv = (u_mid if advection == 0.5
                 else VectorField(frame, coeffs=advection * (c_prev + c_iter)))
        q_new = fp_step(q_prev, u_adv, params.delta1, dt)
        q_mid = ScalarField(frame, coeffs=0.5 * (q_prev.coeffs + q_new.coeffs))
        force = momentum_rhs(q_mid, u_mid, params, **coeffs)
        mass_new = assemble_mass(q_new)
        c_next = mass_new.solve(momentum_prev + dt * force)
        delta = (c_next - c_iter).ravel()
        diff = math.sqrt(delta @ delta)
        c_iter = c_next
        if diff < PICARD_TOL:
            break
    else:
        raise StepFailureError(
            f"velocity fixed point did not settle below {PICARD_TOL:.1e} "
            f"in {MAX_SWEEPS} sweeps at t={state.t:.6g}; reduce dt"
        )

    drift = abs(float(q_new.coeffs[0]) - float(q_prev.coeffs[0]))
    if drift > 1e-10:
        raise InternalConsistencyError(f"mass drifted by {drift:.3e} over one step")
    return SimState(q_new, VectorField(frame, coeffs=c_iter), state.t + dt,
                    c_iter @ mass_new.matrix.T)
