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

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .calculus import ModelParams, StateBundle, require_positive
from .errors import (
    SOLVER_FAILURES,
    InternalConsistencyError,
    InvalidParameterError,
    PositivityError,
    StepFailureError,
)
from .fokker_planck import fp_step
from .spectral import GaussianFrame, ScalarField, VectorField, _row_norms

__all__ = [
    "SimState",
    "MassOperator",
    "assemble_mass",
    "project_initial_velocity",
    "step_coefficients",
    "momentum_rhs",
    "coupled_step",
    "make_initial_state",
    "stack_states",
    "member_states",
]

#: velocity fixed point: coefficient-norm increment that ends the sweeps,
#: and the sweeps allowed before the step is reported as a failure
PICARD_TOL = 1e-10
MAX_SWEEPS = 25


@dataclass(frozen=True)
class SimState:
    """Relative density, velocity and time: of one state, or of a stack of
    states at one time whose fields carry a leading member axis
    (:func:`stack_states`).

    ``momentum`` holds the (dim, n_basis) coefficients of int q u.phi of this
    exact (q, u), one row per member of a stack, set by the step that
    produced the state so the next step need not assemble the mass
    operator of q again.  A state built by hand, or by
    ``dataclasses.replace`` of ``q`` or ``u``, must leave it ``None``.
    """

    q: ScalarField
    u: VectorField
    t: float = 0.0
    momentum: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def frame(self) -> GaussianFrame:
        return self.q.frame

    @property
    def stacked(self) -> bool:
        return self.q.coeffs.ndim > 1


def make_initial_state(q0: ScalarField, u0: VectorField) -> SimState:
    return SimState(q0, u0)


def stack_states(states) -> SimState:
    """One state of a sequence of states at one time: the only state itself,
    or their stack."""
    if len(states) == 1:
        return states[0]
    momenta = [s.momentum for s in states]
    return SimState(ScalarField.stack([s.q for s in states]),
                    VectorField.stack([s.u for s in states]), states[0].t,
                    None if any(m is None for m in momenta) else np.stack(momenta))


def member_states(state: SimState) -> list[SimState]:
    """The states of a stack, or [state] for one state."""
    if not state.stacked:
        return [state]
    momentum = state.momentum
    return [SimState(state.q.take(i), state.u.take(i), state.t,
                     None if momentum is None else momentum[i])
            for i in range(state.q.coeffs.shape[0])]


class MassOperator:
    """Density-weighted Gram matrix of the scalar basis, one per member of a stack.

    The full velocity-space operator is block diagonal with this same block
    for every component, so only one (n_basis x n_basis) matrix is stored
    per state.  Every caller solves an operator once, so its lower Cholesky
    factor is formed by LAPACK inside :meth:`solve` and not kept; ``matrix``
    itself stays intact for the momentum of the step's state.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve per velocity component; rhs has shape (dim, n_basis), with
        the leading member axis of a stacked operator.

        A non-finite matrix or right-hand side means the step blew up; a
        matrix that is not positive definite means the density is
        under-resolved at the tails.  Each member is factored and solved by
        LAPACK on its own, and a failing member raises the error it raises
        alone, naming the member.
        """
        matrix, rhs = self.matrix, np.asarray(rhs)
        finite = np.isfinite(matrix).all(axis=(-2, -1))
        if not finite.all():
            raise StepFailureError("mass operator has non-finite entries; reduce dt",
                                   member=int(np.argmin(finite)))
        if matrix.ndim == 2:
            return _cholesky_solve(matrix, rhs)
        return np.stack([_cholesky_solve(m, r, i) for i, (m, r) in enumerate(zip(matrix, rhs))])


def _cholesky_solve(matrix: np.ndarray, rhs: np.ndarray, member: int = 0) -> np.ndarray:
    """One member's solve by LAPACK (the calls cho_factor and cho_solve make)."""
    factor, info = dpotrf(matrix, lower=1, clean=0)
    if info > 0:
        raise PositivityError(
            "mass operator not positive definite; the density is "
            f"under-resolved at the tails ({info}-th leading minor "
            "of the array is not positive definite)", member=member)
    if not np.isfinite(rhs).all():
        raise StepFailureError("momentum right-hand side has non-finite entries; reduce dt",
                               member=member)
    x, _ = dpotrs(factor, rhs.T, lower=1)
    return x.T


def assemble_mass(q: ScalarField) -> MassOperator:
    """Gram matrix of the basis weighted by q, by plain (exact) quadrature,
    one per member of a stacked q.

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
    rhs = frame._synthesize_adjoint(frame.weights * q0.nodal * u0_nodal)
    return VectorField(frame, coeffs=mass.solve(rhs))


def step_coefficients(params, sigma: float) -> dict:
    """The confined step's coefficient table on a frame of scale sigma:
    transport (1.0), nu, kappa^2, lam sigma^2, r0, r1, delta1, r4 / sigma^4
    as floats for one ModelParams, or for a sequence as (members, 1) columns
    that meet a stack's (members, n) arrays row by row, with transport one
    float; and one ``regularized`` flag, set when any member is."""
    sig2 = sigma**2
    members = [params] if isinstance(params, ModelParams) else params
    rows = [(p.nu, p.kappa**2, p.lam * sig2, p.r0, p.r1, p.delta1, p.r4 / sig2**2)
            for p in members]
    values = rows[0] if isinstance(params, ModelParams) else np.array(rows).T[:, :, None]
    return {"transport": 1.0,
            **dict(zip(("nu", "kappa_sq", "pressure", "r0", "r1", "delta1", "r4"), values)),
            "regularized": any(p.regularized for p in members)}


def momentum_rhs(q: ScalarField, u: VectorField, coeffs: dict) -> np.ndarray:
    """Weak-form force vector, shape (dim, n_basis), with the coefficients of
    the table ``coeffs`` (:func:`step_coefficients`, or
    :func:`~hermflow.rescaled.tau_coeffs` for the dilated system).

    Collects, tested against each basis field phi:

    * viscosity        -2 nu int q D(u):D(phi)
    * linear drag      -r0  int u . phi
    * transport        +transport int q u.(grad phi) u
    * diffusion        -d1  int (grad u)(grad q) . phi
    * cubic drag       -r1  int q |u|^2 u . phi
    * capillarity      -2 kappa_sq int [sqrt(q)D^2 sqrt(q) - grad sqrt(q) x grad sqrt(q)] : D(phi)
    * pressure         -pressure int grad q . phi
    * confinement drag -r4 int q |x|^2 x . phi

    The drag and diffusion terms, and the dealiased |u|^2 the cubic drag
    needs, are formed only when the table is ``regularized``; otherwise the
    point force is the pressure alone.

    ``q`` and ``u`` may be stacks of members, with the table's coefficients
    floats or (members, 1) columns; the forces then carry the member axis,
    and each member's equal, bit for bit, its forces alone.
    """
    frame = q.frame
    pressure, r0, r1, delta1, r4 = (coeffs[k] for k in ("pressure", "r0", "r1", "delta1", "r4"))
    b = StateBundle(q, u)
    qn, un, gq = b.qn, b.un, b.gq
    w = frame.weights
    x = frame.nodes.T
    rsq = frame.radius_sq
    # the products every stress component starts from (a unit transport
    # coefficient leaves q as it is, bit for bit)
    transport_q = qn if coeffs["transport"] == 1.0 else coeffs["transport"] * qn
    viscous_q = 2.0 * coeffs["nu"] * qn
    capillary = 2.0 * coeffs["kappa_sq"]

    out = np.empty(un.shape[:-1] + (frame.n_basis,))
    for i in range(frame.dim):
        u_i = un[..., i, :]
        if coeffs["regularized"]:
            point = (
                -r0 * u_i
                - delta1 * np.einsum("...kn,...kn->...n", b.du[..., i, :, :], gq)
                - r1 * qn * b.s2 * u_i
                - pressure * gq[..., i, :]
                - r4 * qn * rsq * x[i]
            )
        else:
            point = -pressure * gq[..., i, :]
        vec = frame._synthesize_adjoint(w * point)
        for k in range(frame.dim):
            grad_part = (
                transport_q * u_i * un[..., k, :]
                - viscous_q * b.dsym[..., i, k, :]
                - capillary * b.stress[..., i, k, :]
            )
            vec += frame._synthesize_adjoint(w * grad_part, (k,))
        out[..., i, :] = vec
    return out


def coupled_step(state: SimState, params, dt: float,
                 coeffs: dict | None = None) -> SimState:
    """Advance density and velocity together by one joint fixed point.

    Density update and midpoint force assembly repeat until the velocity
    iterates settle below ``PICARD_TOL`` in the coefficient norm; the update
    discretizes d/dt(M[q]u) directly, starting from the momentum M[q]u of
    the previous state.  The new state carries its own momentum, which the
    following step starts from.

    ``state`` is one state or a stack (:func:`stack_states`), and
    ``params`` one ModelParams or one per member; one state runs the same
    sweeps without the member axis.  The members sweep together, one numpy
    operation per stacked quantity; each member stops at the sweep where
    its own increment settles and is not swept again, so every member's
    new state equals, bit for bit, its step alone.  A failing member raises
    the error it raises alone, with ``member`` naming it.

    The step reads one coefficient table, formed once: ``coeffs`` (the
    dilated :func:`~hermflow.rescaled.tau_coeffs`) or, without it,
    :func:`step_coefficients` of ``params``.  Its ``transport`` also scales
    the velocity that advects the density, and its ``delta1`` diffuses it.
    """
    if dt <= 0.0:
        raise InvalidParameterError(f"dt must be positive, got {dt}")
    frame = state.frame
    if not state.stacked and not isinstance(params, ModelParams):
        (params,) = params
    coeffs = coeffs or step_coefficients(params, frame.sigma)
    q_start, u_prev = state.q, state.u
    momentum_prev = state.momentum
    q_prev, c_prev = q_start, u_prev.coeffs
    if momentum_prev is None:
        momentum_prev = np.matmul(c_prev, assemble_mass(q_prev).matrix.mT)
    advection = 0.5 * coeffs["transport"]

    # the velocity iterates are coefficient arrays; fields are built only for
    # the density step and the force assembly.  ``active`` lists the members
    # still swept once one has settled; until then every array is the full
    # stack, and no member is gathered or copied.
    active = None
    settled = None  # the settled members' (q coeffs, q nodal, u coeffs, mass matrix)
    c_iter = c_prev
    try:
        for _ in range(MAX_SWEEPS):
            if c_iter is c_prev and u_prev._synthesized:
                # first sweep: the average of u_prev with itself is u_prev, bit for bit
                u_mid = u_prev
            else:
                u_mid = VectorField(frame, coeffs=0.5 * (c_prev + c_iter))
            u_adv = (u_mid if advection == 0.5
                     else VectorField(frame, coeffs=advection * (c_prev + c_iter)))
            q_new = fp_step(q_prev, u_adv, coeffs["delta1"], dt)
            q_mid = ScalarField(frame, coeffs=0.5 * (q_prev.coeffs + q_new.coeffs))
            force = momentum_rhs(q_mid, u_mid, coeffs)
            mass_new = assemble_mass(q_new)
            c_next = mass_new.solve(momentum_prev + dt * force)
            delta = c_next - c_iter
            # one flat row per member (a flat vector for one state)
            rows = delta.reshape(delta.shape[:-2] + (-1,))
            done = [diff < PICARD_TOL for diff in _row_norms(rows)]
            if active is None and all(done):
                break
            if any(done):
                # set the settled members' results aside in full-stack arrays
                done = np.array(done)
                members = np.arange(len(done)) if active is None else active
                results = (q_new.coeffs, q_new.nodal, c_next, mass_new.matrix)
                if settled is None:
                    settled = [np.empty((len(q_start.coeffs),) + a.shape[1:]) for a in results]
                for out, a in zip(settled, results):
                    out[members[done]] = a[done]
                if done.all():
                    break
                keep = np.flatnonzero(~done)
                active = members[keep]
                q_prev, c_prev = q_prev.take(keep), c_prev[keep]
                momentum_prev = momentum_prev[keep]
                coeffs = {k: v[keep] if isinstance(v, np.ndarray) else v for k, v in coeffs.items()}
                c_next = c_next[keep]
            c_iter = c_next
        else:
            raise StepFailureError(
                f"velocity fixed point did not settle below {PICARD_TOL:.1e} "
                f"in {MAX_SWEEPS} sweeps at t={state.t:.6g}; reduce dt")
    except SOLVER_FAILURES as exc:
        if active is not None:  # name the member's place in the stack given
            exc.member = int(active[exc.member])
        raise

    if settled is None:
        c_new, matrix = c_next, mass_new.matrix
    else:
        qc, qn, c_new, matrix = settled
        q_new = ScalarField._formed(frame, qc, qn, synthesized=True)
    masses = zip(*(np.ravel(f.coeffs[..., 0]).tolist() for f in (q_start, q_new)))
    for i, (old, new) in enumerate(masses):
        drift = abs(new - old)
        if drift > 1e-10:
            raise InternalConsistencyError(f"mass drifted by {drift:.3e} over one step", member=i)
    return SimState(q_new, VectorField(frame, coeffs=c_new), state.t + dt,
                    np.matmul(c_new, matrix.mT))
