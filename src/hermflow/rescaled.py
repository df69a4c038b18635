r"""Self-similar variables for the unconfined flow.

Without confinement the density spreads; the time-dependent dilation

.. math::

    \rho(t,x) = \tau(t)^{-d} R\big(t, x/\tau(t)\big), \qquad
    u(t,x) = \tau(t)^{-1} U\big(t, x/\tau(t)\big) + \frac{\dot\tau}{\tau}x,

absorbs the spreading when the dilation factor solves

.. math::

    \ddot\tau = \frac{a}{\tau} + \frac{\kappa^2}{\tau^3}
              - \frac{2\nu\,\dot\tau}{\tau^2},
    \qquad \tau(0) = 1,\ \dot\tau(0) = 0,

which grows like :math:`t\sqrt{2a\ln t}` and, at zero viscosity, conserves
:math:`\tfrac12\dot\tau^2 - a\ln\tau + \kappa^2/(2\tau^2)`.

In the new variables the system keeps its structure with coefficients
that depend on :math:`\tau`: transport, viscosity and capillarity carry
:math:`1/\tau^2` and the pressure coefficient becomes
:math:`a - 2\nu\dot\tau/\tau` (plus a :math:`\kappa^2/\tau^2` remnant once
the quantum stress is written weakly, see ``tau_coeffs``).  The reference
measure here is the unit Gaussian (sigma = 1), and each step is the
confined system's ``coupled_step`` with the coefficients frozen at the
midpoint dilation of the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import ModelParams, StateBundle, scalar_pow
from .driver import step_count
from .errors import InvalidParameterError, StepFailureError
from .galerkin import SimState, coupled_step, step_coefficients
from .spectral import ScalarField, VectorField

__all__ = [
    "TauState",
    "tau_rhs",
    "tau_energy",
    "tau_solve",
    "tau_coeffs",
    "require_unregularized",
    "rescaled_step",
    "rescaled_balance",
    "rescaled_energy",
    "rescaled_bd_remainder",
    "combined_identity_residual",
]


@dataclass(frozen=True)
class TauState:
    """Dilation factor, its rate and the time they belong to."""

    tau: float
    tau_dot: float
    t: float


def tau_rhs(tau: float, tau_dot: float, a: float, kappa: float, nu: float) -> float:
    return a / tau + kappa**2 / tau**3 - 2.0 * nu * tau_dot / tau**2


def tau_energy(state: TauState, a: float, kappa: float) -> float:
    """Quantity conserved by the dilation at zero viscosity."""
    return 0.5 * state.tau_dot**2 - a * math.log(state.tau) + 0.5 * kappa**2 / state.tau**2


def tau_solve(a: float, kappa: float, nu: float, t_final: float, dt: float,
              store_every: int = 1) -> list[TauState]:
    """Classical fourth-order Runge-Kutta on (tau, tau_dot) from (1, 0).

    ``t_final`` must be a whole number of steps ``dt``.  A stage that
    overflows or divides by a zero dilation is a step failure."""
    n_steps = step_count(dt, t_final)
    tau, p, t = 1.0, 0.0, 0.0
    out = [TauState(tau, p, t)]
    for step in range(n_steps):
        t = (step + 1) * dt
        try:
            k1t, k1p = p, tau_rhs(tau, p, a, kappa, nu)
            k2t, k2p = p + 0.5 * dt * k1p, tau_rhs(tau + 0.5 * dt * k1t, p + 0.5 * dt * k1p, a, kappa, nu)
            k3t, k3p = p + 0.5 * dt * k2p, tau_rhs(tau + 0.5 * dt * k2t, p + 0.5 * dt * k2p, a, kappa, nu)
            k4t, k4p = p + dt * k3p, tau_rhs(tau + dt * k3t, p + dt * k3p, a, kappa, nu)
        except (OverflowError, ZeroDivisionError) as exc:
            raise StepFailureError(f"dilation equation overflowed in the step to t={t:.6g}") from exc
        tau += dt / 6.0 * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
        p += dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        if tau <= 0.0:
            raise StepFailureError(f"dilation factor became non-positive at t={t:.6g}")
        if (step + 1) % store_every == 0 or step + 1 == n_steps:
            out.append(TauState(tau, p, t))
    return out


def tau_coeffs(params: ModelParams, tau_state: TauState) -> dict:
    """The dilated step's coefficient table: the confined one on the unit frame
    (:func:`~hermflow.galerkin.step_coefficients`) with nu, kappa^2, the
    pressure and the transport taken at the dilation."""
    # Writing the quantum stress weakly against D(phi) on the unit frame
    # leaves a kappa^2/tau^2 pressure remnant, the analogue of the
    # kappa^2/sigma^2 share inside lam*sigma^2 for the confined system.
    tau, tau_dot = tau_state.tau, tau_state.tau_dot
    return {
        **step_coefficients(params, 1.0),
        "nu": params.nu / tau**2,
        "kappa_sq": params.kappa**2 / tau**2,
        "pressure": params.a - 2.0 * params.nu * tau_dot / tau + params.kappa**2 / tau**2,
        "transport": 1.0 / tau**2,
    }


def require_unregularized(params: ModelParams) -> None:
    """The drag and diffusion regularizations are not part of the dilated system."""
    if params.regularized:
        raise InvalidParameterError("rescaled stepping requires r0 = r1 = r4 = delta1 = 0")


def rescaled_step(q: ScalarField, u: VectorField, tau_mid: TauState,
                  params: ModelParams, dt: float):
    """One joint step of the dilated system with coefficients frozen at tau_mid.

    The drag and diffusion regularizations must be zero here
    (:func:`require_unregularized`).
    """
    require_unregularized(params)
    state = coupled_step(SimState(q, u, tau_mid.t), params, dt, tau_coeffs(params, tau_mid))
    return state.q, state.u


def rescaled_balance(b: StateBundle, tau, tau_dot, params: ModelParams):
    r"""(E, D, E_BD, D_BD, R) of the dilated system at the state of bundle b.

    ``tau`` and ``tau_dot`` are the dilation and its rate at that state:
    floats for a one-state bundle, one entry per state for a stacked one.

    The effective velocity W = U + 2 nu grad(ln Q) carries the entropy.  The
    effective-velocity equation picks up a source :math:`(2\nu/\tau^2)\,QU`
    from the Gaussian twist of the transport term (the analogue of the
    :math:`2\nu/\sigma^2` share in the confined system's entropy
    remainder), so the exact summed balance reads

    .. math::

        \frac{\rm d}{{\rm d}t}(E + E_{\rm BD}) + D + D_{\rm BD}
            = R = \frac{2\nu}{\tau^4}\int Q\,U\cdot(U + 2\nu\nabla\ln Q)\,
              {\rm d}\mu_m;

    :func:`combined_identity_residual` audits it with or without R.
    """
    tau2, tau3, tau4 = (scalar_pow(tau, p) for p in (2, 3, 4))
    nu, kappa_sq = params.nu, params.kappa**2
    kinetic_block = b.ke + kappa_sq * b.fisher
    # q|W|^2 with W = U + 2 nu grad(ln Q), expanded to keep polynomials raw
    ke_w = b.ke + 4.0 * nu * b.cross + 4.0 * nu**2 * b.fisher

    e_val = 0.5 / tau2 * kinetic_block + params.a * b.entropy
    d_val = tau_dot / tau3 * kinetic_block + 2.0 * nu / tau4 * b.dsym2
    e_bd = 0.5 / tau2 * (ke_w + kappa_sq * b.fisher) + params.a * b.entropy
    d_bd = (
        tau_dot / tau3 * kinetic_block
        + 2.0 * nu / tau4 * b.askew2
        + 2.0 * nu * kappa_sq / tau4 * b.glog2
        + 2.0 * nu * (params.a / tau2 + kappa_sq / tau4) * b.fisher
    )
    remainder = 2.0 * nu / tau4 * (b.ke + 2.0 * nu * b.cross)
    return e_val, d_val, e_bd, d_bd, remainder


def rescaled_energy(q: ScalarField, u: VectorField, tau_state: TauState,
                    params: ModelParams):
    """(E, D, E_BD, D_BD) of :func:`rescaled_balance` at (q, u)."""
    return rescaled_balance(StateBundle(q, u), tau_state.tau, tau_state.tau_dot, params)[:4]


def rescaled_bd_remainder(q: ScalarField, u: VectorField, tau_state: TauState,
                          params: ModelParams) -> float:
    """Twist remainder R of :func:`rescaled_balance` at (q, u)."""
    return rescaled_balance(StateBundle(q, u), tau_state.tau, tau_state.tau_dot, params)[4]


def combined_identity_residual(energies, dt: float, remainders=None) -> float:
    """Max interior residual of d/dt(E + E_BD) + D + D_BD on a uniform grid.

    ``energies`` is a sequence of (E, D, E_BD, D_BD) tuples sampled every
    dt; centered differences approximate the derivative.  When
    ``remainders`` (from :func:`rescaled_bd_remainder`) is supplied, the
    residual is measured against the exact balance and shrinks with dt;
    without it the twist remainder itself is reported.
    """
    if len(energies) < 3:
        raise InvalidParameterError("need at least 3 samples")
    arr = np.asarray(energies, dtype=float)
    total = arr[:, 0] + arr[:, 2]
    diss = arr[:, 1] + arr[:, 3]
    ddt = (total[2:] - total[:-2]) / (2.0 * dt)
    resid = ddt + diss[1:-1]
    if remainders is not None:
        resid = resid - np.asarray(remainders, dtype=float)[1:-1]
    return float(np.max(np.abs(resid)))
