r"""Scalar functionals and inequality audits for the confined quantum flow.

Everything the dissipative structure of the system rests on is computed
here as a plain quadrature functional of the current state: the relative
energy and its dissipation, the Bresch-Desjardins (BD) entropy built on the
effective velocity :math:`u + 2\nu\nabla\ln q`, the Gaussian moments, the
mean position/velocity pair, and the functional-inequality margins
(logarithmic Sobolev, the Hessian-control lemma, the strong Poincare
family) that make the a-priori estimates close.

Entropic integrands are always assembled through square roots
(:math:`q|\nabla\ln q|^2 = |\nabla q|^2/q`, etc.) so that nothing
catastrophic happens near small densities, and densities below the
positivity floor raise instead of being clamped.

Sign conventions: every inequality is reported as a *margin*
(bound minus quantity), so margins should be non-negative up to round-off.
"""

from __future__ import annotations

import math
from dataclasses import make_dataclass

import numpy as np

from .calculus import (ModelParams, StateBundle, _bohm_from_bundle, _korteweg_from_bundle,
                       scalar_pow)
from .errors import InvalidParameterError
from .spectral import GaussianFrame, ScalarField, VectorField

__all__ = [
    "DiagnosticsRecord",
    "bd_entropy_regularized",
    "record",
    "i2_ode_residual",
    "check_log_sobolev",
    "lsi_margins",
    "check_hessian_lemma",
    "sample_margins",
    "energy_inequality_audit",
    "csv_header",
    "csv_row",
]


#: how far off unit mass a recorded state may be: the log-Sobolev margin of
#: every record raises beyond it, so the CLI refuses initial data beyond it
UNIT_MASS_TOL = 1e-6

#: Record field -> trajectory.csv header, in record order.  A header ending
#: in "_*" is a vector moment: a tuple, one column per axis ("*" the axis).
#: None is an audit-only integral: the regularized BD pair and the terms of
#: the second-moment equation.
_COLUMNS = {
    "t": "t", "mass": "mass", "e_reg": "E_reg", "d_reg": "D_reg", "e_bd": "E_BD",
    "d_bd": "D_BD", "d_bd_reg": None, "r_bd_reg": None, "i2": "I2", "i2_tilde": "I2_tilde",
    "i4": "I4", "mx": "Mx_*", "mu": "Mu_*", "min_q": "min_q", "max_q": "max_q",
    "lsi_margin": "lsi_margin", "hess_margin_mid": "hess_margin_mid",
    "hess_margin_final": "hess_margin_final", "poincare_q": "poincare_q",
    "poincare_korn_u": "poincare_korn_u", "ke2": None, "fisher": None, "cross_qu": None,
    "drag0_x": None, "drag1_x": None,
}

# Python < 3.12 has no module= argument, so the namespace names the module
DiagnosticsRecord = make_dataclass(
    "DiagnosticsRecord",
    [(name, tuple if (head or "").endswith("*") else float) for name, head in _COLUMNS.items()],
    frozen=True,
    namespace={"__module__": __name__,
               "__doc__": "All audited functionals of one state at one time."},
)


def _energy_from_bundle(b: StateBundle, params: ModelParams):
    """Relative energy and its dissipation.

    E collects kinetic, capillary-Fisher and entropic parts plus the quartic
    drag moment r4/4 I4; D the full dissipation including the
    delta1-weighted terms.  The balance also produces the non-negative
    remainder r4 d1 (d+2) I2 / sigma^2, which the dissipation absorbs up to
    the explicit linear-in-time allowance of :func:`energy_inequality_audit`.
    """
    sig2 = b.frame.sigma**2
    e_val = (
        0.5 * (b.ke + params.kappa**2 * b.fisher) + params.a * b.entropy
        + 0.25 * params.r4 * b.i4
    )
    d_val = (
        2.0 * params.nu * b.dsym2
        + params.delta1 * params.lam * sig2 * b.fisher
        + params.kappa**2 * params.delta1 * b.glog2
        + params.r0 * b.u2
        + params.r1 * b.cubic
        + params.r4 * params.delta1 / (4.0 * sig2) * b.i4
    )
    return e_val, d_val


def _bd_entropy_value(b: StateBundle, params: ModelParams) -> float:
    """BD entropy of the effective velocity u + 2 nu grad ln q.

    q |u + 2 nu grad ln q|^2 is expanded as q|u|^2 + 4 nu u.grad q +
    4 nu^2 |grad q|^2 / q so the polynomial pieces stay raw.  The entropy is
    non-negative because q - ln q >= 1 and every other term is a square.
    """
    nu = params.nu
    return (
        0.5 * (b.ke + 4.0 * nu * b.cross + (4.0 * nu**2 + params.kappa**2) * b.fisher)
        + params.a * b.entropy
        + 2.0 * nu * params.r0 * (b.mass - b.quad(b.mask * np.log(b.q_safe)))
        + 0.25 * params.r4 * b.i4
    )


def bd_entropy_regularized(q: ScalarField, u: VectorField, params: ModelParams):
    """Dissipation/remainder pair of the diffusion-regularized BD balance.

    With delta1 = 0 this reduces to the plain drag-system pair (D_BD, R_BD),
    whose D_BD :func:`record` reports.  The balance
    d/dt E_BD + D_BD_reg = R_BD_reg holds along exact trajectories, so its
    integrated residual is the BD audit quantity.
    """
    return _bd_balance(StateBundle(q, u), params, (params.delta1,))[0]


def _bd_balance(b: StateBundle, params: ModelParams, d1s):
    """(D_BD, R_BD) of the BD balance for each density diffusion in d1s.

    The integrals do not depend on the diffusion, so they are formed once.
    """
    sig2 = b.frame.sigma**2
    nu = params.nu
    # q D^2(ln q) without the sqrt weight; rational part masked
    qhlog = b.hq * b.mask - b.outer_q
    gradlog = b.quad(b.fisher_integrand * b.inv_q)  # |grad ln q|^2, unweighted
    dsym_qhlog = b.quad(np.einsum("...ikn,...ikn->...n", b.dsym, qhlog))
    du_gq_glog = b.quad(np.einsum("...ikn,...kn,...in->...n", b.du, b.gq, b.gq) * b.inv_q)
    s2_ugq = b.quad(b.s2 * b.u_gq)
    out = []
    for d1 in d1s:
        d_bd = (
            2.0 * nu * b.askew2
            + (d1 + 2.0 * nu) * params.lam * sig2 * b.fisher
            + (params.kappa**2 * (d1 + 2.0 * nu) + 4.0 * nu**2 * d1) * b.glog2
            + params.r0 * b.u2
            + 2.0 * nu * params.r0 * d1 * gradlog
            + params.r1 * b.cubic
            + params.r4 * (d1 + 2.0 * nu) / sig2 * b.i4
        )
        r_bd = (
            params.r4 * (d1 + 2.0 * nu) * (b.frame.dim + 2) / sig2 * b.i2
            - 2.0 * nu * d1 * dsym_qhlog
            - 2.0 * nu * d1 * du_gq_glog
            - 2.0 * nu * params.r1 * s2_ugq
            + 2.0 * nu / sig2 * (b.ke + (2.0 * nu - d1) * b.cross - 2.0 * nu * d1 * b.fisher)
        )
        out.append((d_bd, r_bd))
    return out


def check_log_sobolev(q: ScalarField) -> float:
    """Margin of the Gaussian logarithmic Sobolev inequality for q.

    Uses the constant 2 sigma^2, the one the exponential-tilt extremizers
    single out: margin = 2 sigma^2 int |grad sqrt(q)|^2 - int q ln q >= 0,
    with equality exactly on tilted Gaussians.
    """
    return lsi_margins(q)[0]


def lsi_margins(q: ScalarField):
    """(margin with constant 2 sigma^2, margin with constant 2 / sigma^2).

    Both are surfaced in verification reports; the first is the asserted
    one, the second is informational (the two coincide at sigma = 1).
    q must have unit mass to within 1e-8.
    """
    return _lsi_from_bundle(StateBundle(q), 1e-8)


def _lsi_from_bundle(b: StateBundle, mass_tol: float):
    mass = np.ravel(b.mass)
    off = np.flatnonzero(np.abs(mass - 1.0) > mass_tol)
    if off.size:  # the first state off unit mass
        raise InvalidParameterError(f"log-Sobolev check needs unit mass, got {mass[off[0]]:.12f}")
    dirichlet = 0.25 * b.fisher
    sig2 = b.frame.sigma**2
    return 2.0 * sig2 * dirichlet - b.entropy, (2.0 / sig2) * dirichlet - b.entropy


def check_hessian_lemma(q: ScalarField):
    """Hessian-control audit: (A, B, D, I4, margin_intermediate, margin_final).

    A is the squared Hessian of sqrt(q), B the quartic gradient of q^(1/4),
    D the weighted Hessian of ln sqrt(q); the two margins are

        D + sqrt(3 B D) + I4^(1/4) B^(3/4) / sigma - (A + B)        >= 0
        4 D + 3 I4 / (4 sigma^4)  - (A + B/2)                       >= 0
    """
    return _hessian_lemma_from_bundle(StateBundle(q))


def _hessian_lemma_from_bundle(b: StateBundle):
    frame = b.frame
    gq, inv_q, inv_sq = b.gq, b.inv_q, b.inv_sq[..., None, None, :]
    hess_sqrt = 0.5 * b.hq * inv_sq - 0.25 * b.outer_q * inv_sq
    a_val = b.quad(np.einsum("...ijn,...ijn->...n", hess_sqrt, hess_sqrt))
    grad2 = np.einsum("...in,...in->...n", gq, gq)
    b_val = b.quad(grad2**2 * inv_q**3 / 16.0)
    d_val = 0.25 * b.glog2
    i4 = b.i4
    margin_mid = (
        d_val
        + np.sqrt(3.0 * b_val * d_val)
        + scalar_pow(i4, 0.25) * scalar_pow(b_val, 0.75) / frame.sigma
        - (a_val + b_val)
    )
    margin_final = 4.0 * d_val + 0.75 * i4 / frame.sigma**4 - (a_val + 0.5 * b_val)
    return a_val, b_val, d_val, i4, margin_mid, margin_final


_ZERO_RATIO_TOL = 1e-13


def _ratio(lhs, rhs):
    """lhs / rhs per state, with a vanishing rhs giving 0 when lhs vanishes too and inf otherwise."""
    small = rhs < _ZERO_RATIO_TOL
    return np.where(small, np.where(lhs < _ZERO_RATIO_TOL, 0.0, math.inf),
                    lhs / np.where(small, 1.0, rhs))


def _poincare_ratio(frame: GaussianFrame, fn: np.ndarray, gf: np.ndarray):
    """Empirical strong-Poincare ratio |sqrt(1+|x|^2)(f - mean)| / |grad f|
    of nodal values ``fn`` with nodal gradient ``gf``."""
    w = frame.weights
    mean = np.vecdot(fn, w)
    lhs = np.sqrt(np.vecdot((1.0 + frame.radius_sq) * (fn - mean[..., None]) ** 2, w))
    return _ratio(lhs, np.sqrt(np.vecdot(np.einsum("...in,...in->...n", gf, gf), w)))


def _korn_ratio(frame: GaussianFrame, un: np.ndarray, dsym: np.ndarray):
    """Korn-type ratio with mean and infinitesimal rotation removed.

    |sqrt(1+|x|^2)(u - mean - Proj u)| / |D(u)| of nodal velocity ``un``
    with symmetric gradient ``dsym``; rigid rotations and constants give 0
    by convention (both sides vanish).
    """
    w = frame.weights
    centered = un - np.vecdot(un, w)[..., None]
    if frame.dim == 2:
        # remove the weighted L^2_mu projection onto the infinitesimal rotations
        rot = np.stack([-frame.nodes[:, 1], frame.nodes[:, 0]])
        num = np.vecdot(np.einsum("...in,in->...n", un, rot), w)
        den = frame.quad(np.einsum("in,in->n", rot, rot))
        centered = centered - (num / den)[..., None, None] * rot
    lhs = np.sqrt(
        np.vecdot((1.0 + frame.radius_sq) * np.einsum("...in,...in->...n", centered, centered), w)
    )
    return _ratio(lhs, np.sqrt(np.vecdot(np.einsum("...ijn,...ijn->...n", dsym, dsym), w)))


def sample_margins(b: StateBundle) -> dict:
    """One verify row: every inequality margin and stress-identity residual
    of the one state of bundle ``b``, whose q has unit mass to within 1e-8;
    its ``poincare_q`` is the strong-Poincare ratio of q, not of sqrt(q)."""
    lsi_main, lsi_alt = _lsi_from_bundle(b, 1e-8)
    _, _, _, _, hmid, hfin = _hessian_lemma_from_bundle(b)
    return {
        "lsi_margin": lsi_main,
        "lsi_margin_alt_constant": lsi_alt,
        "hess_margin_mid": hmid,
        "hess_margin_final": hfin,
        "poincare_q": float(_poincare_ratio(b.frame, b.qn, b.gq)),
        "poincare_korn_u": float(_korn_ratio(b.frame, b.un, b.dsym)),
        "korteweg_mismatch": _korteweg_from_bundle(b),
        "bohm_residual": _bohm_from_bundle(b),
    }


def record(b: StateBundle, times, params: ModelParams) -> list[DiagnosticsRecord]:
    """Full diagnostics of each state of a stacked bundle, at its time in ``times``.

    Every record equals, field for field and bit for bit, the record of its
    state alone.  The checks run over the whole stack: the bundle has
    checked positivity on construction, and a state more than
    ``UNIT_MASS_TOL`` off unit mass raises for the first such state.
    ``poincare_q`` is the strong-Poincare ratio of sqrt(q), with the
    gradient of sqrt(q)'s degree-N projection.
    """
    frame = b.frame
    e_reg, d_reg = _energy_from_bundle(b, params)
    (d_bd, _), (d_bd_reg, r_bd_reg) = _bd_balance(b, params, (0.0, params.delta1))
    _, _, _, _, hmid, hfin = _hessian_lemma_from_bundle(b)
    w = frame.weights
    x_dot_u = np.einsum("in,...in->...n", frame.nodes.T, b.un)
    trusted_q = b.qn[:, frame.trusted]
    columns = {
        "t": [float(t) for t in times],
        "mass": b.mass,
        "e_reg": e_reg,
        "d_reg": d_reg,
        "e_bd": _bd_entropy_value(b, params),
        "d_bd": d_bd,
        "d_bd_reg": d_bd_reg,
        "r_bd_reg": r_bd_reg,
        "i2": b.i2,
        "i2_tilde": b.i2 - frame.dim,
        "i4": b.i4,
        "mx": np.matmul(frame.nodes.T, (w * b.qn)[..., None])[..., 0],
        "mu": b.quad(b.qn[:, None, :] * b.un),
        "min_q": np.min(trusted_q, axis=-1),
        "max_q": np.max(trusted_q, axis=-1),
        "lsi_margin": _lsi_from_bundle(b, UNIT_MASS_TOL)[0],
        "hess_margin_mid": hmid,
        "hess_margin_final": hfin,
        "poincare_q": _poincare_ratio(
            frame, b.sqrt_q, frame.derivatives(frame.project_nodal(b.sqrt_q), 1)),
        "poincare_korn_u": _korn_ratio(frame, b.un, b.dsym),
        "ke2": b.ke,
        "fisher": b.fisher,
        "cross_qu": b.cross,
        "drag0_x": b.quad(x_dot_u),
        "drag1_x": b.quad(b.qn * b.s2 * x_dot_u),
    }
    # Python floats per state, a tuple of them for a vector moment
    arrays = [np.asarray(columns[name]) for name in _COLUMNS]
    values = [list(map(tuple, a.tolist())) if a.ndim == 2 else a.tolist() for a in arrays]
    return [DiagnosticsRecord(*row) for row in zip(*values)]


def _fd4(values: np.ndarray, dt: float):
    """Fourth-order central first and second differences on the interior."""
    f = values
    i = np.arange(2, len(f) - 2)
    d1 = (-f[i + 2] + 8.0 * f[i + 1] - 8.0 * f[i - 1] + f[i - 2]) / (12.0 * dt)
    d2 = (-f[i + 2] + 16.0 * f[i + 1] - 30.0 * f[i] + 16.0 * f[i - 1] - f[i - 2]) / (
        12.0 * dt**2
    )
    return i, d1, d2


def i2_ode_residual(records, params: ModelParams, sigma: float) -> float:
    """Residual of the damped-oscillator equation for the recentered second moment.

    The recentered moment obeys

        I2~'' + (2 nu / sigma^2) I2~' + 2 [lam + kappa^2/sigma^4] I2~
            = (2/sigma^2)[ int q|u|^2 + kappa^2 int q |grad ln q|^2 ]
              + (4 nu / sigma^2) int grad q . u
              - (2 r0/sigma^2) int u.x - (2 r1/sigma^2) int q|u|^2 u.x
              - (2 r4/sigma^2) I4,

    valid along trajectories of the drag system (delta1 = 0).  Time
    derivatives are formed with fourth-order central differences on a
    uniform sampling; the return value is the max residual over interior
    times.
    """
    if len(records) < 5:
        raise InvalidParameterError("need at least 5 uniformly spaced records")
    t = np.array([r.t for r in records])
    dts = np.diff(t)
    dt = dts[0]
    if np.max(np.abs(dts - dt)) > 1e-9 * max(dt, 1.0):
        raise InvalidParameterError("records must be uniformly spaced in time")
    sig2 = sigma**2
    i2t = np.array([r.i2_tilde for r in records])
    idx, d1, d2 = _fd4(i2t, dt)
    lhs = d2 + (2.0 * params.nu / sig2) * d1 + 2.0 * (params.lam + params.kappa**2 / sig2**2) * i2t[idx]
    ke2 = np.array([r.ke2 for r in records])[idx]
    fisher = np.array([r.fisher for r in records])[idx]
    cross = np.array([r.cross_qu for r in records])[idx]
    d0x = np.array([r.drag0_x for r in records])[idx]
    d1x = np.array([r.drag1_x for r in records])[idx]
    i4 = np.array([r.i4 for r in records])[idx]
    rhs = (
        (2.0 / sig2) * (ke2 + params.kappa**2 * fisher)
        + (4.0 * params.nu / sig2) * cross
        - (2.0 * params.r0 / sig2) * d0x
        - (2.0 * params.r1 / sig2) * d1x
        - (2.0 * params.r4 / sig2) * i4
    )
    return float(np.max(np.abs(lhs - rhs)))


def _cumtrapz(values: np.ndarray, t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(values)
    out[1:] = np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(t))
    return out


def energy_inequality_audit(records, params: ModelParams, sigma: float, dim: int) -> dict:
    """Worst violations of the integrated energy and BD balances.

    Energy:  E(t) + 1/2 int_0^t D  <=  E(0) + 2 r4 d1 (d+2)^2 / sigma^2 * t,
    the explicit form of the absorbed remainder.  BD: the integrated
    regularized balance E_BD(t) + int (D_BD_reg - R_BD_reg) = E_BD(0), whose
    positive-part residual measures pure discretization error.  Violations
    shrink like O(dt) under refinement.  ``sigma`` and ``dim`` are the
    frame's.
    """
    t = np.array([r.t for r in records])
    e = np.array([r.e_reg for r in records])
    d_vals = np.array([r.d_reg for r in records])
    allowance = 2.0 * params.r4 * params.delta1 * (dim + 2) ** 2 / sigma**2 * (t - t[0])
    lhs = e + 0.5 * _cumtrapz(d_vals, t)
    energy_violation = float(np.max(lhs - e[0] - allowance))

    e_bd = np.array([r.e_bd for r in records])
    net = np.array([r.d_bd_reg - r.r_bd_reg for r in records])
    bd_residual = e_bd + _cumtrapz(net, t) - e_bd[0]
    bd_violation = float(np.max(bd_residual))

    return {
        "energy_violation": max(energy_violation, 0.0),
        "bd_violation": max(bd_violation, 0.0),
        "mass_error": float(np.max(np.abs(np.array([r.mass for r in records]) - 1.0))),
        "ebd_min": float(np.min(e_bd)),
        "final_energy": float(e[-1]),
    }


def csv_header(dim: int) -> list[str]:
    """Fixed column order of one trajectory row."""
    cols = []
    for head in filter(None, _COLUMNS.values()):
        cols += [head.replace("*", str(i)) for i in range(dim)] if head.endswith("*") else [head]
    return cols


def csv_row(rec: DiagnosticsRecord) -> list[float]:
    vals = []
    for name, head in _COLUMNS.items():
        if head:
            value = getattr(rec, name)
            vals += value if isinstance(value, tuple) else [value]
    return vals
