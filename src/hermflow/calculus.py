r"""Twisted differential calculus with respect to the Gaussian reference measure.

The change of measure turns the flat-space operators into their twisted
counterparts

.. math::

    {\rm div}_m(v) = {\rm div}(v) - \frac{x}{\sigma^2}\cdot v, \qquad
    \Delta_m q = {\rm div}_m(\nabla q),

which absorb the harmonic confinement and satisfy the integration-by-parts
formulae

.. math::

    \int \nabla q\cdot v\,{\rm d}\mu_m = -\int q\,{\rm div}_m(v)\,{\rm d}\mu_m,
    \qquad
    \int {\rm div}_m(D(v))\cdot w\,{\rm d}\mu_m = -\int {\rm tr}(D(v)D(w))\,{\rm d}\mu_m.

Square-root and capillarity quantities of a strictly positive relative
density q are computed nodally from exact spectral derivatives of q, using

.. math::

    \sqrt{q}\,D^2\sqrt{q} - \nabla\sqrt{q}\otimes\nabla\sqrt{q}
        = \tfrac12 D^2 q - \frac{\nabla q\otimes\nabla q}{2q},
    \qquad
    \sqrt{q}\,D^2(\ln q) = \frac{D^2 q}{\sqrt q} - \frac{\nabla q\otimes\nabla q}{q^{3/2}},

so no logarithm or square root is ever differentiated where q is tiny.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import InvalidParameterError, PositivityError
from .spectral import ScalarField, VectorField, _matvec, transform

__all__ = [
    "ModelParams",
    "POSITIVITY_FLOOR",
    "StateBundle",
    "div_m",
    "korteweg_consistency",
    "bohm_residual",
    "gradient_nodal",
    "hessian_nodal",
    "require_positive",
    "scalar_pow",
]

#: floor for ln / sqrt / division on relative densities
POSITIVITY_FLOOR = 1e-10

_REGULARIZERS = ("r0", "r1", "r4", "delta1")
_regularizers = attrgetter(*_REGULARIZERS)


@dataclass(frozen=True)
class ModelParams:
    """Physical coefficients and regularization knobs.

    a: pressure; kappa: capillarity; nu: viscosity; lam: confinement strength.
    r0, r1, r4 are the linear, cubic and quartic-confinement drag
    coefficients; delta1 is the density-diffusion regularization.  All four
    regularizing parameters live in [0, 1].
    """

    a: float
    kappa: float
    nu: float
    lam: float
    r0: float = 0.0
    r1: float = 0.0
    r4: float = 0.0
    delta1: float = 0.0

    def __post_init__(self):
        if self.a <= 0.0 or self.nu <= 0.0 or self.lam <= 0.0:
            raise InvalidParameterError(
                f"a, nu, lam must be strictly positive, got ({self.a}, {self.nu}, {self.lam})"
            )
        if self.kappa < 0.0:
            raise InvalidParameterError(f"kappa must be non-negative, got {self.kappa}")
        for name in ("a", "kappa", "nu", "lam"):
            val = getattr(self, name)
            # the balances square them (nu**2 overflows from about 1.4e154 up)
            if not math.isfinite(val * val):
                raise InvalidParameterError(f"{name} = {val} too large: its square overflows")
        for name in _REGULARIZERS:
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise InvalidParameterError(f"{name} must lie in [0, 1], got {val}")

    @property
    def regularized(self) -> bool:
        """True when any drag or the density diffusion is switched on."""
        return any(_regularizers(self))


def require_positive(q: ScalarField) -> np.ndarray:
    """Raw nodal values of q, floor-checked where the check is meaningful.

    ``q`` is one field, or a stack whose leading axes are its members.
    Positivity is asserted on the frame's trusted nodes and a breach raises
    with the offending node attached; the first breaching member raises,
    with the node and value it raises with alone, and the error names that
    member (0 for one field).  Far-tail nodes carry no meaningful pointwise
    information and are exempt.  Divisions by q must go through the masked
    reciprocals of :class:`StateBundle`, never through the raw values.
    """
    frame, qn = q.frame, q.nodal
    # the minimum over every member is NaN if any value is, and NaN fails here
    if not np.minimum.reduce(qn, axis=None, where=frame.trusted,
                             initial=np.inf) >= POSITIVITY_FLOOR:
        inner = np.where(frame.trusted, qn, np.inf)
        rows = zip(inner.reshape(-1, frame.n_nodes), qn.reshape(-1, frame.n_nodes))
        for member, (row, values) in enumerate(rows):
            i = int(np.argmin(row))  # argmin finds a NaN first
            if not row[i] >= POSITIVITY_FLOOR:
                raise PositivityError(
                    f"density {values[i]:.3e} below floor {POSITIVITY_FLOOR:.1e} "
                    f"at node {frame.nodes[i]}",
                    node=frame.nodes[i],
                    value=float(values[i]),
                    member=member,
                )
    return qn


def gradient_nodal(f: ScalarField) -> np.ndarray:
    """Exact nodal gradient, shape rows + (dim, n_nodes); du[i, k] = d_k u_i for a velocity."""
    return f.frame.derivatives(f.coeffs, 1)


def hessian_nodal(f: ScalarField) -> np.ndarray:
    """Exact nodal Hessian, shape rows + (dim, dim, n_nodes)."""
    return f.frame.derivatives(f.coeffs, 2)


def scalar_pow(x, p: float):
    """x ** p by Python's float power, one value at a time, for a float or an array.

    numpy's vectorized power can differ from the C library's in the last
    bit, even for p = 2, so a quantity formed over a stack of states goes
    through this to equal, bit for bit, the same quantity of each state
    alone.
    """
    if np.ndim(x) == 0:
        return float(x) ** p
    return np.array([v**p for v in np.ravel(x).tolist()]).reshape(np.shape(x))


class _cached:
    """Form an attribute on first access and keep it in the instance dict.

    ``functools.cached_property`` takes a lock on every first access before
    Python 3.12, a measurable share of each force assembly in 1D."""

    def __init__(self, fn):
        self.fn = fn

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.fn.__name__] = self.fn(obj)
        return value


class StateBundle:
    """Nodal quantities and integrals of one (q, u) pair or of a stack of them,
    each formed on first use and then kept.

    The weak forces, every diagnostic and the dilated energies read a state's
    derivatives and integrals from here, so each is defined once and formed
    at most once per state.  ``q`` and ``u`` are one field each, or stacks
    of the same members (:meth:`ScalarField.stack`): the members' axes lead
    every array and every integral, and each member's entries equal, bit for
    bit, those of its own one-state bundle (every product runs row by row,
    see :meth:`GaussianFrame.derivatives`).
    Positivity of q is checked on construction (:func:`require_positive`).
    Rational quantities (anything divided by a power of q) vanish on the
    frame's untrusted tail nodes; polynomial ones keep raw values so their
    quadrature sums stay exact.  Without a velocity the bundle describes
    (q, 0).
    """

    def __init__(self, q: ScalarField, u: VectorField | None = None):
        self.frame = frame = q.frame
        self.qn = require_positive(q)
        self.mask = frame._trusted_mask
        if u is None:  # zero, with the member axes of q's nodal values
            members = self.qn.shape[:-1]
            u = VectorField(frame, coeffs=np.zeros(members + (frame.dim, frame.n_basis)))
        self.q, self.u = q, u

    # Every array carries the state axes first and the nodes last, so a
    # per-node array meets a tensor as values[..., None, None, :].

    def quad(self, values: np.ndarray):
        """Quadrature integral against the normalized Gaussian measure along
        the last (node) axis: one number per state."""
        return np.vecdot(values, self.frame.weights)

    @_cached
    def q_safe(self) -> np.ndarray:
        return np.maximum(self.qn, POSITIVITY_FLOOR)

    # Rational integrands have no polynomial cancellation structure, so the
    # round-off garbage at far-tail nodes would be amplified by a division
    # instead of telescoping away in the quadrature sum; restricting them to
    # the trusted region discards only contributions below round-off of the
    # total (the omitted Gaussian tail).

    @_cached
    def inv_q(self) -> np.ndarray:
        """1/q on trusted nodes, 0 elsewhere."""
        return self.mask / self.q_safe

    @_cached
    def sqrt_q(self) -> np.ndarray:
        """sqrt(q) on the floored values, so never 0."""
        return np.sqrt(self.q_safe)

    @_cached
    def inv_sq(self) -> np.ndarray:
        """1/sqrt(q) on trusted nodes, 0 elsewhere."""
        return self.mask / self.sqrt_q

    @_cached
    def qlnq(self) -> np.ndarray:
        return self.mask * self.q_safe * np.log(self.q_safe)

    @_cached
    def gq(self) -> np.ndarray:
        return gradient_nodal(self.q)

    @_cached
    def hq(self) -> np.ndarray:
        return hessian_nodal(self.q)

    @_cached
    def outer_q(self) -> np.ndarray:
        """grad q (x) grad q / q on trusted nodes, 0 elsewhere.

        The outer product is broadcast; adding 0.0 turns its -0.0 entries
        into the +0.0 that the einsum ``...in,...jn->...ijn`` forms, so the
        two agree bit for bit."""
        gq = self.gq
        outer = gq[..., :, None, :] * gq[..., None, :, :]
        outer += 0.0
        outer *= self.inv_q[..., None, None, :]
        return outer

    @_cached
    def fisher_integrand(self) -> np.ndarray:
        """|grad q|^2 / q."""
        return np.einsum("...in,...in->...n", self.gq, self.gq) * self.inv_q

    @_cached
    def glog(self) -> np.ndarray:
        """sqrt(q) D^2(ln q), through the square-root form."""
        inv_sq = self.inv_sq[..., None, None, :]
        return self.hq * inv_sq - self.outer_q * inv_sq

    @_cached
    def stress(self) -> np.ndarray:
        """Capillarity stress sqrt(q) D^2 sqrt(q) - grad sqrt(q) (x) grad sqrt(q).

        The Hessian part stays raw (exact quadrature against polynomial
        test functions); only the rational part is masked.
        """
        return 0.5 * self.hq - 0.5 * self.outer_q

    @_cached
    def un(self) -> np.ndarray:
        return self.u.nodal

    @_cached
    def raw2(self) -> np.ndarray:
        return np.einsum("...in,...in->...n", self.un, self.un)

    @_cached
    def u_gq(self) -> np.ndarray:
        """u . grad q."""
        return np.einsum("...in,...in->...n", self.un, self.gq)

    @_cached
    def s2(self) -> np.ndarray:
        """|u|^2 projected back to degree N before entering quartic forms."""
        frame = self.frame
        s2c = np.zeros(self.qn.shape[:-1] + (frame.n_basis,))
        for ax in range(frame.dim):
            row = self.un[..., ax, :]
            s2c += frame.project_nodal(row * row)
        return frame.derivatives(s2c, 0)

    @_cached
    def du(self) -> np.ndarray:
        return gradient_nodal(self.u)

    @_cached
    def dsym(self) -> np.ndarray:
        return 0.5 * (self.du + self.du.swapaxes(-3, -2))

    @_cached
    def askew(self) -> np.ndarray:
        return 0.5 * (self.du - self.du.swapaxes(-3, -2))

    # Integrals against mu_m; moments are scaled by sigma^2 per power of |x|^2.

    @_cached
    def mass(self):
        return self.quad(self.qn)

    @_cached
    def i2(self):
        """int q |x|^2 / sigma^2."""
        return self.quad(self.qn * self.frame.radius_sq) / self.frame.sigma**2

    @_cached
    def i4(self):
        """int q |x|^4 / sigma^4."""
        sig2 = self.frame.sigma**2
        return self.quad(self.qn * self.frame.radius_sq**2) / sig2**2

    @_cached
    def ke(self):
        """int q |u|^2."""
        return self.quad(self.qn * self.raw2)

    @_cached
    def u2(self):
        """int |u|^2, the linear-drag integral."""
        return self.quad(self.raw2)

    @_cached
    def cubic(self):
        """int q |u|^2 |u|^2 with the first |u|^2 dealiased, the cubic-drag integral."""
        return self.quad(self.qn * self.s2 * self.raw2)

    @_cached
    def fisher(self):
        """int |grad q|^2 / q."""
        return self.quad(self.fisher_integrand)

    @_cached
    def entropy(self):
        """int q ln q over the trusted nodes."""
        return self.quad(self.qlnq)

    @_cached
    def cross(self):
        """int u . grad q."""
        return self.quad(self.u_gq)

    @_cached
    def glog2(self):
        """int |sqrt(q) D^2(ln q)|^2."""
        return self.quad(np.einsum("...ijn,...ijn->...n", self.glog, self.glog))

    @_cached
    def dsym2(self):
        """int q |D(u)|^2."""
        return self.quad(self.qn * np.einsum("...ijn,...ijn->...n", self.dsym, self.dsym))

    @_cached
    def askew2(self):
        """int q |A(u)|^2."""
        return self.quad(self.qn * np.einsum("...ijn,...ijn->...n", self.askew, self.askew))


def div_m(v: VectorField) -> ScalarField:
    """Twisted divergence div(v) - (x/sigma^2).v, truncated to degree N.

    The truncation drops only the degree-(N+1) tail of the coordinate
    product, so the zero-index coefficient of the result vanishes exactly:
    div_m maps into mean-zero fields.
    """
    frame = v.frame
    coeffs = np.zeros(v.coeffs.shape[:-2] + (frame.n_basis,))
    for ax in range(frame.dim):
        coeffs += _matvec(frame.divm_mats[ax], v.coeffs[..., ax, :])
    return ScalarField._formed(frame, coeffs, None)


def _capillarity_rho_form_nodal(b: StateBundle) -> np.ndarray:
    """Same stress assembled through rho = q rho_m on the flat measure.

    Computes (1/rho_m)[sqrt(rho) D^2 sqrt(rho) - grad sqrt(rho) (x) grad
    sqrt(rho) + rho I / (2 sigma^2)] from exact nodal derivatives of rho.
    """
    frame = b.frame
    qn, gq = b.qn, b.gq
    sig2 = frame.sigma**2
    x = frame.nodes.T  # (d, n)
    # grad rho / rho_m and D^2 rho / rho_m by the Gaussian product rule
    grho = gq - x * qn / sig2
    hrho = (
        b.hq
        - (np.einsum("in,jn->ijn", x, gq) + np.einsum("in,jn->ijn", gq, x)) / sig2
        + qn * (np.einsum("in,jn->ijn", x, x) / sig2**2 - np.eye(frame.dim)[:, :, None] / sig2)
    )
    eye = np.eye(frame.dim)[:, :, None]
    return (0.5 * hrho + 0.5 * qn * eye / sig2) * b.mask - 0.5 * np.einsum(
        "in,jn->ijn", grho, grho
    ) * b.inv_q


def korteweg_consistency(q: ScalarField) -> float:
    """Worst quadrature-L^2_mu distance between the two stress assemblies."""
    return _korteweg_from_bundle(StateBundle(q))


def _korteweg_from_bundle(b: StateBundle) -> float:
    diff, dim = b.stress * b.mask - _capillarity_rho_form_nodal(b), b.frame.dim
    return max(b.frame.norm_l2mu(diff[i, j]) for i in range(dim) for j in range(dim))


def bohm_residual(q: ScalarField) -> float:
    r"""Discrepancy between the two classical forms of the quantum stress.

    For rho = q rho_m the Bohm identity states

    .. math::

        2\rho\nabla\left(\frac{\Delta\sqrt\rho}{\sqrt\rho}\right)
            = {\rm div}(\rho D^2 \ln\rho).

    The left side is evaluated through the square-root route: sqrt(q) is
    projected onto the basis (P), sqrt(rho) = P rho_m^{1/2}, and the cubic
    derivative chain of P is formed nodally.  The right side goes through
    exact derivatives of q itself.  The residual, reported as the
    L^2_mu norm of (LHS - RHS)/rho_m, therefore measures exactly the
    truncation error of representing sqrt(q) at degree N; it vanishes to
    round-off whenever sqrt(q) is resolved.
    """
    return _bohm_from_bundle(StateBundle(q))


def _bohm_from_bundle(b: StateBundle) -> float:
    frame = b.frame
    d = frame.dim
    sig2 = frame.sigma**2
    qn, mask = b.qn, b.mask
    x = frame.nodes.T

    # --- left side via P = projection of sqrt(q) ------------------------
    p_field = transform(frame, b.sqrt_q)
    pn = p_field.nodal
    if np.min(np.abs(pn[frame.trusted])) < POSITIVITY_FLOOR:
        raise PositivityError("projected square root vanishes at a trusted node")
    inv_p = mask / np.where(np.abs(pn) > POSITIVITY_FLOOR, pn, POSITIVITY_FLOOR)
    gp = gradient_nodal(p_field)
    hp = hessian_nodal(p_field)
    lap_p = np.trace(hp, axis1=0, axis2=1)
    tp = p_field.derivatives(3)
    grad_lap_p = np.einsum("ijjn->in", tp)
    rsq = frame.radius_sq
    # A := (Delta sqrt(rho)) / rho_m^{1/2} with sqrt(rho) = P rho_m^{1/2}
    a_vals = lap_p - np.einsum("in,in->n", x, gp) / sig2 + pn * (rsq / (4.0 * sig2**2) - d / (2.0 * sig2))
    # grad A, using exact product-rule derivatives of the polynomial pieces
    grad_a = (
        grad_lap_p
        - (gp + np.einsum("in,ijn->jn", x, hp)) / sig2
        + gp * (rsq / (4.0 * sig2**2) - d / (2.0 * sig2))[None, :]
        + pn * x / (2.0 * sig2**2)
    )
    # 2 rho grad(Delta sqrt(rho)/sqrt(rho)) / rho_m = 2 q [grad A / P - A grad P / P^2]
    lhs = 2.0 * qn * (grad_a * inv_p - a_vals * gp * inv_p**2)

    # --- right side via L = ln rho = ln rho_m + ln q ---------------------
    inv_q, gq, hq = b.inv_q, b.gq, b.hq
    tq = b.q.derivatives(3)
    grad_l = -x / sig2 * mask + gq * inv_q
    hess_l = (
        -np.eye(d)[:, :, None] / sig2 * mask
        + hq * inv_q
        - np.einsum("in,jn->ijn", gq, gq) * inv_q**2
    )
    # div of D^2(ln q) (the Gaussian part is constant and drops out)
    div_hess = (
        np.einsum("jijn->in", tq) * inv_q
        - np.einsum("ijn,jn->in", hq, gq) * inv_q**2
        - (np.einsum("jjn->n", hq) * gq + np.einsum("ijn,jn->in", hq, gq)) * inv_q**2
        + 2.0 * np.einsum("jn,jn->n", gq, gq) * gq * inv_q**3
    )
    rhs = qn * (np.einsum("ijn,jn->in", hess_l, grad_l) + div_hess)

    diff = (lhs - rhs) * mask
    return math.sqrt(sum(frame.quad(diff[i] ** 2) for i in range(d)))

