r"""Mollified initial data, vanishing drag schedules and the drag-limit sweep.

Rough initial data enter the solver through a cutoff-convolve-normalize
pipeline on the square root of the density,

.. math::

    \sqrt{q^0_n} = \frac{(\sqrt{q^0}\,\chi_n + 1/n) * \zeta_n}
                        {\|(\sqrt{q^0}\,\chi_n + 1/n) * \zeta_n\|_{L^2_{\mu_m}}},
    \qquad
    u^0_n = \frac{\sqrt{q^0}\,u^0}{\sqrt{q^0_n}}\,\chi_n,

with :math:`\chi_n(x) = \chi(x/n)` a fixed C^2 plateau cutoff and
:math:`\zeta_n(x) = n^d\zeta(n x)` a unit-mass polynomial bump supported in
the unit ball.  Both kernels are polynomial splines so the construction is
reproducible without transcendental-support ambiguity.

The drag coefficients are scheduled against the mollified data so that the
products that enter the entropy bounds vanish even when the underlying
moments blow up:

.. math::

    r_{1,n} = 1/n, \qquad
    r_{0,n} = \frac{1}{n + (\int (q^0_n - \ln q^0_n)\,{\rm d}\mu_m)^2}, \qquad
    r_{4,n} = \frac{1}{n + I_4(q^0_n)^2}.

``vanishing_drag_sweep`` runs the full solver per schedule index and
reports Cauchy increments of the square-root density (weighted H^1) and
momentum (weighted L^2) between consecutive runs; the increments should
decay once past a burn-in index.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .calculus import ModelParams, gradient_nodal
from .diagnostics import energy_inequality_audit
from .driver import simulate
from .errors import SOLVER_FAILURES, InvalidParameterError
from .galerkin import SimState
from .spectral import GaussianFrame, ScalarField, VectorField

__all__ = [
    "mollify_initial_data",
    "drag_schedule",
    "schedule_indices",
    "vanishing_drag_sweep",
]

#: convolution grid points per quadrature-node spacing
OVERSAMPLE = 4


def _plateau_cutoff(r: np.ndarray) -> np.ndarray:
    """C^2 radial plateau: 1 on r <= 1/2, 0 on r >= 1, quintic in between."""
    t = np.clip((r - 0.5) * 2.0, 0.0, 1.0)
    return 1.0 - t**3 * (10.0 - 15.0 * t + 6.0 * t**2)


def _bump(frame_dim: int, y: np.ndarray) -> np.ndarray:
    """Unit-mass C^2 bump c_d (1 - |y|^2)^3 on the unit ball."""
    r2 = np.sum(np.atleast_2d(y) ** 2, axis=-1)
    vals = np.where(r2 < 1.0, (1.0 - r2) ** 3, 0.0)
    const = 35.0 / 32.0 if frame_dim == 1 else 4.0 / math.pi
    return const * vals


def _convolve_same(g: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Convolve a grid with an odd-sided kernel, zero outside the grid.

    The result sits on the grid of ``g``, centred as scipy.signal's
    ``mode="same"``.  In 2D it is the sum of the shifted copies of the
    zero-padded grid, each weighted by its entry of the flipped kernel.
    """
    if g.ndim == 1:
        return np.convolve(g, kernel, mode="same")
    m = kernel.shape[0] // 2
    padded = np.pad(g, m)
    nx, ny = g.shape
    out = np.zeros_like(g)
    for (a, b), w in np.ndenumerate(kernel[::-1, ::-1]):
        out += w * padded[a:a + nx, b:b + ny]
    return out


def mollify_initial_data(q0: ScalarField, u0: VectorField,
                         n: int) -> tuple[ScalarField, VectorField]:
    """Cutoff, convolve and renormalize one initial state.

    Convolutions are evaluated on a uniform grid covering the quadrature
    hull plus the kernel support, ``OVERSAMPLE`` times finer than the node
    spacing, then interpolated back to the quadrature nodes and projected.
    The returned density has unit quadrature mass exactly (explicit
    normalization) and a strictly positive nodal floor of order 1/n.
    """
    if n < 1:
        raise InvalidParameterError(f"mollification index must be >= 1, got {n}")
    frame = q0.frame
    d = frame.dim
    span = frame.nodes_1d[-1] - frame.nodes_1d[0]
    h = span / (frame.quad_order - 1) / OVERSAMPLE
    margin = 1.0 / n + 2.0 * h
    lo, hi = frame.nodes_1d[0] - margin, frame.nodes_1d[-1] + margin
    npts = int(math.ceil((hi - lo) / h)) + 1
    axis = np.linspace(lo, hi, npts)
    step = axis[1] - axis[0]

    if d == 1:
        grid_pts = axis[:, None]
    else:
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        grid_pts = np.column_stack([gx.ravel(), gy.ravel()])

    sq0 = np.sqrt(np.clip(q0.eval(grid_pts), 0.0, None))
    chi = _plateau_cutoff(np.sqrt(np.sum(grid_pts**2, axis=1)) / n)
    g = (sq0 * chi + 1.0 / n).reshape((npts,) * d)

    # mollifier sampled on its own support, normalized discretely so that
    # the convolution preserves constants exactly
    m = int(math.ceil(1.0 / (n * step)))
    ky = np.arange(-m, m + 1) * step
    if d == 1:
        kernel = _bump(d, (n * ky)[:, None]) * n
    else:
        kx, kyy = np.meshgrid(ky, ky, indexing="ij")
        kernel = _bump(d, n * np.stack([kx, kyy], axis=-1)) * n**d
    kernel = kernel * step**d
    kernel = kernel / kernel.sum()
    smooth = _convolve_same(g, kernel)

    interp = RegularGridInterpolator((axis,) * d, smooth, method="cubic")
    s_nodes = interp(frame.nodes)

    norm = math.sqrt(frame.quad(s_nodes**2))
    s_nodes = s_nodes / norm
    qn = ScalarField(frame, nodal=s_nodes**2)

    chi_nodes = _plateau_cutoff(np.sqrt(frame.radius_sq) / n)
    sq0_nodes = np.sqrt(np.clip(q0.nodal, 0.0, None))
    return qn, VectorField(frame, nodal=sq0_nodes * u0.nodal / s_nodes * chi_nodes)


def drag_schedule(n: int, q0_n: ScalarField, base: ModelParams) -> ModelParams:
    """``base`` with the vanishing coefficients tied to the mollified data's entropic moments."""
    if n < 1:
        raise InvalidParameterError(f"schedule index must be >= 1, got {n}")
    frame = q0_n.frame
    qn = np.clip(q0_n.nodal, 1e-300, None)
    entropic = frame.quad(qn - np.log(qn))
    i4 = frame.quad(qn * frame.radius_sq**2) / frame.sigma**4
    return replace(base, r0=1.0 / (n + entropic**2), r1=1.0 / n,
                   r4=1.0 / (n + i4**2), delta1=1.0 / n)


def _sweep_fields(state: SimState):
    """Nodal sqrt(q), grad sqrt(q) and sqrt(q) u of one state, each zero off
    the trusted nodes: what the Cauchy increments compare."""
    frame = state.frame
    mask = frame.trusted.astype(float)
    s = np.sqrt(np.clip(state.q.nodal, 0.0, None))
    grad_s = gradient_nodal(state.q) * mask / (2.0 * np.clip(s, 1e-150, None))
    return (mask * s)[None], grad_s, s * state.u.nodal * mask


def _sq_distance(frame: GaussianFrame, a: np.ndarray, b: np.ndarray) -> float:
    """Squared weighted L^2 distance of two (rows, n_nodes) nodal arrays."""
    return frame.quad(np.einsum("in,in->n", a - b, a - b))


def schedule_indices(n_list) -> list[int]:
    """The sweep's schedule indices, checked: at least 1 and strictly increasing."""
    n_list = [int(n) for n in n_list]
    if any(n < 1 for n in n_list):
        raise InvalidParameterError(f"schedule indices must be >= 1, got {n_list}")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise InvalidParameterError(f"schedule indices must be strictly increasing, got {n_list}")
    return n_list


def vanishing_drag_sweep(frame: GaussianFrame, base_params: ModelParams,
                         q0: ScalarField, u0: VectorField, n_list,
                         dt: float, t_final: float, record_every: int = 1,
                         burn_in: int = 8) -> dict:
    """Run the solver once per schedule index and compare consecutive runs.

    Returns a report with per-run schedules and audits plus the Cauchy
    increments sup_t ||sqrt(q_n) - sqrt(q_m)||_{H^1_mu} and
    sup_t ||sqrt(q_n) u_n - sqrt(q_m) u_m||_{L^2_mu} for consecutive (n, m).
    A member's solver failure does not raise: the report carries the
    failure index and whatever completed.  Any other error propagates.
    """
    n_list = schedule_indices(n_list)
    runs = []  # (n, the _sweep_fields of every kept state)
    report: dict = {"n_list": n_list, "schedules": [], "audits": [], "failed_at": None}
    for n in n_list:
        q0n, u0n = mollify_initial_data(q0, u0, n)
        params = drag_schedule(n, q0n, base_params)
        report["schedules"].append(
            {"n": n, "r0": params.r0, "r1": params.r1, "r4": params.r4,
             "delta1": params.delta1}
        )
        try:
            result = simulate(frame, params, q0n, u0n, dt=dt, t_final=t_final,
                              record_every=record_every, keep_states=True)
        except SOLVER_FAILURES as exc:  # member failure: partial report
            report["failed_at"] = n
            report["failure"] = f"{type(exc).__name__}: {exc}"
            break
        runs.append((n, [_sweep_fields(state) for state in result.states]))
        report["audits"].append(
            energy_inequality_audit(result.records, params, frame.sigma, frame.dim)
        )

    increments = []
    for (na, fa), (nb, fb) in zip(runs, runs[1:]):
        dq = max(math.sqrt(_sq_distance(frame, sa, sb) + _sq_distance(frame, ga, gb))
                 for (sa, ga, _), (sb, gb, _) in zip(fa, fb))
        dj = max(math.sqrt(_sq_distance(frame, ja, jb)) for (_, _, ja), (_, _, jb) in zip(fa, fb))
        increments.append({"pair": (na, nb), "sqrtq_h1": dq, "momentum_l2": dj})
    report["increments"] = increments

    tail = [inc for inc in increments if inc["pair"][0] >= burn_in]
    monotone = all(
        b["sqrtq_h1"] <= a["sqrtq_h1"] * (1.0 + 1e-9) + 1e-14
        and b["momentum_l2"] <= a["momentum_l2"] * (1.0 + 1e-9) + 1e-14
        for a, b in zip(tail, tail[1:])
    )
    report["cauchy_monotone_after_burn_in"] = bool(monotone)
    return report
