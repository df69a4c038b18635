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

``vanishing_drag_sweep`` mollifies and schedules the data of every index,
marches all members together as one stack of states, and reports Cauchy
increments of the square-root density (weighted H^1) and momentum
(weighted L^2) between consecutive members; the increments should decay
once past a burn-in index.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.linalg import gcrotmk

from .calculus import ModelParams, StateBundle
from .diagnostics import energy_inequality_audit, record
from .driver import march
from .errors import InvalidParameterError
from .spectral import GaussianFrame, ScalarField, VectorField

__all__ = [
    "mollifier_grid",
    "mollify_initial_data",
    "drag_schedule",
    "schedule_indices",
    "vanishing_drag_sweep",
]

#: convolution grid points per quadrature-node spacing
OVERSAMPLE = 4
#: the most convolution work, grid points times kernel entries, that one
#: mollification may take: the shipped configs need at most 2.4e3, and a 2D
#: mollification just under the bound takes about 1.6 s on one Xeon core
MAX_MOLLIFIER_WORK = 1e9


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


def _grid(axis: np.ndarray, d: int) -> np.ndarray:
    """The points of the d-fold product of a 1D axis, shape (len(axis),) * d + (d,)."""
    return np.stack(np.meshgrid(*[axis] * d, indexing="ij"), -1)


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


def _cubic_spline_at(axis: np.ndarray, values: np.ndarray,
                     points: np.ndarray) -> np.ndarray:
    """The not-a-knot tensor cubic spline through ``values`` on the grid
    ``axis`` x ... x ``axis``, at ``points`` (shape (P, d), inside the grid).

    Built as scipy's ``RegularGridInterpolator(method="cubic")`` builds it,
    down to the gcrotmk solve at ``atol = 1e-6``, so the two agree bit for bit.
    """
    n, d = len(axis), values.ndim
    knots = np.r_[[axis[0]] * 4, axis[2:-2], [axis[-1]] * 4]

    def basis_rows(x: np.ndarray) -> csr_array:
        # one row per point: its 4**d non-zero tensor B-splines (de Boor)
        data, cols = np.ones((len(x), 1)), np.zeros((len(x), 1), dtype=np.intp)
        for xk in x.T:
            # knots[ell] <= xk < knots[ell + 1]; the last node joins the last interval
            ell = np.clip(np.searchsorted(knots, xk, side="right") - 1, 3, n - 1)
            b = np.tile([1.0, 0.0, 0.0, 0.0], (len(x), 1))
            for j in range(1, 4):
                prev = b[:, :j].copy()
                b[:, 0] = 0.0
                for i in range(1, j + 1):
                    right, left = knots[ell + i], knots[ell + i - j]
                    w = prev[:, i - 1] / (right - left)
                    b[:, i - 1] += w * (right - xk)
                    b[:, i] = w * (xk - left)
            data = (data[:, :, None] * b[:, None, :]).reshape(len(x), -1)
            cols = (cols[:, :, None] * n + (ell - 3)[:, None, None]
                    + np.arange(4)).reshape(len(x), -1)
        indptr = np.arange(0, data.size + 1, data.shape[1])
        return csr_array((data.ravel(), cols.ravel(), indptr), shape=(len(x), n**d))

    collocation = basis_rows(_grid(axis, d).reshape(-1, d))
    collocation.eliminate_zeros()
    coeffs, info = gcrotmk(collocation, values.ravel(), atol=1e-6)
    if info != 0:
        raise ValueError(f"cubic spline solve failed: gcrotmk returned info = {info}")
    return basis_rows(points) @ coeffs


def mollifier_grid(frame: GaussianFrame, n: int):
    """The convolution grid of :func:`mollify_initial_data` at index ``n``,
    sized before anything is allocated.

    Returns ``(lo, hi, npts, step, m)``: each grid axis is
    ``np.linspace(lo, hi, npts)``, of spacing ``step``, and the kernel has
    ``2 m + 1`` points per axis.  Both grow like 1/sigma per axis, so tight
    confinement asks for a large grid; one whose convolution work, grid
    points times kernel entries, exceeds ``MAX_MOLLIFIER_WORK`` raises.
    """
    if n < 1:
        raise InvalidParameterError(f"mollification index must be >= 1, got {n}")
    d = frame.dim
    span = frame.nodes_1d[-1] - frame.nodes_1d[0]
    h = span / (frame.quad_order - 1) / OVERSAMPLE
    margin = 1.0 / n + 2.0 * h
    lo, hi = frame.nodes_1d[0] - margin, frame.nodes_1d[-1] + margin
    npts = int(math.ceil((hi - lo) / h)) + 1
    step = (lo + (hi - lo) / (npts - 1)) - lo  # axis[1] - axis[0], as np.linspace forms it
    # a step below the rounding of lo leaves the axis no two distinct points
    m = math.ceil(1.0 / (n * step)) if step > 0 else math.inf
    work = float(npts) ** d * float(2 * m + 1) ** d
    if work > MAX_MOLLIFIER_WORK:
        raise InvalidParameterError(
            f"mollifying at n = {n} needs {npts:.4g} grid points per axis in {d}D and {work:.2g} "
            f"convolution terms (grid points times kernel entries), above "
            f"{MAX_MOLLIFIER_WORK:.0e}: the confinement is too tight for the mollifier grid")
    return lo, hi, npts, step, m


def mollify_initial_data(q0: ScalarField, u0: VectorField,
                         n: int) -> tuple[ScalarField, VectorField]:
    """Cutoff, convolve and renormalize one initial state.

    Convolutions are evaluated on a uniform grid covering the quadrature
    hull plus the kernel support, ``OVERSAMPLE`` times finer than the node
    spacing, then interpolated back to the quadrature nodes and projected.
    The returned density has unit quadrature mass exactly (explicit
    normalization) and a strictly positive nodal floor of order 1/n.
    """
    frame = q0.frame
    d = frame.dim
    lo, hi, npts, step, m = mollifier_grid(frame, n)
    axis = np.linspace(lo, hi, npts)

    grid_pts = _grid(axis, d).reshape(-1, d)
    sq0 = np.sqrt(np.clip(q0.eval(grid_pts), 0.0, None))
    chi = _plateau_cutoff(np.sqrt(np.sum(grid_pts**2, axis=1)) / n)
    g = (sq0 * chi + 1.0 / n).reshape((npts,) * d)

    # mollifier sampled on its own support, normalized discretely so that
    # the convolution preserves constants exactly
    ky = np.arange(-m, m + 1) * step
    kernel = _bump(d, n * _grid(ky, d)) * n**d * step**d
    kernel = kernel / kernel.sum()
    smooth = _convolve_same(g, kernel)

    s_nodes = _cubic_spline_at(axis, smooth, frame.nodes)

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


def _sweep_fields(b: StateBundle):
    """Nodal sqrt(q), grad sqrt(q) and sqrt(q) u of each state of a stacked
    bundle, each zero off the trusted nodes: what the Cauchy increments
    compare."""
    s, mask = b.sqrt_q[:, None, :], b.mask
    return s * mask, b.gq * mask / (2.0 * s), s * b.un * mask


def _sq_distance(frame: GaussianFrame, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared weighted L^2 distance of two stacks of (rows, n_nodes) nodal
    arrays, one per state."""
    return np.vecdot(np.einsum("...in,...in->...n", a - b, a - b), frame.weights)


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

    Every member is mollified and scheduled first; then all of them march
    together (:func:`~hermflow.driver.march`).  Returns a report with
    per-run schedules and audits plus the Cauchy increments
    sup_t ||sqrt(q_n) - sqrt(q_m)||_{H^1_mu} and
    sup_t ||sqrt(q_n) u_n - sqrt(q_m) u_m||_{L^2_mu} for consecutive (n, m).
    A member's solver failure does not raise: the report carries the first
    failing index and the members before it, as running them one after
    another would.  Any other error propagates.
    """
    n_list = schedule_indices(n_list)
    mollified = [mollify_initial_data(q0, u0, n) for n in n_list]
    params = [drag_schedule(n, q0n, base_params) for n, (q0n, _) in zip(n_list, mollified)]
    fields: dict = {}  # params -> the _sweep_fields of each record chunk of that member

    def recorder(b, times, p):
        records = record(b, times, p)
        fields.setdefault(p, []).append(_sweep_fields(b))
        return records

    results, failure = march(frame, params, [q for q, _ in mollified],
                             [u for _, u in mollified], dt, t_final,
                             record_every=record_every, recorder=recorder)
    ran = len(results) if failure is None else len(results) + 1
    report: dict = {
        "n_list": n_list,
        "schedules": [{"n": n, "r0": p.r0, "r1": p.r1, "r4": p.r4, "delta1": p.delta1}
                      for n, p in zip(n_list[:ran], params)],
        "audits": [energy_inequality_audit(result.records, p, frame.sigma, frame.dim)
                   for result, p in zip(results, params)],
        "failed_at": None,
    }
    if failure is not None:  # member failure: partial report
        report["failed_at"] = n_list[len(results)]
        report["failure"] = f"{type(failure).__name__}: {failure}"
    # (n, the _sweep_fields of its recorded states) per completed member
    runs = [(n, [np.concatenate(chunks) for chunks in zip(*fields[result.params])])
            for n, result in zip(n_list, results)]

    increments = []
    for (na, (sa, ga, ja)), (nb, (sb, gb, jb)) in zip(runs, runs[1:]):
        dq = np.max(np.sqrt(_sq_distance(frame, sa, sb) + _sq_distance(frame, ga, gb)))
        dj = np.max(np.sqrt(_sq_distance(frame, ja, jb)))
        increments.append({"pair": (na, nb), "sqrtq_h1": float(dq), "momentum_l2": float(dj)})
    report["increments"] = increments

    tail = [inc for inc in increments if inc["pair"][0] >= burn_in]
    monotone = all(
        b["sqrtq_h1"] <= a["sqrtq_h1"] * (1.0 + 1e-9) + 1e-14
        and b["momentum_l2"] <= a["momentum_l2"] * (1.0 + 1e-9) + 1e-14
        for a, b in zip(tail, tail[1:])
    )
    report["cauchy_monotone_after_burn_in"] = bool(monotone)
    return report
