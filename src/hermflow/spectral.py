r"""Hermite-spectral discretization in a Gaussian-weighted space.

The reference measure is the normalized Gaussian

.. math::

    {\rm d}\mu_m = \rho_m\,{\rm d}x, \qquad
    \rho_m(x) = (2\pi\sigma^2)^{-d/2} \exp\left(-\frac{|x|^2}{2\sigma^2}\right),

whose length scale ``sigma`` is the positive root of
:math:`\lambda\sigma^4 = a\sigma^2 + \kappa^2`, i.e. the scale of the
equilibrium density of the confined flow.  All fields are expanded in the
Hermite polynomials orthonormal in :math:`L^2_{\mu_m}`,

.. math::

    \Phi_\alpha(x) = \prod_i \mathrm{He}_{\alpha_i}(x_i/\sigma)/\sqrt{\alpha_i!},

truncated by total degree.  In this basis the Ornstein-Uhlenbeck operator
:math:`\Delta_m f = \Delta f - (x/\sigma^2)\cdot\nabla f` is diagonal with
eigenvalue :math:`-|\alpha|/\sigma^2`, so its semigroup is exact, and every
bilinear form reduces to a plain Gauss-Hermite quadrature sum.

The basis and the quadrature are tensor products, so in d = 2 every
synthesis (coefficients to nodal values of a field or of its derivatives),
its transpose (nodal values tested against the basis) and the mass-matrix
assembly contract one axis at a time against the 1D tables (sum
factorization).  The nodes-to-coefficients projection stays one dense
(basis size times node count) product.  In d = 1 every transform is a
plain dense product.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import hermite_e

from .errors import DimensionError, InvalidParameterError

__all__ = [
    "GaussianFrame",
    "ScalarField",
    "VectorField",
    "sigma_from_coefficients",
    "build_frame",
    "transform",
    "multiply",
    "TRUST_LIMIT",
]

#: nodes where the basis amplifies coefficient round-off beyond this factor
#: carry no numerically meaningful pointwise information (their quadrature
#: weight is below round-off of any assembled integral); pointwise checks
#: are restricted to the complement
TRUST_LIMIT = 1e6


def sigma_from_coefficients(a: float, kappa: float, lam: float) -> float:
    """Equilibrium length scale: positive root of lam*s^4 - a*s^2 - kappa^2 = 0."""
    if a <= 0.0 or lam <= 0.0:
        raise InvalidParameterError(f"need a > 0 and lam > 0, got a={a}, lam={lam}")
    if kappa < 0.0:
        raise InvalidParameterError(f"need kappa >= 0, got {kappa}")
    sigma_sq = (a + math.sqrt(a * a + 4.0 * lam * kappa * kappa)) / (2.0 * lam)
    return math.sqrt(sigma_sq)


def _multi_indices(dim: int, degree: int) -> np.ndarray:
    """All multi-indices with total degree <= degree, ordered by (total, first axis desc)."""
    if dim == 1:
        return np.arange(degree + 1, dtype=np.int64)[:, None]
    idx = [(k - j, j) for k in range(degree + 1) for j in range(k + 1)]
    return np.array(idx, dtype=np.int64)


def _hermite_table(y: np.ndarray, kmax: int) -> np.ndarray:
    """Values of the orthonormal (probabilists') Hermite polynomials at y.

    Three-term recurrence on He_k / sqrt(k!); returns shape (len(y), kmax+1).
    """
    out = np.empty((y.size, kmax + 1))
    out[:, 0] = 1.0
    if kmax >= 1:
        out[:, 1] = y
    for k in range(1, kmax):
        out[:, k + 1] = (y * out[:, k] - math.sqrt(k) * out[:, k - 1]) / math.sqrt(k + 1)
    return out


class GaussianFrame:
    """Quadrature rule, basis tables and operator matrices for one measure.

    Immutable after construction; shared freely between fields.  ``degree``
    truncates by *total* degree in d = 2.  ``quad_order`` is the number of
    Gauss-Hermite points per axis and must be at least ``2*degree + 4`` so
    that every bilinear form of degree-N fields, with one dealiased product
    inside, is integrated exactly.
    """

    def __init__(self, sigma: float, dim: int, degree: int, quad_order: int | None = None):
        if sigma <= 0.0:
            raise InvalidParameterError(f"sigma must be positive, got {sigma}")
        if dim not in (1, 2):
            raise InvalidParameterError(f"dim must be 1 or 2, got {dim}")
        if degree < 0:
            raise InvalidParameterError(f"degree must be non-negative, got {degree}")
        if quad_order is None:
            quad_order = 2 * degree + 4
        if quad_order < 2 * degree + 4:
            raise InvalidParameterError(
                f"quad_order={quad_order} too small; need >= 2*degree + 4 = {2 * degree + 4}"
            )
        self.sigma = float(sigma)
        self.dim = int(dim)
        self.degree = int(degree)
        self.quad_order = int(quad_order)

        # per-axis rule for the normalized Gaussian of variance sigma^2
        y, v = hermite_e.hermegauss(quad_order)
        self.nodes_1d = self.sigma * y
        self.weights_1d = v / math.sqrt(2.0 * math.pi)

        self.multi_indices = _multi_indices(dim, degree)
        self.total_degree = self.multi_indices.sum(axis=1)
        self.n_basis = self.multi_indices.shape[0]

        table = _hermite_table(y, degree)  # orthonormal in the normalized measure
        if dim == 1:
            self.nodes = self.nodes_1d[:, None]
            self.weights = self.weights_1d
            self.V = table[:, self.multi_indices[:, 0]]
        else:
            ii, jj = np.meshgrid(np.arange(quad_order), np.arange(quad_order), indexing="ij")
            ii, jj = ii.ravel(), jj.ravel()
            self.nodes = np.column_stack([self.nodes_1d[ii], self.nodes_1d[jj]])
            self.weights = self.weights_1d[ii] * self.weights_1d[jj]
            self.V = table[ii][:, self.multi_indices[:, 0]] * table[jj][:, self.multi_indices[:, 1]]
        self.n_nodes = self.nodes.shape[0]

        self._index_of = {tuple(alpha): i for i, alpha in enumerate(self.multi_indices)}
        self.diff_mats = tuple(self._build_diff(axis) for axis in range(dim))
        self.coord_mats = tuple(self._build_coord(axis) for axis in range(dim))
        # div_m applied axis-wise: D_axis - X_axis / sigma^2 (degree-(N+1) part dropped)
        self.divm_mats = tuple(
            self.diff_mats[ax] - self.coord_mats[ax] / self.sigma**2 for ax in range(dim)
        )
        # 1D tables of the basis and of its first three derivatives (T, T D,
        # T D^2, T D^3 for the 1D derivative matrix D); in d = 1, T is V
        if dim == 1:
            base, d1 = self.V, self.diff_mats[0]
        else:
            base = table
            d1 = np.diag(np.sqrt(np.arange(1.0, degree + 1)) / self.sigma, k=1)
            m0, m1 = self.multi_indices[:, 0], self.multi_indices[:, 1]
            self._grid_index = (m0, m1)
            # mass assembly: products of two 1D basis values, one column per
            # unordered degree pair (a, b), and where each Gram entry sits
            a, b = np.triu_indices(degree + 1)
            pair = np.empty((degree + 1, degree + 1), dtype=np.int64)
            pair[a, b] = pair[b, a] = np.arange(a.size)
            self._pair_table = table[:, a] * table[:, b]
            self._pair_index = (pair[m0[:, None], m0[None, :]], pair[m1[:, None], m1[None, :]])
        self._tables = (base, base @ d1, base @ (d1 @ d1), base @ (d1 @ d1 @ d1))

        self.radius_sq = np.sum(self.nodes**2, axis=1)
        # Hermite polynomials grow super-exponentially past the oscillatory
        # region, so eps-level coefficient noise swamps pointwise values at
        # the outermost quadrature nodes.  Those nodes still integrate
        # exactly (weights below round-off of any total), but positivity and
        # sup-norm checks only make sense on the trusted complement.
        self.trusted = np.max(np.abs(self.V), axis=1) <= TRUST_LIMIT
        for arr in (self.nodes, self.weights, self.V, self.multi_indices, self.trusted,
                    *self._tables):
            arr.flags.writeable = False

    def _build_diff(self, axis: int) -> np.ndarray:
        """d/dx_axis in coefficients: lowers the axis degree by one."""
        mat = np.zeros((self.n_basis, self.n_basis))
        for col, alpha in enumerate(self.multi_indices):
            k = alpha[axis]
            if k >= 1:
                beta = alpha.copy()
                beta[axis] = k - 1
                mat[self._index_of[tuple(beta)], col] = math.sqrt(k) / self.sigma
        return mat

    def _build_coord(self, axis: int) -> np.ndarray:
        """Multiplication by x_axis, truncated back to total degree <= N."""
        mat = np.zeros((self.n_basis, self.n_basis))
        for col, alpha in enumerate(self.multi_indices):
            k = alpha[axis]
            if k >= 1:
                beta = alpha.copy()
                beta[axis] = k - 1
                mat[self._index_of[tuple(beta)], col] = self.sigma * math.sqrt(k)
            beta = alpha.copy()
            beta[axis] = k + 1
            row = self._index_of.get(tuple(beta))
            if row is not None:
                mat[row, col] = self.sigma * math.sqrt(k + 1)
        return mat

    def _synthesize(self, coeffs: np.ndarray, axes: tuple = ()) -> np.ndarray:
        """Nodal values of d/dx_axes[0] d/dx_axes[1] ... of the field with these coefficients.

        In d = 2 the coefficients fill a (degree+1)^2 grid C and the values
        are T_a C T_b^T, with T_a the 1D table of the a-th derivative.
        """
        tables = self._tables
        if self.dim == 1:
            return tables[len(axes)] @ coeffs
        grid = np.zeros((self.degree + 1, self.degree + 1))
        grid[self._grid_index] = coeffs
        return (tables[axes.count(0)] @ grid @ tables[axes.count(1)].T).ravel()

    def _synthesize_adjoint(self, values: np.ndarray, axes: tuple = ()) -> np.ndarray:
        """Transpose of :meth:`_synthesize`: sum_n values[n] d_axes Phi_alpha(x_n) for every alpha."""
        tables = self._tables
        if self.dim == 1:
            return tables[len(axes)].T @ values
        grid = values.reshape(self.quad_order, self.quad_order)
        return (tables[axes.count(0)].T @ grid @ tables[axes.count(1)])[self._grid_index]

    def _weighted_gram(self, node_weights: np.ndarray) -> np.ndarray:
        """sum_n w_n Phi_alpha(x_n) Phi_beta(x_n) for every pair of basis functions.

        In d = 2 the sum over the grid runs one axis at a time on products
        of two 1D basis values; each entry is then gathered from its pair
        of degree pairs, which makes the result exactly symmetric.
        """
        if self.dim == 1:
            return self.V.T @ (node_weights[:, None] * self.V)
        grid = node_weights.reshape(self.quad_order, self.quad_order)
        pairs = self._pair_table
        return (pairs.T @ (grid @ pairs))[self._pair_index]

    def basis_eval(self, points: np.ndarray) -> np.ndarray:
        """Vandermonde matrix of the basis at arbitrary points, shape (m, n_basis)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise DimensionError(f"points must have {self.dim} columns, got {pts.shape}")
        tables = [_hermite_table(pts[:, ax] / self.sigma, self.degree) for ax in range(self.dim)]
        out = tables[0][:, self.multi_indices[:, 0]]
        for ax in range(1, self.dim):
            out = out * tables[ax][:, self.multi_indices[:, ax]]
        return out

    def project_nodal(self, values: np.ndarray) -> np.ndarray:
        """L^2_mu projection of nodal values onto the basis (exact for degree <= N)."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_nodes,):
            raise DimensionError(
                f"expected {self.n_nodes} nodal values (= quad_order^dim), got {values.shape}"
            )
        return self.V.T @ (self.weights * values)

    def quad(self, nodal_values: np.ndarray) -> float:
        """Quadrature integral against the normalized Gaussian measure."""
        return float(self.weights @ nodal_values)

    def norm_l2mu(self, nodal_values: np.ndarray) -> float:
        return math.sqrt(max(self.quad(np.asarray(nodal_values) ** 2), 0.0))

    def same_as(self, other: "GaussianFrame") -> bool:
        return self is other or (
            self.sigma == other.sigma
            and self.dim == other.dim
            and self.degree == other.degree
            and self.quad_order == other.quad_order
        )

    def __repr__(self):
        return (
            f"GaussianFrame(sigma={self.sigma:.6g}, dim={self.dim}, "
            f"degree={self.degree}, quad_order={self.quad_order})"
        )


def build_frame(a: float, kappa: float, lam: float, dim: int, degree: int,
                quad_order: int | None = None) -> GaussianFrame:
    """Frame whose Gaussian scale balances pressure, capillarity and confinement.

    ``sigma`` solves a/sigma^2 + kappa^2/sigma^4 = lam; the residual of that
    equation is checked to relative 1e-12 before the frame is returned.
    """
    sigma = sigma_from_coefficients(a, kappa, lam)
    residual = abs(a / sigma**2 + (kappa / sigma**2) ** 2 - lam)
    if residual > 1e-12 * max(abs(lam), 1.0):
        raise InvalidParameterError(f"sigma equation residual {residual:.3e} too large")
    return GaussianFrame(sigma, dim, degree, quad_order)


class ScalarField:
    """One scalar field: Hermite coefficients plus lazily synchronized nodal values.

    Either representation may be supplied.  A field built from coefficients
    evaluates exactly at the nodes; a field built from nodal values keeps
    those values verbatim (useful for collocation work with non-polynomial
    quantities) and exposes their projection as its coefficients.  For data
    of degree <= N the two representations round-trip to round-off.
    """

    __slots__ = ("frame", "_coeffs", "_nodal", "_synthesized")

    def __init__(self, frame: GaussianFrame, coeffs: np.ndarray | None = None,
                 nodal: np.ndarray | None = None):
        if coeffs is None and nodal is None:
            raise ValueError("ScalarField needs coeffs or nodal values")
        self.frame = frame
        if coeffs is not None:
            coeffs = np.asarray(coeffs, dtype=float)
            if coeffs.shape != (frame.n_basis,):
                raise DimensionError(f"expected {frame.n_basis} coefficients, got {coeffs.shape}")
        if nodal is not None:
            nodal = np.asarray(nodal, dtype=float)
            if nodal.shape != (frame.n_nodes,):
                raise DimensionError(f"expected {frame.n_nodes} nodal values, got {nodal.shape}")
        self._coeffs = coeffs
        self._nodal = nodal
        # the nodal values are (or will be) the synthesis of the coefficients
        self._synthesized = nodal is None

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            self._coeffs = self.frame.project_nodal(self._nodal)
        return self._coeffs

    @property
    def nodal(self) -> np.ndarray:
        if self._nodal is None:
            self._nodal = self.frame._synthesize(self._coeffs)
        return self._nodal

    def eval(self, points: np.ndarray) -> np.ndarray:
        return self.frame.basis_eval(points) @ self.coeffs


def _check_same_frame(a, b):
    if not a.frame.same_as(b.frame):
        raise DimensionError("fields live on different frames")


def _rows(values, frame: GaussianFrame, width: int, what: str) -> np.ndarray:
    """``values`` as a (dim, width) float view; any array of that many numbers."""
    values = np.asarray(values, dtype=float)
    if values.size != frame.dim * width:
        raise DimensionError(f"expected {frame.dim} x {width} {what}, got shape {values.shape}")
    return values.reshape(frame.dim, width)


class VectorField:
    """dim scalar components sharing one frame, held as two read-only arrays.

    ``coeffs`` is one (dim, n_basis) array and ``nodal`` one (dim, n_nodes)
    array, both formed once; the array given to the constructor is kept as
    a read-only view, so the caller's own array stays writable.  Given
    coefficients, the nodal rows are synthesized one at a time, so each
    equals a :class:`ScalarField`'s synthesis of that row bit for bit.
    Given nodal values, the rows are kept verbatim and the coefficients are
    their projections.
    """

    __slots__ = ("frame", "_coeffs", "_nodal", "_synthesized")

    def __init__(self, frame: GaussianFrame, coeffs: np.ndarray | None = None,
                 nodal: np.ndarray | None = None):
        if (coeffs is None) == (nodal is None):
            raise ValueError("VectorField needs either coeffs or nodal values")
        # the nodal rows are the synthesis of the coefficients
        self._synthesized = nodal is None
        if nodal is None:
            coeffs = _rows(coeffs, frame, frame.n_basis, "coefficients")
            nodal = np.empty((frame.dim, frame.n_nodes))
            for i in range(frame.dim):
                nodal[i] = frame._synthesize(coeffs[i])
        else:
            nodal = _rows(nodal, frame, frame.n_nodes, "nodal values")
            coeffs = np.stack([frame.project_nodal(row) for row in nodal])
        coeffs.flags.writeable = False
        nodal.flags.writeable = False
        self.frame = frame
        self._coeffs, self._nodal = coeffs, nodal

    @classmethod
    def zero(cls, frame: GaussianFrame) -> "VectorField":
        return cls(frame, coeffs=np.zeros((frame.dim, frame.n_basis)))

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @property
    def nodal(self) -> np.ndarray:
        return self._nodal


def transform(frame: GaussianFrame, nodal_values: np.ndarray) -> ScalarField:
    """Nodal values -> spectral field (exact interpolation for degree <= N)."""
    return ScalarField(frame, coeffs=frame.project_nodal(np.asarray(nodal_values, dtype=float)))


def multiply(f: ScalarField, g: ScalarField) -> ScalarField:
    """Dealiased product: nodal multiplication, then exact projection to degree N.

    The quadrature rule oversamples (quad_order >= 2N + 4 per axis), so the
    projection integrals of the degree-2N product are exact; this is the
    padded-grid de-aliasing realized through the frame's own rule.
    """
    _check_same_frame(f, g)
    return transform(f.frame, f.nodal * g.nodal)
