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
factorization).  The density step tests its flux rows against the basis
through that transpose as well.  The nodes-to-coefficients projection
(:meth:`GaussianFrame.project_nodal`) stays one dense (basis size times
node count) product, for the projections that form a state: initial
data, fields built from nodal values and the dealiased ``|u|^2``.  In
d = 1 every transform is a plain dense product.
"""

from __future__ import annotations

import itertools
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


def _basis_values(tables, multi_indices: np.ndarray) -> np.ndarray:
    """Every basis function at every point, shape (points, n_basis): the product
    of its per-axis columns of the 1D ``tables``, one per axis, which may come
    from a generator; each is dropped once its columns are taken."""
    return math.prod(map(lambda t, m: t[:, m], tables, multi_indices.T))


def _axis_sets(dim: int, order: int) -> tuple:
    """((axes, positions), ...): each sorted tuple of ``order`` axes, with the
    flat positions in a (dim,) * order block whose indices are its permutations."""
    sets = {}
    for pos, axes in enumerate(itertools.product(range(dim), repeat=order)):
        sets.setdefault(tuple(sorted(axes)), []).append(pos)
    return tuple(sets.items())


class GaussianFrame:
    """Quadrature rule, basis tables and operator matrices for one measure.

    Immutable after construction; shared freely between fields.  ``degree``
    truncates by *total* degree in d = 2.  ``quad_order``, the number of
    Gauss-Hermite points per axis, is ``2*degree + 4``: every bilinear form
    of degree-N fields, with one dealiased product inside, is integrated
    exactly.
    """

    def __init__(self, sigma: float, dim: int, degree: int):
        if sigma <= 0.0:
            raise InvalidParameterError(f"sigma must be positive, got {sigma}")
        if dim not in (1, 2):
            raise InvalidParameterError(f"dim must be 1 or 2, got {dim}")
        if degree < 0:
            raise InvalidParameterError(f"degree must be non-negative, got {degree}")
        self.sigma = float(sigma)
        self.dim = int(dim)
        self.degree = int(degree)
        self.quad_order = quad_order = 2 * self.degree + 4

        # per-axis rule for the normalized Gaussian of variance sigma^2
        y, v = hermite_e.hermegauss(quad_order)
        self.nodes_1d = self.sigma * y
        weights_1d = v / math.sqrt(2.0 * math.pi)

        self.multi_indices = _multi_indices(dim, degree)
        self.total_degree = self.multi_indices.sum(axis=1)
        self.n_basis = self.multi_indices.shape[0]

        table = _hermite_table(y, degree)  # orthonormal in the normalized measure
        # tensor grid: the per-axis index of every node, first axis slowest
        grid = [g.ravel() for g in np.meshgrid(*[np.arange(quad_order)] * dim, indexing="ij")]
        self.nodes = np.column_stack([self.nodes_1d[g] for g in grid])
        self.weights = math.prod(weights_1d[g] for g in grid)
        self.V = _basis_values((table[g] for g in grid), self.multi_indices)
        self.n_nodes = self.nodes.shape[0]

        # div_m along each axis, D - X / sigma^2 with the degree-(N+1) part
        # dropped, from the ladder relations d/dx He_k = sqrt(k) He_{k-1} / sigma
        # and x He_k = sigma (sqrt(k+1) He_{k+1} + sqrt(k) He_{k-1}): with L the
        # lowering matrix, sqrt(k) at (alpha - e_ax, alpha), D = L / sigma and
        # X = sigma (L + L^T), written on L's entries and their mirrors only (the
        # two never overlap).  Basis positions sit on a (degree+2)^dim grid
        # holding -1 past the truncation, where a degree lowered below 0 lands.
        position = np.full((degree + 2,) * dim, -1)
        position[tuple(self.multi_indices.T)] = np.arange(self.n_basis)
        self.divm_mats = np.zeros((dim, self.n_basis, self.n_basis))
        for ax, divm in enumerate(self.divm_mats):
            lowered = position[tuple((self.multi_indices - np.eye(dim, dtype=np.int64)[ax]).T)]
            cols = np.flatnonzero(lowered >= 0)
            rows, root_k = lowered[cols], np.sqrt(self.multi_indices[cols, ax])
            coord = self.sigma * root_k / self.sigma**2
            divm[rows, cols] = root_k / self.sigma - coord
            divm[cols, rows] = -coord
        # 1D tables of the basis and of its first three derivatives: T, T D,
        # T D^2, T D^3 for the 1D derivative matrix D = L / sigma (in d = 1,
        # T is V, whose memory layout picks the BLAS kernel and so the last
        # bit of every 1D synthesis)
        d1 = np.diag(np.sqrt(np.arange(1.0, degree + 1)) / self.sigma, k=1)
        base = self.V if dim == 1 else table
        self._tables = (base, table @ d1, table @ (d1 @ d1), table @ (d1 @ d1 @ d1))
        # each distinct set of 0..3 derivative axes, with the positions in a
        # (dim,) * order block that name it
        self._axis_sets = tuple(_axis_sets(dim, order) for order in range(len(self._tables)))
        # read in d = 2 only (d = 1 multiplies by V): synthesis fills a
        # (degree+1)^2 grid of coefficients, behind any leading stack axes;
        # mass assembly uses products of two 1D basis values, one column per
        # unordered degree pair (a, b), and the flat position of each Gram
        # entry in their product table
        self._grid_index = (..., *self.multi_indices.T)
        a, b = np.triu_indices(degree + 1)
        pair = np.empty((degree + 1, degree + 1), dtype=np.int64)
        pair[a, b] = pair[b, a] = np.arange(a.size)
        self._pair_table = table[:, a] * table[:, b]
        self._gram_index = np.ravel_multi_index(
            tuple(pair[m[:, None], m[None, :]] for m in self.multi_indices.T), (a.size,) * dim)

        self.radius_sq = np.sum(self.nodes**2, axis=1)
        # Hermite polynomials grow super-exponentially past the oscillatory
        # region, so eps-level coefficient noise swamps pointwise values at
        # the outermost quadrature nodes.  Those nodes still integrate
        # exactly (weights below round-off of any total), but positivity and
        # sup-norm checks only make sense on the trusted complement.
        self.trusted = np.max(np.abs(self.V), axis=1) <= TRUST_LIMIT
        self._trusted_mask = self.trusted.astype(float)  # 1.0 on trusted nodes, else 0.0
        for arr in (self.nodes, self.weights, self.V, self.multi_indices, self.trusted,
                    self._trusted_mask, *self._tables):
            arr.flags.writeable = False
        # the tables' transposes, formed once: the same views as ``table.T``
        self._adjoint_tables = tuple(t.T for t in self._tables)

    # The transforms below act on each row of any leading (stack) axes: every
    # row meets the tables in its own BLAS product, so a row of a stack
    # equals that row alone bit for bit.

    def _synthesize(self, coeffs: np.ndarray, axes: tuple = ()) -> np.ndarray:
        """Nodal values of d/dx_axes[0] d/dx_axes[1] ... of the field with these
        coefficients, for each row of ``coeffs``.

        In d = 2 the coefficients fill a (degree+1)^2 grid C and the values
        are T_a C T_b^T, with T_a the 1D table of the a-th derivative.
        """
        if self.dim == 1:
            return _matvec(self._tables[len(axes)], coeffs)
        lead = coeffs.shape[:-1]
        grid = np.zeros(lead + (self.degree + 1, self.degree + 1))
        grid[self._grid_index] = coeffs
        values = np.matmul(np.matmul(self._tables[axes.count(0)], grid),
                           self._adjoint_tables[axes.count(1)])
        return values.reshape(lead + (self.n_nodes,))

    def _synthesize_adjoint(self, values: np.ndarray, axes: tuple = ()) -> np.ndarray:
        """Transpose of :meth:`_synthesize`: sum_n values[n] d_axes Phi_alpha(x_n)
        for every alpha, for each row of ``values``."""
        if self.dim == 1:  # _matvec of the transposed table, inlined in this hot path
            table = self._adjoint_tables[len(axes)]
            return (table @ values if values.ndim == 1
                    else np.matmul(table, values[..., None])[..., 0])
        grid = values.reshape(values.shape[:-1] + (self.quad_order, self.quad_order))
        out = np.matmul(np.matmul(self._adjoint_tables[axes.count(0)], grid),
                        self._tables[axes.count(1)])
        return out[self._grid_index]

    def _weighted_gram(self, node_weights: np.ndarray) -> np.ndarray:
        """sum_n w_n Phi_alpha(x_n) Phi_beta(x_n) for every pair of basis
        functions, one matrix per row of ``node_weights``.

        The result is exactly symmetric in both dimensions.  In d = 2 the
        sum over the grid runs one axis at a time on products of two 1D
        basis values; each entry is then gathered, by one flat index, from
        its pair of unordered degree pairs, so (alpha, beta) and
        (beta, alpha) read the same number.  In d = 1 the dense product is
        symmetrized.
        """
        if self.dim == 1:
            mat = np.matmul(self.V.T, node_weights[..., None] * self.V)
            return 0.5 * (mat + mat.mT)
        lead = node_weights.shape[:-1]
        grid = node_weights.reshape(lead + (self.quad_order, self.quad_order))
        pairs = self._pair_table
        sums = np.matmul(pairs.T, np.matmul(grid, pairs))
        return sums.reshape(lead + (-1,)).take(self._gram_index, axis=-1)

    def derivatives(self, coeffs: np.ndarray, order: int) -> np.ndarray:
        """Exact nodal derivatives of each row of ``coeffs``, shape
        coeffs.shape[:-1] + (dim,) * order + (n_nodes,).

        Entry [..., a_1, ..., a_order, :] is d/dx_a_1 ... d/dx_a_order of the
        row, for order <= 3; order 0 is the synthesis.  Any leading shape is
        accepted, and every row is synthesized on its own, so a row of a
        stack equals that row alone bit for bit.  Derivatives commute, so in
        d = 2 each distinct set of axes is synthesized once and copied to
        its permutations.
        """
        if self.dim == 1:
            # a single axis set: _matvec of the order's 1D table, inlined in
            # this hot path; at order 0 already of the synthesis's shape
            table = self._tables[order]
            values = (table @ coeffs if coeffs.ndim == 1
                      else np.matmul(table, coeffs[..., None])[..., 0])
            return values.reshape(coeffs.shape[:-1] + (1,) * order + (self.n_nodes,)) \
                if order else values
        out = np.empty(coeffs.shape[:-1] + (self.dim**order, self.n_nodes))
        for axes, positions in self._axis_sets[order]:
            values = self._synthesize(coeffs, axes)
            for pos in positions:
                out[..., pos, :] = values
        return out.reshape(coeffs.shape[:-1] + (self.dim,) * order + (self.n_nodes,))

    def basis_eval(self, points: np.ndarray) -> np.ndarray:
        """Vandermonde matrix of the basis at arbitrary points, shape (m, n_basis)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise DimensionError(f"points must have {self.dim} columns, got {pts.shape}")
        return _basis_values((_hermite_table(pts[:, ax] / self.sigma, self.degree)
                              for ax in range(self.dim)), self.multi_indices)

    def project_nodal(self, values: np.ndarray) -> np.ndarray:
        """L^2_mu projection of nodal values onto the basis (exact for degree <= N).

        Leading axes of ``values`` are kept: each row is projected by its
        own matrix-vector product, so it equals its projection alone bit
        for bit.
        """
        values = np.asarray(values, dtype=float)
        if values.shape[-1:] != (self.n_nodes,):
            raise DimensionError(
                f"expected {self.n_nodes} nodal values (= quad_order^dim), got {values.shape}"
            )
        return _matvec(self.V.T, self.weights * values)

    def quad(self, nodal_values: np.ndarray) -> float:
        """Quadrature integral against the normalized Gaussian measure."""
        return float(self.weights @ nodal_values)

    def norm_l2mu(self, nodal_values: np.ndarray) -> float:
        return math.sqrt(max(self.quad(np.asarray(nodal_values) ** 2), 0.0))

    def __repr__(self):
        return (
            f"GaussianFrame(sigma={self.sigma:.6g}, dim={self.dim}, "
            f"degree={self.degree}, quad_order={self.quad_order})"
        )


def build_frame(a: float, kappa: float, lam: float, dim: int, degree: int) -> GaussianFrame:
    """Frame whose Gaussian scale balances pressure, capillarity and confinement.

    ``sigma`` solves a/sigma^2 + kappa^2/sigma^4 = lam; the residual of that
    equation is checked to relative 1e-12 before the frame is returned.
    """
    sigma = sigma_from_coefficients(a, kappa, lam)
    residual = abs(a / sigma**2 + (kappa / sigma**2) ** 2 - lam)
    if residual > 1e-12 * max(abs(lam), 1.0):
        raise InvalidParameterError(f"sigma equation residual {residual:.3e} too large")
    return GaussianFrame(sigma, dim, degree)


class ScalarField:
    """One field on a frame: Hermite coefficients and nodal values, each formed from the other.

    Exactly one representation is given; the other is formed on first use.
    A field built from coefficients evaluates exactly at the nodes; one
    built from nodal values keeps them verbatim (collocation work with
    non-polynomial quantities) and exposes their projection as its
    coefficients.  For data of degree <= N the two round-trip to round-off.
    Both arrays are read-only; the array given to the constructor is kept
    as a read-only view, so the caller's own array stays writable.

    Leading axes before the field's own shape stack several states'
    fields, one member per leading index (:meth:`stack`, :meth:`take`).
    Every transform runs row by row, so each member's arrays equal, bit
    for bit, those of the member's field alone.

    ``coeffs`` is a plain slot, read without a call wherever it is set;
    only a field built from nodal values reaches :meth:`__getattr__`, once,
    to project them.
    """

    __slots__ = ("frame", "coeffs", "_nodal")
    _vector = False  # a vector field's arrays have one row per axis

    def __init__(self, frame: GaussianFrame, coeffs: np.ndarray | None = None,
                 nodal: np.ndarray | None = None):
        if (coeffs is None) == (nodal is None):
            raise ValueError(f"{type(self).__name__} needs either coeffs or nodal values")
        self.frame = frame
        # the given array as a read-only view: (..., width), or
        # (..., dim, width) for a vector field, or any array of exactly
        # that many numbers for one field
        values = np.asarray(nodal if coeffs is None else coeffs, dtype=float)
        width, what = ((frame.n_nodes, "nodal values") if coeffs is None
                       else (frame.n_basis, "coefficients"))
        shape = (frame.dim, width) if self._vector else (width,)
        if values.shape != shape and values.shape[-len(shape):] != shape:
            try:
                values = values.reshape(shape)
            except ValueError:
                raise DimensionError(
                    f"expected {shape} {what}, got shape {values.shape}") from None
        view = values.view()
        view.setflags(write=False)
        if coeffs is None:
            self._nodal = view
        else:
            self.coeffs, self._nodal = view, None

    @classmethod
    def _formed(cls, frame: GaussianFrame, coeffs, nodal):
        """A field from arrays already formed (either may be None), kept
        read-only as they are."""
        field = cls.__new__(cls)
        field.frame, field._nodal = frame, nodal
        # write=False, by position: numpy parses the keyword slower than it
        # sets the flag, and every sweep forms several fields
        if coeffs is not None:
            field.coeffs = coeffs
            coeffs.setflags(False)
        if nodal is not None:
            nodal.setflags(False)
        return field

    @classmethod
    def stack(cls, fields):
        """The fields of a sequence stacked along a new leading member axis.

        The coefficients are stacked, and so are the nodal values when any
        field has formed them (the others forming theirs), so no array a
        field has formed is formed again; otherwise the nodal values are
        synthesized for the whole stack on first use.
        """
        nodal = (None if all(f._nodal is None for f in fields)
                 else np.stack([f.nodal for f in fields]))
        return cls._formed(fields[0].frame, np.stack([f.coeffs for f in fields]), nodal)

    def take(self, index):
        """The members of a stacked field at ``index`` of its member axis
        (an integer gives one member's field), with the arrays formed so far."""
        try:  # the coefficients only if formed: a plain slot read projects nothing
            coeffs = object.__getattribute__(self, "coeffs")[index]
        except AttributeError:
            coeffs = None
        return type(self)._formed(self.frame, coeffs,
                                  None if self._nodal is None else self._nodal[index])

    def __getattr__(self, name):
        """The coefficients of a field built from nodal values, projected on
        first use; the only attribute formed here."""
        if name != "coeffs":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        coeffs = self.coeffs = self.frame.project_nodal(self._nodal)
        coeffs.setflags(write=False)
        return coeffs

    @property
    def nodal(self) -> np.ndarray:
        if self._nodal is None:
            self._nodal = self.frame.derivatives(self.coeffs, 0)
            self._nodal.setflags(False)
        return self._nodal

    def derivatives(self, order: int) -> np.ndarray:
        """Exact nodal derivatives of each row, shape rows + (dim,) * order + (n_nodes,).

        Entry [..., a_1, ..., a_order, :] is d/dx_a_1 ... d/dx_a_order of the
        row, for order <= 3 (see :meth:`GaussianFrame.derivatives`).
        """
        return self.frame.derivatives(self.coeffs, order)

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Values of each row at arbitrary points, shape rows + (m,)."""
        return (self.frame.basis_eval(points) @ self.coeffs.T).T


class VectorField(ScalarField):
    """dim scalar rows on one frame, the velocity space Phi_beta e_i.

    ``coeffs`` is one (dim, n_basis) array and ``nodal`` one (dim, n_nodes)
    array, each with the leading member axes of a stack; for one field any
    array of that many numbers is accepted, as a state file stores it.  Each
    row is formed on its own, so it equals a :class:`ScalarField`'s array
    for that row bit for bit.
    """

    __slots__ = ()
    _vector = True

    @classmethod
    def zero(cls, frame: GaussianFrame) -> "VectorField":
        return cls(frame, coeffs=np.zeros((frame.dim, frame.n_basis)))


def _matvec(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``matrix @ row`` for each row (last axis) of ``rows``, each by its own
    BLAS product, so a row of a stack gets the bits of that row alone."""
    if rows.ndim == 1:
        return matrix @ rows
    return np.matmul(matrix, rows[..., None])[..., 0]


def _row_norms(rows: np.ndarray) -> list[float]:
    """Euclidean norm of each row (last axis) of ``rows``, as floats; each
    row by its own BLAS dot, so a row of a stack gets the bits of
    ``row @ row`` alone."""
    if rows.ndim == 1:
        return [math.sqrt(rows @ rows)]
    return np.sqrt(np.matmul(rows[..., None, :], rows[..., :, None])[..., 0, 0]).tolist()


def transform(frame: GaussianFrame, nodal_values: np.ndarray) -> ScalarField:
    """Nodal values -> spectral field (exact interpolation for degree <= N)."""
    return ScalarField(frame, coeffs=frame.project_nodal(np.asarray(nodal_values, dtype=float)))


def multiply(f: ScalarField, g: ScalarField) -> ScalarField:
    """Dealiased product: nodal multiplication, then exact projection to degree N.

    The quadrature rule oversamples (2N + 4 points per axis), so the
    projection integrals of the degree-2N product are exact; this is the
    padded-grid de-aliasing realized through the frame's own rule.
    """
    a, b = f.frame, g.frame
    if a is not b and (a.sigma, a.dim, a.degree) != (b.sigma, b.dim, b.degree):
        raise DimensionError("fields live on different frames")
    return transform(f.frame, f.nodal * g.nodal)
