import itertools
import math

import numpy as np
import pytest

from hermflow import (
    DimensionError,
    GaussianFrame,
    InvalidParameterError,
    ScalarField,
    VectorField,
    build_frame,
    div_m,
    multiply,
    sigma_from_coefficients,
    transform,
)
from hermflow.calculus import gradient_nodal, hessian_nodal
from hermflow.sampling import random_field, random_velocity

from conftest import ladder_oracle, mode, unit_field


def gaussian_moment(sigma, k):
    # E x^k for N(0, sigma^2): (k-1)!! sigma^k for even k, else 0
    if k % 2 == 1:
        return 0.0
    return float(math.prod(range(1, k, 2))) * sigma**k


class TestSigmaEquation:
    def test_unit_case(self):
        assert sigma_from_coefficients(1.0, 1.0, 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_zero_capillarity(self):
        assert sigma_from_coefficients(2.0, 0.0, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_quadratic_root(self):
        # positive root of s^4 - s^2 - 4 = 0 in s^2
        s = sigma_from_coefficients(1.0, 2.0, 1.0)
        assert s**2 == pytest.approx((1.0 + math.sqrt(17.0)) / 2.0, rel=1e-14)
        assert 1.0 / s**2 + 4.0 / s**4 == pytest.approx(1.0, abs=1e-14)

    def test_residual_sweep(self, rng):
        for _ in range(50):
            a = 10.0 ** rng.uniform(-1, 1)
            kappa = 10.0 ** rng.uniform(-1, 0.5)
            lam = 10.0 ** rng.uniform(-1, 1)
            s = sigma_from_coefficients(a, kappa, lam)
            assert abs(a / s**2 + kappa**2 / s**4 - lam) < 1e-12 * max(lam, 1.0)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            sigma_from_coefficients(-1.0, 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            sigma_from_coefficients(1.0, 1.0, 0.0)
        with pytest.raises(InvalidParameterError):
            build_frame(1.0, -0.5, 1.0, 1, 8)


class TestFrame:
    def test_weights_normalized(self, frame_1d, frame_2d):
        for frame in (frame_1d, frame_2d):
            assert frame.weights.min() > 0.0
            assert abs(frame.weights.sum() - 1.0) < 1e-13

    def test_dimension_restriction(self):
        with pytest.raises(InvalidParameterError):
            GaussianFrame(1.0, 3, 4)

    def test_basis_count(self, frame_2d):
        n = frame_2d.degree
        assert frame_2d.n_basis == (n + 1) * (n + 2) // 2

    def test_quadrature_exactness_on_moments(self, frame_1d):
        # exact for all monomials with degree <= 2*quad_order - 2, measured
        # relative to the scale of the neighbouring even moment (odd-moment
        # cancellation is exact only up to round-off of the summands)
        sigma = frame_1d.sigma
        x = frame_1d.nodes[:, 0]
        for k in range(0, 2 * frame_1d.quad_order - 1, 7):
            val = frame_1d.quad(x**k)
            if k % 2 == 0:
                assert val == pytest.approx(gaussian_moment(sigma, k), rel=1e-12)
            else:
                assert abs(val) < 1e-12 * gaussian_moment(sigma, k + 1)

    def test_arrays_immutable(self, frame_1d):
        with pytest.raises(ValueError):
            frame_1d.weights[0] = 2.0


class TestLadderOperators:
    @pytest.mark.parametrize("dim, degree", [(1, 0), (1, 1), (1, 24), (2, 0), (2, 1), (2, 5),
                                             (2, 20)])
    @pytest.mark.parametrize("sigma", [1.0, 0.8, 0.2348, 0.23483, 1.7])
    def test_bits_match_entrywise_construction(self, dim, degree, sigma):
        # .tobytes() also tells -0.0 from 0.0
        frame = GaussianFrame(sigma, dim, degree)
        diff, coord = ladder_oracle(frame)
        for ax in range(dim):
            divm = diff[ax] - coord[ax] / sigma**2
            assert frame.divm_mats[ax].tobytes() == divm.tobytes()

    def test_basis_eval_at_nodes_is_vandermonde(self, frame_1d, frame_2d):
        # not bitwise: the nodes are sigma * y, and (sigma * y) / sigma != y
        for frame in (frame_1d, frame_2d):
            assert rel_err(frame.basis_eval(frame.nodes), frame.V) <= 1e-13


class TestTransforms:
    def test_constant(self, frame_1d):
        f = transform(frame_1d, np.ones(frame_1d.n_nodes))
        assert f.coeffs[0] == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(f.coeffs[1:])) < 1e-13

    def test_linear(self, frame_1d):
        x = frame_1d.nodes[:, 0]
        f = transform(frame_1d, x)
        expected = np.zeros(frame_1d.n_basis)
        expected[1] = frame_1d.sigma
        assert np.allclose(f.coeffs, expected, atol=1e-12)

    def test_square(self, frame_1d):
        # x^2 at sigma=1: coefficients 1 on degree 0 and sqrt(2) on degree 2
        x = frame_1d.nodes[:, 0]
        f = transform(frame_1d, x**2)
        assert f.coeffs[0] == pytest.approx(1.0, abs=1e-12)
        assert f.coeffs[2] == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert abs(f.coeffs[1]) < 1e-12

    def test_roundtrip_weighted_relative(self, frame_1d, frame_2d, rng):
        # the natural norm of the space controls the round trip; raw values
        # at far-tail nodes amplify coefficient round-off and are excluded
        for frame in (frame_1d, frame_2d):
            f = random_field(frame, rng)
            back = transform(frame, f.nodal)
            num = frame.norm_l2mu(back.nodal - f.nodal)
            den = frame.norm_l2mu(f.nodal)
            assert num / den < 1e-12

    def test_interpolation_exact_on_polynomials(self, frame_1d):
        x = frame_1d.nodes[:, 0]
        vals = 1.0 + 0.5 * x - 0.25 * x**3
        f = transform(frame_1d, vals)
        pts = np.linspace(-2.0, 2.0, 7)[:, None]
        assert np.allclose(f.eval(pts), 1.0 + 0.5 * pts[:, 0] - 0.25 * pts[:, 0] ** 3,
                           atol=1e-12)

    def test_shape_mismatch(self, frame_1d):
        with pytest.raises(Exception):
            transform(frame_1d, np.ones(frame_1d.n_nodes + 1))


class TestIntegrate:
    """The integral against the reference measure is the zero-index coefficient."""

    def test_constant(self, frame_1d):
        f = unit_field(frame_1d)
        assert f.coeffs[0] == 1.0
        assert frame_1d.quad(f.nodal) == pytest.approx(1.0, abs=1e-14)

    def test_second_moment(self, frame_1d):
        x = frame_1d.nodes[:, 0]
        assert transform(frame_1d, x**2).coeffs[0] == pytest.approx(
            frame_1d.sigma**2, rel=1e-13
        )

    def test_fourth_radial_moment_2d(self, frame_2d):
        # E|Z|^4 = E(z1^2+z2^2)^2 = 2*E z^4 + 2*(E z^2)^2 = d(d+2) sigma^4
        f = transform(frame_2d, frame_2d.radius_sq**2)
        ref = 2.0 * gaussian_moment(frame_2d.sigma, 4) + 2.0 * gaussian_moment(frame_2d.sigma, 2) ** 2
        assert f.coeffs[0] == pytest.approx(ref, rel=1e-12)
        assert ref == pytest.approx(8.0 * frame_2d.sigma**4, rel=1e-14)

    def test_matches_quadrature_sum(self, frame_1d, rng):
        f = random_field(frame_1d, rng)
        assert f.coeffs[0] == pytest.approx(frame_1d.quad(f.nodal), abs=1e-12)


def ou_apply(f: ScalarField) -> ScalarField:
    """Delta_m f = div_m(grad f), the gradient taken in coefficients.

    grad f has degree N - 1, so the truncation inside div_m drops nothing.
    """
    diff, _ = ladder_oracle(f.frame)
    return div_m(VectorField(f.frame, coeffs=[d @ f.coeffs for d in diff]))


class TestOrnsteinUhlenbeck:
    """div_m of the gradient has eigenvalue -|alpha|/sigma^2 on each basis
    function, the rates ou_semigroup and fp_step apply as exact decay."""

    def test_kernel(self, frame_1d):
        assert np.max(np.abs(ou_apply(unit_field(frame_1d)).coeffs)) == 0.0

    def test_linear(self, frame_1d):
        x = frame_1d.nodes[:, 0]
        f = transform(frame_1d, x)
        out = ou_apply(f)
        assert np.allclose(out.nodal, -x / frame_1d.sigma**2, atol=1e-10)

    def test_degree_two_eigenfunction(self, frame_1d):
        sigma = frame_1d.sigma
        x = frame_1d.nodes[:, 0]
        f = transform(frame_1d, x**2 - sigma**2)
        out = ou_apply(f)
        assert np.allclose(out.coeffs, -(2.0 / sigma**2) * f.coeffs, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_eigen_relation_full_sweep(self, frame_1d, frame_2d, dim):
        frame = frame_1d if dim == 1 else frame_2d
        for idx in range(frame.n_basis):
            f = mode(frame, idx)
            out = ou_apply(f)
            expected = -(frame.total_degree[idx] / frame.sigma**2) * f.coeffs
            assert np.max(np.abs(out.coeffs - expected)) < 1e-11

    def test_adjointness(self, frame_1d, frame_2d, rng):
        # int (Delta_m f) g dmu = -int grad f . grad g dmu
        for frame in (frame_1d, frame_2d):
            f = random_field(frame, rng)
            g = random_field(frame, rng)
            lhs = frame.quad(ou_apply(f).nodal * g.nodal)
            rhs = -frame.quad(np.einsum("in,in->n", gradient_nodal(f), gradient_nodal(g)))
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestDerivativeAndMultiply:
    def test_derivative_of_square(self, frame_1d):
        x = frame_1d.nodes[:, 0]
        d = gradient_nodal(transform(frame_1d, x**2))[0]
        assert frame_1d.norm_l2mu(d - 2.0 * x) < 1e-12

    def test_multiply_identity(self, frame_1d, rng):
        f = random_field(frame_1d, rng)
        out = multiply(unit_field(frame_1d), f)
        assert np.allclose(out.coeffs, f.coeffs, atol=1e-13)

    def test_multiply_matches_transform(self, frame_1d):
        x = frame_1d.nodes[:, 0]
        xf = transform(frame_1d, x)
        prod = multiply(xf, xf)
        direct = transform(frame_1d, x**2)
        assert np.allclose(prod.coeffs, direct.coeffs, atol=1e-13)

    def test_multiply_commutative_bilinear(self, frame_1d, rng):
        f, g, h = (random_field(frame_1d, rng) for _ in range(3))
        fg = multiply(f, g)
        gf = multiply(g, f)
        assert np.allclose(fg.coeffs, gf.coeffs, atol=1e-13)
        lhs = multiply(ScalarField(frame_1d, coeffs=f.coeffs + 2.0 * h.coeffs), g)
        rhs = ScalarField(frame_1d, coeffs=fg.coeffs + 2.0 * multiply(h, g).coeffs)
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)

    def test_multiply_needs_one_frame(self, frame_1d, rng):
        f = random_field(frame_1d, rng)
        # an equal frame built apart is the same frame: the same product, bit for bit
        twin = GaussianFrame(frame_1d.sigma, frame_1d.dim, frame_1d.degree)
        g = ScalarField(twin, coeffs=f.coeffs)
        assert np.array_equal(multiply(g, f).coeffs, multiply(f, f).coeffs)
        for sigma, dim, degree in ((2.0, 1, 16), (1.0, 2, 16), (1.0, 1, 15)):
            other = GaussianFrame(sigma, dim, degree)
            h = ScalarField(other, coeffs=np.eye(other.n_basis)[0])
            for pair in ((f, h), (h, f)):
                with pytest.raises(DimensionError, match="different frames"):
                    multiply(*pair)


# every derivative of order <= 3 in the plane, as the axes differentiated along
PLANAR_AXES = [(), (0,), (1,), (0, 0), (0, 1), (1, 1), (0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]


def dense_derivative_table(frame, axes):
    """Oracle: the dense (n_nodes, n_basis) table of d_axes Phi at the nodes."""
    diff, _ = ladder_oracle(frame)
    table = frame.V
    for ax in axes:
        table = table @ diff[ax]
    return table


def rel_err(x, ref):
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


@pytest.fixture(scope="module", params=[8, 20], ids=["degree8", "degree20"])
def planar_frame(request):
    return build_frame(1.0, 1.0, 2.0, 2, request.param)


class TestSumFactorization:
    """The 2D kernels contract one axis at a time; they must match the dense tables."""

    @pytest.mark.parametrize("axes", PLANAR_AXES, ids=str)
    def test_synthesis(self, planar_frame, axes):
        c = random_field(planar_frame, np.random.default_rng(3), decay=0.8).coeffs
        ref = dense_derivative_table(planar_frame, axes) @ c
        assert rel_err(planar_frame._synthesize(c, axes), ref) <= 1e-13

    def test_public_derivatives(self, planar_frame):
        f = random_field(planar_frame, np.random.default_rng(4), decay=0.8)
        assert rel_err(f.nodal, planar_frame.V @ f.coeffs) <= 1e-13
        grad = gradient_nodal(f)
        hess = hessian_nodal(f)
        for i in range(2):
            assert rel_err(grad[i], dense_derivative_table(planar_frame, (i,)) @ f.coeffs) <= 1e-13
            for j in range(2):
                ref = dense_derivative_table(planar_frame, (i, j)) @ f.coeffs
                assert rel_err(hess[i, j], ref) <= 1e-13

    @pytest.mark.parametrize("axes", [(), (0,), (1,)], ids=str)
    def test_test_function_projection(self, planar_frame, axes):
        # the products momentum_rhs forms against the basis and its gradient
        x = planar_frame.weights * np.random.default_rng(5).standard_normal(planar_frame.n_nodes)
        ref = dense_derivative_table(planar_frame, axes).T @ x
        assert rel_err(planar_frame._synthesize_adjoint(x, axes), ref) <= 1e-13

    def test_weighted_gram(self, planar_frame):
        # node weights of both signs, not only densities: the gather makes
        # the Gram matrix bitwise symmetric whatever the weights are
        w = planar_frame.weights * np.random.default_rng(8).standard_normal(planar_frame.n_nodes)
        gram = planar_frame._weighted_gram(w)
        assert np.array_equal(gram, gram.T)
        ref = planar_frame.V.T @ (w[:, None] * planar_frame.V)
        assert rel_err(gram, ref) <= 1e-13

    def test_one_dimensional_path_is_dense(self, frame_1d):
        # in 1D synthesis multiplies by V, V D, V (D D) and V (D D D), the
        # tables of the dense path, so 1D runs keep their bits
        c = random_field(frame_1d, np.random.default_rng(6)).coeffs
        x = frame_1d.weights * np.random.default_rng(7).standard_normal(frame_1d.n_nodes)
        d = ladder_oracle(frame_1d)[0][0]
        dense = [frame_1d.V, frame_1d.V @ d, frame_1d.V @ (d @ d), frame_1d.V @ (d @ d @ d)]
        for order, table in enumerate(dense):
            assert np.array_equal(frame_1d._synthesize(c, (0,) * order), table @ c)
        for order in (0, 1):
            assert np.array_equal(frame_1d._synthesize_adjoint(x, (0,) * order), dense[order].T @ x)


def component_lists(frame, rng):
    """Each way a VectorField is built, with the components it must agree with."""
    coeffs = rng.standard_normal((frame.dim, frame.n_basis)) * 0.5**frame.total_degree
    nodal = np.exp(0.3 * frame.nodes.T)
    seed = int(rng.integers(1 << 30))
    drawn = np.random.default_rng(seed)
    return {
        "zero": (VectorField.zero(frame),
                 [ScalarField(frame, coeffs=np.zeros(frame.n_basis))] * frame.dim),
        "coeffs": (VectorField(frame, coeffs=coeffs),
                   [ScalarField(frame, coeffs=c) for c in coeffs]),
        "nodal": (VectorField(frame, nodal=nodal), [ScalarField(frame, nodal=v) for v in nodal]),
        # one random_field draw per component, in component order
        "random_velocity": (random_velocity(frame, np.random.default_rng(seed)),
                            [random_field(frame, drawn) for _ in range(frame.dim)]),
    }


@pytest.mark.parametrize("frame_name", ["frame_1d", "frame_2d"])
class TestVectorFieldArrays:
    def test_arrays_match_components(self, frame_name, request):
        frame = request.getfixturevalue(frame_name)
        for name, (u, comps) in component_lists(frame, np.random.default_rng(8)).items():
            for i, c in enumerate(comps):
                assert np.array_equal(u.coeffs[i], c.coeffs), name
                assert np.array_equal(u.nodal[i], c.nodal), name
            assert u.coeffs.shape == (frame.dim, frame.n_basis)
            assert u.nodal.shape == (frame.dim, frame.n_nodes)

    def test_construction_contract(self, frame_name, request):
        frame = request.getfixturevalue(frame_name)
        coeffs = np.ones((frame.dim, frame.n_basis))
        nodal = np.ones((frame.dim, frame.n_nodes))
        for kwargs in ({}, {"coeffs": coeffs, "nodal": nodal}):
            with pytest.raises(ValueError):
                VectorField(frame, **kwargs)
        for kwargs in ({"coeffs": coeffs[:, 1:]}, {"nodal": nodal[:, 1:]}):
            with pytest.raises(DimensionError):
                VectorField(frame, **kwargs)
        # any array of dim x n_basis numbers, as a state file stores it
        flat = VectorField(frame, coeffs=coeffs.ravel())
        assert np.array_equal(flat.coeffs, coeffs)

    def test_arrays_read_only(self, frame_name, request):
        frame = request.getfixturevalue(frame_name)
        for cls, rows in ((ScalarField, ()), (VectorField, (frame.dim,))):
            for kind, width in (("coeffs", frame.n_basis), ("nodal", frame.n_nodes)):
                given = np.ones(rows + (width,))
                f = cls(frame, **{kind: given})
                assert np.shares_memory(getattr(f, kind), given)
                for arr in (f.coeffs, f.nodal):  # the given array and the one formed from it
                    with pytest.raises(ValueError):
                        arr[..., 0] = 2.0
                given[..., 0] = 3.0  # the caller's own array stays writable

    def test_gradients_are_stacked_syntheses(self, frame_name, request):
        frame = request.getfixturevalue(frame_name)
        rng = np.random.default_rng(10)
        f = random_field(frame, rng)
        grad = np.stack([frame._synthesize(f.coeffs, (ax,)) for ax in range(frame.dim)])
        assert np.array_equal(gradient_nodal(f), grad)
        u = random_velocity(frame, rng)
        du = np.stack([np.stack([frame._synthesize(c, (k,)) for k in range(frame.dim)])
                       for c in u.coeffs])
        assert np.array_equal(gradient_nodal(u), du)

    def test_derivatives_are_syntheses_per_axis_tuple(self, frame_name, request):
        frame = request.getfixturevalue(frame_name)
        rng = np.random.default_rng(11)
        for f in (random_field(frame, rng), random_velocity(frame, rng)):
            rows = f.coeffs.reshape(-1, frame.n_basis)
            for order in range(4):
                got = f.derivatives(order)
                assert got.shape == f.coeffs.shape[:-1] + (frame.dim,) * order + (frame.n_nodes,)
                got = got.reshape(len(rows), -1, frame.n_nodes)
                for r, c in enumerate(rows):
                    axis_tuples = itertools.product(range(frame.dim), repeat=order)
                    for pos, axes in enumerate(axis_tuples):
                        assert np.array_equal(got[r, pos], frame._synthesize(c, axes)), (order, axes)


@pytest.mark.parametrize("frame_name", ["frame_1d", "frame_2d"])
class TestStack:
    @staticmethod
    def counted(monkeypatch):
        """Count the frame's syntheses and projections from here on."""
        calls = []
        for name in ("derivatives", "project_nodal"):
            original = getattr(GaussianFrame, name)

            def counting(self, *args, _original=original, _name=name):
                calls.append(_name)
                return _original(self, *args)
            monkeypatch.setattr(GaussianFrame, name, counting)
        return calls

    def test_formed_arrays_are_stacked_as_they_are(self, frame_name, request, monkeypatch):
        frame = request.getfixturevalue(frame_name)
        rng = np.random.default_rng(12)
        x = frame.nodes.T
        for fields in ([random_field(frame, rng) for _ in range(3)],
                       [random_velocity(frame, rng) for _ in range(2)]
                       + [VectorField(frame, nodal=np.sin(x))]):
            for f in fields:  # every field forms both arrays
                f.coeffs, f.nodal
            calls = self.counted(monkeypatch)
            stack = type(fields[0]).stack(fields)
            for k, f in enumerate(fields):
                assert np.array_equal(stack.coeffs[k], f.coeffs)
                assert np.array_equal(stack.nodal[k], f.nodal)
            assert calls == []
            monkeypatch.undo()

    def test_unformed_arrays_are_formed_for_the_stack(self, frame_name, request, monkeypatch):
        # no field has formed its nodal values: the stack synthesizes once,
        # and each row equals its field's own synthesis bit for bit
        frame = request.getfixturevalue(frame_name)
        rng = np.random.default_rng(13)
        fields = [random_velocity(frame, rng) for _ in range(3)]
        calls = self.counted(monkeypatch)
        stack = VectorField.stack(fields)
        assert calls == [] and stack._nodal is None
        nodal = stack.nodal
        assert calls == ["derivatives"]
        monkeypatch.undo()
        for k, f in enumerate(fields):
            assert np.array_equal(nodal[k], f.nodal)


def test_fields_have_no_arithmetic():
    # a field is built from coefficients or nodal values; sums and scalings
    # are formed on the arrays, so each quantity has one way to be formed
    for cls in (ScalarField, VectorField):
        for op in ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__"):
            assert not hasattr(cls, op), (cls.__name__, op)
