import numpy as np
import pytest

from hermflow import (
    InvalidParameterError,
    ModelParams,
    PositivityError,
    ScalarField,
    StateBundle,
    VectorField,
    div_m,
)
from hermflow.calculus import (
    bohm_residual,
    gradient_nodal,
    korteweg_consistency,
    require_positive,
)
from hermflow.sampling import random_density, random_field, random_velocity, tilted_density
from hermflow.spectral import build_frame, transform

from conftest import unit_field


def grad_parts(u):
    """Symmetric/skew split D + A = grad u, as the solver's bundle forms it."""
    b = StateBundle(unit_field(u.frame), u)
    return b.dsym, b.askew


class TestModelParams:
    def test_valid(self):
        p = ModelParams(a=1.0, kappa=0.0, nu=0.5, lam=2.0, r0=1.0, delta1=0.3)
        assert p.r1 == 0.0

    @pytest.mark.parametrize("kw", [
        dict(a=0.0, kappa=1.0, nu=0.5, lam=2.0),
        dict(a=1.0, kappa=-1.0, nu=0.5, lam=2.0),
        dict(a=1.0, kappa=1.0, nu=0.5, lam=2.0, r4=1.5),
        dict(a=1.0, kappa=1.0, nu=0.5, lam=2.0, delta1=-0.1),
        # squares that overflow
        dict(a=1e300, kappa=1.0, nu=0.5, lam=2.0),
        dict(a=1.0, kappa=2e154, nu=0.5, lam=2.0),
        dict(a=1.0, kappa=1.0, nu=1e300, lam=2.0),
        dict(a=1.0, kappa=1.0, nu=0.5, lam=1.4e154),
    ])
    def test_invalid(self, kw):
        with pytest.raises(InvalidParameterError):
            ModelParams(**kw)


class TestTwistedDivergence:
    def test_linear_field_at_point(self, frame_1d):
        x = frame_1d.nodes[:, 0]
        v = VectorField(frame_1d, nodal=x)
        out = div_m(v)
        assert out.eval(np.array([[2.0]]))[0] == pytest.approx(-3.0, abs=1e-11)

    def test_constant_field(self, frame_1d):
        v = VectorField(frame_1d, coeffs=unit_field(frame_1d).coeffs)
        out = div_m(v)
        x = frame_1d.nodes[:, 0]
        assert frame_1d.norm_l2mu(out.nodal + x / frame_1d.sigma**2) < 1e-12

    def test_cubic_identity(self, frame_1d):
        # div_m(|x|^2 x) = (d+2)|x|^2 - |x|^4/sigma^2 in d=1
        x = frame_1d.nodes[:, 0]
        v = VectorField(frame_1d, nodal=x**3)
        out = div_m(v)
        ref = 3.0 * x**2 - x**4 / frame_1d.sigma**2
        assert frame_1d.norm_l2mu(out.nodal - ref) < 1e-12

    def test_mean_zero(self, frame_2d, rng):
        v = random_velocity(frame_2d, rng)
        assert abs(div_m(v).coeffs[0]) < 1e-14

    def test_integration_by_parts(self, frame_1d, frame_2d, rng):
        for frame in (frame_1d, frame_2d):
            q = random_field(frame, rng)
            v = random_velocity(frame, rng)
            gq = gradient_nodal(q)
            lhs = sum(frame.quad(gq[ax] * v.nodal[ax]) for ax in range(frame.dim))
            rhs = -frame.quad(q.nodal * div_m(v).nodal)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_tensor_integration_by_parts(self, frame_2d, rng):
        # int div_m(D(v)) . w = -int D(v):D(w), div_m taken row by row
        v = random_velocity(frame_2d, rng)
        w = random_velocity(frame_2d, rng)
        dv, _ = grad_parts(v)
        dw, _ = grad_parts(w)
        lhs = sum(
            frame_2d.quad(div_m(VectorField(frame_2d, nodal=dv[i])).nodal * w.nodal[i])
            for i in range(2)
        )
        rhs = -frame_2d.quad(np.einsum("ijn,ijn->n", dv, dw))
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestGradParts:
    def test_identity_flow(self, frame_2d):
        x, y = frame_2d.nodes[:, 0], frame_2d.nodes[:, 1]
        u = VectorField(frame_2d, nodal=[x, y])
        d, a = grad_parts(u)
        assert np.max(np.abs(d - d.transpose(1, 0, 2))) == 0.0
        assert np.max(np.abs(a + a.transpose(1, 0, 2))) == 0.0
        assert frame_2d.norm_l2mu(d[0, 0] - 1.0) < 1e-12
        assert frame_2d.norm_l2mu(d[0, 1]) < 1e-12
        assert max(frame_2d.norm_l2mu(a[i, j]) for i in range(2) for j in range(2)) < 1e-12

    def test_rotation(self, frame_2d):
        x, y = frame_2d.nodes[:, 0], frame_2d.nodes[:, 1]
        u = VectorField(frame_2d, nodal=[-y, x])
        d, a = grad_parts(u)
        assert max(frame_2d.norm_l2mu(d[i, j]) for i in range(2) for j in range(2)) < 1e-12
        # A = (grad u - grad u^T)/2 with grad u = [[0,-1],[1,0]]
        assert frame_2d.norm_l2mu(a[0, 1] + 1.0) < 1e-12

    def test_shear(self, frame_2d):
        x, y = frame_2d.nodes[:, 0], frame_2d.nodes[:, 1]
        u = VectorField(frame_2d, nodal=[x * y, 0.0 * x])
        d, a = grad_parts(u)
        assert frame_2d.norm_l2mu(d[0, 1] - x / 2.0) < 1e-12
        assert frame_2d.norm_l2mu(a[0, 1] - x / 2.0) < 1e-12

    def test_decomposition_sums_to_gradient(self, frame_2d, rng):
        u = random_velocity(frame_2d, rng)
        d, a = grad_parts(u)
        g01 = gradient_nodal(ScalarField(frame_2d, coeffs=u.coeffs[0]))[1]
        assert frame_2d.norm_l2mu(d[0, 1] + a[0, 1] - g01) < 1e-13


class TestCapillarityStress:
    def test_equilibrium_vanishes(self, frame_1d):
        s = StateBundle(unit_field(frame_1d)).stress
        assert np.max(np.abs(s)) == 0.0

    def test_tilt_vanishes(self, frame_1d_fine):
        # affine log-density has zero capillarity stress up to truncation,
        # on the trusted nodes where both parts of the stress are formed
        q = tilted_density(frame_1d_fine, 0.4)
        s = StateBundle(q).stress
        assert frame_1d_fine.norm_l2mu(s[0, 0] * frame_1d_fine.trusted) < 1e-10

    def test_two_forms_agree(self, frame_1d, frame_2d, rng):
        for frame in (frame_1d, frame_2d):
            for _ in range(5):
                q = random_density(frame, rng)
                assert korteweg_consistency(q) < 1e-10

    def test_positivity_violation_carries_node(self, frame_1d):
        x = frame_1d.nodes[:, 0]
        bad = transform(frame_1d, 0.1 + 0.2 * x)  # negative on trusted nodes
        with pytest.raises(PositivityError) as err:
            StateBundle(bad)
        assert err.value.node is not None
        assert err.value.value < 0.1

    def test_nan_density_is_a_positivity_violation(self):
        # one NaN coefficient poisons every node; NaN < floor is false, so
        # the check must fail on "not >= floor"
        frame = build_frame(1.0, 1.0, 2.0, 1, 8)
        coeffs = np.zeros(frame.n_basis)
        coeffs[0], coeffs[3] = 1.0, np.nan
        with pytest.raises(PositivityError) as err:
            require_positive(ScalarField(frame, coeffs=coeffs))
        assert np.isnan(err.value.value)

    def test_nan_at_one_trusted_node(self, frame_1d):
        values = np.ones(frame_1d.n_nodes)
        values[frame_1d.n_nodes // 2] = np.nan
        with pytest.raises(PositivityError):
            StateBundle(ScalarField(frame_1d, nodal=values))


class TestHessianLog:
    def test_equilibrium(self, frame_1d):
        h = StateBundle(unit_field(frame_1d)).glog
        assert np.max(np.abs(h)) == 0.0

    def test_gaussian_ratio(self, frame_1d_fine):
        # q = c exp(-x^2/8): ln q has second derivative -1/4, so
        # sqrt(q) D^2(ln q) = -sqrt(q)/4
        frame = frame_1d_fine
        x = frame.nodes[:, 0]
        vals = np.exp(-(x**2) / 8.0)
        q = ScalarField(frame, nodal=vals)
        q = ScalarField(frame, coeffs=q.coeffs / q.coeffs[0])
        h = StateBundle(q).glog
        ref = -0.25 * np.sqrt(np.maximum(q.nodal, 1e-300)) * frame.trusted
        assert frame.norm_l2mu(h[0, 0] - ref) < 1e-6

    def test_tilt_vanishes(self, frame_1d_fine):
        q = tilted_density(frame_1d_fine, 0.4)
        h = StateBundle(q).glog
        assert frame_1d_fine.norm_l2mu(h[0, 0]) < 1e-10

    def test_symmetry_and_sqrt_form(self, frame_2d, rng):
        q = random_density(frame_2d, rng)
        b = StateBundle(q)
        h = b.glog
        assert np.max(np.abs(h - h.transpose(1, 0, 2))) < 1e-12
        # sqrt(q) D^2(ln q) = 2 [sqrt(q) D^2 sqrt(q) - grad sqrt(q) (x) grad sqrt(q)] / sqrt(q)
        assert np.max(np.abs(h - 2.0 * b.stress * b.inv_sq)) < 1e-9


class TestBohmIdentity:
    def test_equilibrium(self, frame_1d):
        assert bohm_residual(unit_field(frame_1d)) < 1e-12

    def test_tilt(self, frame_1d):
        assert bohm_residual(tilted_density(frame_1d, 0.4)) < 1e-10

    def test_gentle_random(self, frame_1d_fine, rng):
        for _ in range(3):
            q = random_density(frame_1d_fine, rng, decay=0.25, amplitude=0.3)
            assert bohm_residual(q) < 1e-8

    def test_truncated_profile(self):
        # flat-cored quartic profile: residual limited by the square-root
        # truncation at this degree, not by the identity itself
        from hermflow import build_frame

        frame = build_frame(1.0, 1.0, 2.0, 1, 32)
        x = frame.nodes[:, 0]
        q = ScalarField(frame, nodal=0.2 + np.exp(-(x**4) / 400.0))
        q = ScalarField(frame, coeffs=q.coeffs / q.coeffs[0])
        assert bohm_residual(q) < 1e-6

