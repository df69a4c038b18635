import numpy as np
import pytest

from hermflow import InvalidParameterError, ModelParams, StateBundle, VectorField, build_frame
from scipy.signal import fftconvolve

import hermflow.continuation
from hermflow.continuation import (
    drag_schedule,
    mollify_initial_data,
    vanishing_drag_sweep,
)
from hermflow.calculus import gradient_nodal
from hermflow.sampling import random_density, random_velocity, tilted_density

from conftest import unit_field


@pytest.fixture(scope="module")
def tight_frame():
    # tight confinement keeps the resolved window inside the smallest cutoff
    # plateau, so every sweep member exercises the floor and smoothing only
    return build_frame(a=1.0, kappa=0.5, lam=100.0, dim=1, degree=16)


class TestMollification:
    def test_mass_exactly_one(self, frame_1d, rng):
        q0 = random_density(frame_1d, rng)
        u0 = VectorField.zero(frame_1d)
        for n in (1, 3, 10):
            qn, _ = mollify_initial_data(q0, u0, n)
            assert abs(qn.coeffs[0] - 1.0) < 1e-12

    def test_equilibrium_fixed_for_large_n(self, frame_1d):
        qn, _ = mollify_initial_data(unit_field(frame_1d), VectorField.zero(frame_1d), 64)
        dev = np.max(np.abs(qn.nodal[frame_1d.trusted] - 1.0))
        assert dev < 1e-10

    def test_positive_floor(self, tight_frame, rng):
        q0 = random_density(tight_frame, rng)
        for n in (2, 8):
            qn, _ = mollify_initial_data(q0, VectorField.zero(tight_frame), n)
            assert np.min(qn.nodal[tight_frame.trusted]) > 0.0

    def test_zero_velocity_stays_zero(self, frame_1d, rng):
        q0 = random_density(frame_1d, rng)
        _, un = mollify_initial_data(q0, VectorField.zero(frame_1d), 4)
        assert np.max(np.abs(un.nodal)) == 0.0

    def test_dirichlet_energy_bounded(self, tight_frame):
        # the smoothing never amplifies the square-root Dirichlet energy
        # beyond its target by more than a vanishing margin
        from hermflow.calculus import StateBundle, gradient_nodal

        q0 = tilted_density(tight_frame, 1.0)
        u0 = VectorField.zero(tight_frame)

        def dirichlet(q):
            g = gradient_nodal(q)
            return 0.25 * tight_frame.quad(np.einsum("in,in->n", g, g) * StateBundle(q).inv_q)

        target = dirichlet(q0)
        values = [dirichlet(mollify_initial_data(q0, u0, n)[0]) for n in (4, 8, 16, 32)]
        assert max(values) <= target * 1.2 + 0.05

    def test_invalid_index(self, frame_1d):
        with pytest.raises(InvalidParameterError):
            mollify_initial_data(unit_field(frame_1d), VectorField.zero(frame_1d), 0)


class TestConvolution:
    @pytest.mark.parametrize("shape, side", [((40,), 7), ((23, 31), 5)])
    def test_matches_fftconvolve_same(self, rng, shape, side):
        # an asymmetric kernel pins the flip and the centring
        g = rng.standard_normal(shape)
        kernel = rng.standard_normal((side,) * len(shape))
        ref = fftconvolve(g, kernel, mode="same")
        got = hermflow.continuation._convolve_same(g, kernel)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [1, 4, 16, 64])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_mollified_density_matches_fftconvolve(self, frame_1d, frame_2d, rng,
                                                   monkeypatch, dim, n):
        frame = frame_1d if dim == 1 else frame_2d
        q0 = random_density(frame, rng)
        u0 = VectorField.zero(frame)
        got, _ = mollify_initial_data(q0, u0, n)
        monkeypatch.setattr(hermflow.continuation, "_convolve_same",
                            lambda g, kernel: fftconvolve(g, kernel, mode="same"))
        ref, _ = mollify_initial_data(q0, u0, n)
        assert np.max(np.abs(got.nodal - ref.nodal)) <= 1e-14 * np.max(np.abs(ref.nodal))


class TestDragSchedule:
    BASE = ModelParams(a=1.0, kappa=1.0, nu=0.5, lam=2.0)

    def test_equilibrium_values(self, frame_1d):
        # q = 1: int(q - ln q) = 1 and I4 = d(d+2) = 3, so r0 = 1/2, r4 = 1/10
        params = drag_schedule(1, unit_field(frame_1d), self.BASE)
        assert params.r1 == 1.0 and params.delta1 == 1.0
        assert params.r0 == pytest.approx(0.5, rel=1e-12)
        assert params.r4 == pytest.approx(0.1, rel=1e-10)
        base = self.BASE
        assert (params.a, params.kappa, params.nu, params.lam) == (base.a, base.kappa, base.nu,
                                                                   base.lam)

    def test_monotone_vanishing(self, frame_1d):
        q = unit_field(frame_1d)
        prev = drag_schedule(1, q, self.BASE)
        for n in (2, 4, 8, 16):
            cur = drag_schedule(n, q, self.BASE)
            assert cur.r0 < prev.r0 and cur.r1 < prev.r1 and cur.r4 < prev.r4
            prev = cur
        assert prev.r0 < 0.1 and prev.r4 * StateBundle(q).i4 < 0.2

    def test_product_bound(self):
        # r4 I4 = I4/(n + I4^2) <= 1/sqrt(n) whenever I4 >= sqrt(n)
        for n in (4, 16, 64):
            for i4 in (np.sqrt(n), 2.0 * np.sqrt(n), 10.0 * np.sqrt(n)):
                assert i4 / (n + i4**2) <= 1.0 / np.sqrt(n) + 1e-15


class TestVanishingDragSweep:
    def test_identical_members_give_zero_increments(self, tight_frame):
        # degenerate check: a sweep of one member has no increments and
        # passes its audits
        params = ModelParams(a=1.0, kappa=0.5, nu=0.5, lam=100.0)
        q0 = tilted_density(tight_frame, 0.8)
        rep = vanishing_drag_sweep(tight_frame, params, q0, VectorField.zero(tight_frame),
                                   [4], dt=2e-3, t_final=0.05)
        assert rep["increments"] == []
        assert rep["failed_at"] is None

    def test_small_sweep_monotone(self, tight_frame):
        params = ModelParams(a=1.0, kappa=0.5, nu=0.5, lam=100.0)
        q0 = tilted_density(tight_frame, 0.8)
        rep = vanishing_drag_sweep(tight_frame, params, q0, VectorField.zero(tight_frame),
                                   [4, 8, 16], dt=2e-3, t_final=0.1,
                                   record_every=10, burn_in=4)
        assert rep["failed_at"] is None
        incs = [i["sqrtq_h1"] for i in rep["increments"]]
        assert incs[1] < incs[0]
        assert rep["cauchy_monotone_after_burn_in"]

    def test_programming_error_propagates(self, tight_frame, monkeypatch):
        # only solver failures become a member failure in the report
        import hermflow.driver

        def broken_step(*args, **kwargs):
            raise TypeError("broken step")

        monkeypatch.setattr(hermflow.driver, "coupled_step", broken_step)
        params = ModelParams(a=1.0, kappa=0.5, nu=0.5, lam=100.0)
        q0 = tilted_density(tight_frame, 0.8)
        with pytest.raises(TypeError, match="broken step"):
            vanishing_drag_sweep(tight_frame, params, q0, VectorField.zero(tight_frame),
                                 [4], dt=2e-3, t_final=0.01)

    def test_requires_increasing_indices(self, tight_frame):
        params = ModelParams(a=1.0, kappa=0.5, nu=0.5, lam=100.0)
        with pytest.raises(InvalidParameterError):
            vanishing_drag_sweep(tight_frame, params, unit_field(tight_frame),
                                 VectorField.zero(tight_frame), [8, 4], dt=1e-3,
                                 t_final=0.01)


class TestStackedSweepFields:
    @staticmethod
    def per_state_fields(q, u):
        # the sweep's former per-state formula, kept as the oracle
        mask = q.frame.trusted.astype(float)
        s = np.sqrt(np.clip(q.nodal, 0.0, None))
        grad_s = gradient_nodal(q) * mask / (2.0 * np.clip(s, 1e-150, None))
        return (mask * s)[None], grad_s, s * u.nodal * mask

    @pytest.mark.parametrize("frame_name", ["frame_1d", "frame_2d", "tight_frame"])
    def test_fields_match_per_state_formula(self, frame_name, request, rng):
        frame = request.getfixturevalue(frame_name)
        qs = [random_density(frame, rng, decay=0.4) for _ in range(3)]
        us = [random_velocity(frame, rng, decay=0.4) for _ in range(3)]
        stacked = hermflow.continuation._sweep_fields(StateBundle(qs, us))
        for k, (q, u) in enumerate(zip(qs, us)):
            for got, want in zip(stacked, self.per_state_fields(q, u)):
                assert got[k].shape == want.shape
                assert np.array_equal(got[k], want)

    def test_distances_match_per_state_quadrature(self, frame_2d, rng):
        a, b = (rng.standard_normal((4, 2, frame_2d.n_nodes)) for _ in range(2))
        got = hermflow.continuation._sq_distance(frame_2d, a, b)
        want = [frame_2d.quad(np.einsum("in,in->n", x - y, x - y)) for x, y in zip(a, b)]
        assert got.tolist() == want
