import math

import numpy as np
import pytest

from hermflow import (
    GaussianFrame,
    InvalidParameterError,
    ModelParams,
    VectorField,
    coupled_step,
    make_initial_state,
    project_initial_velocity,
)
from hermflow.rescaled import (
    TauState,
    combined_identity_residual,
    rescaled_bd_remainder,
    rescaled_energy,
    rescaled_step,
    tau_energy,
    tau_rhs,
    tau_solve,
)
from hermflow.diagnostics import bd_entropy_regularized
from hermflow.sampling import random_density, random_velocity, tilted_density

from conftest import record_states, unit_field


@pytest.fixture(scope="module")
def unit_frame():
    return GaussianFrame(1.0, 1, 16)


def drag_free():
    return ModelParams(a=1.0, kappa=1.0, nu=0.5, lam=2.0)


class TestDilationFactor:
    def test_initial_acceleration(self):
        # tau''(0) = a + kappa^2 regardless of viscosity (tau' starts at 0)
        assert tau_rhs(1.0, 0.0, 1.0, 1.0, 0.0) == 2.0
        assert tau_rhs(1.0, 0.0, 0.3, 2.0, 5.0) == pytest.approx(4.3, abs=1e-15)

    def test_inviscid_invariant(self):
        traj = tau_solve(1.0, 1.0, 0.0, 10.0, 1e-3, store_every=200)
        e0 = tau_energy(traj[0], 1.0, 1.0)
        drift = max(abs(tau_energy(s, 1.0, 1.0) - e0) for s in traj)
        assert drift < 1e-10

    def test_monotone_expansion(self):
        traj = tau_solve(1.0, 0.5, 0.4, 5.0, 1e-3, store_every=100)
        rates = [s.tau_dot for s in traj]
        assert all(r >= 0.0 for r in rates)
        taus = [s.tau for s in traj]
        assert all(b > a for a, b in zip(taus, taus[1:]))

    def test_invalid_steps(self):
        with pytest.raises(InvalidParameterError):
            tau_solve(1.0, 1.0, 0.0, 1.0, 0.0)


class TestRescaledStepping:
    def test_equilibrium_force_free(self, unit_frame):
        # every force carries grad(ln Q), D(U) or U, so (1, 0) is stationary
        # for any frozen dilation
        for tau, tdot in ((1.0, 0.0), (2.0, 0.7)):
            q, u = rescaled_step(unit_field(unit_frame), VectorField.zero(unit_frame),
                                 TauState(tau, tdot, 0.0), drag_free(), 1e-3)
            assert np.max(np.abs(q.nodal - 1.0)) < 1e-12
            assert np.linalg.norm(u.coeffs) < 1e-12

    def test_matches_confined_stepper_at_frozen_unit_dilation(self, unit_frame):
        # at tau = 1, tau' = 0 the system coincides with the confined one
        # whose pressure grouping is lam sigma^2 = a + kappa^2 (sigma = 1)
        q0 = tilted_density(unit_frame, 0.3)
        u0 = project_initial_velocity(q0, 0.2 * unit_frame.nodes.T.copy())
        q1, u1 = rescaled_step(q0, u0, TauState(1.0, 0.0, 0.0), drag_free(), 1e-3)
        state = coupled_step(make_initial_state(q0, u0), drag_free(), 1e-3)
        assert np.max(np.abs(q1.coeffs - state.q.coeffs)) < 1e-12
        assert np.max(np.abs(u1.coeffs - state.u.coeffs)) < 1e-12

    def test_rejects_regularizations(self, unit_frame):
        params = ModelParams(a=1.0, kappa=1.0, nu=0.5, lam=2.0, r0=0.1)
        with pytest.raises(InvalidParameterError):
            rescaled_step(unit_field(unit_frame), VectorField.zero(unit_frame),
                          TauState(1.0, 0.0, 0.0), params, 1e-3)


class TestRescaledEnergies:
    def test_equilibrium_all_zero(self, unit_frame):
        vals = rescaled_energy(unit_field(unit_frame), VectorField.zero(unit_frame),
                               TauState(1.3, 0.4, 0.0), drag_free())
        assert max(abs(v) for v in vals) < 1e-13

    def test_effective_velocity_cancellation(self, unit_frame):
        # U = -2 nu grad(ln Q) is constant for a tilt, so the W-kinetic part
        # of the entropy vanishes and only Fisher + entropic terms remain
        params = drag_free()
        alpha = 0.3
        q = tilted_density(unit_frame, alpha)
        u = VectorField(
            unit_frame,
            coeffs=np.concatenate([[-2.0 * params.nu * alpha], np.zeros(unit_frame.n_basis - 1)]),
        )
        ts = TauState(1.7, 0.3, 0.0)
        _, _, e_bd, _ = rescaled_energy(q, u, ts, params)
        from hermflow.calculus import StateBundle, gradient_nodal

        b = StateBundle(q)
        g = gradient_nodal(q)
        dirichlet = 0.25 * unit_frame.quad(np.einsum("in,in->n", g, g) * b.inv_q)
        qs = np.maximum(b.qn, 1e-300)
        entropy = unit_frame.quad(unit_frame.trusted * qs * np.log(qs))
        expect = 0.5 / ts.tau**2 * 4.0 * params.kappa**2 * dirichlet + params.a * entropy
        assert e_bd == pytest.approx(expect, abs=1e-11)

    def test_combined_identity_refinement(self, unit_frame):
        params = drag_free()
        q0 = tilted_density(unit_frame, 0.3)
        u0 = VectorField.zero(unit_frame)
        t_final = 0.12
        resids = []
        for dt in (8e-3, 4e-3, 2e-3):
            n = int(round(t_final / dt))
            taus = tau_solve(1.0, 1.0, 0.5, t_final, dt / 2.0)
            q, u = q0, u0
            energies = [rescaled_energy(q, u, taus[0], params)]
            rems = [rescaled_bd_remainder(q, u, taus[0], params)]
            for k in range(n):
                q, u = rescaled_step(q, u, taus[2 * k + 1], params, dt)
                energies.append(rescaled_energy(q, u, taus[2 * k + 2], params))
                rems.append(rescaled_bd_remainder(q, u, taus[2 * k + 2], params))
            resids.append(combined_identity_residual(energies, dt, rems))
        orders = [math.log2(resids[i] / resids[i + 1]) for i in range(2)]
        assert min(orders) >= 1.0, (resids, orders)


    @pytest.mark.parametrize("dim, degree", [(1, 16), (2, 10)])
    def test_unit_dilation_matches_confined_record(self, dim, degree, rng):
        # on the unit frame (lam = a + kappa^2, so sigma = 1) at tau = 1,
        # tau' = 0 and without drags or delta1 the dilated energies are the
        # confined ones: both read the same state integrals.  With delta1 = 0
        # the regularized BD pair is the plain one, so its second entry is R_BD
        frame = GaussianFrame(1.0, dim, degree)
        params = drag_free()
        unit = TauState(1.0, 0.0, 0.0)
        for _ in range(3):
            q = random_density(frame, rng)
            u = random_velocity(frame, rng, amplitude=0.5)
            rec = record_states([make_initial_state(q, u)], params)[0]
            pairs = list(zip(rescaled_energy(q, u, unit, params),
                             (rec.e_reg, rec.d_reg, rec.e_bd, rec.d_bd)))
            pairs.append((rescaled_bd_remainder(q, u, unit, params),
                          bd_entropy_regularized(q, u, params)[1]))
            for dilated, confined in pairs:
                assert abs(dilated - confined) <= 1e-13 * max(1.0, abs(confined))
