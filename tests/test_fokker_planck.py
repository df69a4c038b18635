import math

import numpy as np
import pytest

from hermflow import (
    InvalidParameterError,
    PositivityEnvelope,
    ScalarField,
    StepFailureError,
    VectorField,
    envelope_check,
    envelope_update,
    fp_step,
    ou_semigroup,
)
from hermflow.calculus import div_m
from hermflow.fokker_planck import ENVELOPE_TOL, FP_SWEEPS, divm_sup
from hermflow.sampling import random_density, random_field, random_velocity
from hermflow.spectral import multiply

from conftest import flux_field, object_path_fp_step, unit_field


class TestEnvelope:
    def test_bounds(self):
        env = PositivityEnvelope(c0=0.5)
        assert env.lower == 0.5 and env.upper == 2.0

    def test_closed_form_accumulation(self, frame_1d):
        # constant sup m over [0, t]: bounds c0 e^{-mt}, e^{mt}/c0
        x = frame_1d.nodes[:, 0]
        u = VectorField(frame_1d, nodal=0.1 * x)
        m = divm_sup(u)
        env = PositivityEnvelope(c0=0.5, last_sup=m)
        t, dt = 0.0, 0.05
        for _ in range(20):
            env = envelope_update(env, u, dt)
            t += dt
        assert env.lower == pytest.approx(0.5 * math.exp(-m * t), rel=1e-12)
        assert env.upper == pytest.approx(2.0 * math.exp(m * t), rel=1e-12)

    def test_zero_velocity_static(self, frame_1d):
        u = VectorField.zero(frame_1d)
        env = PositivityEnvelope(c0=0.25)
        for _ in range(5):
            env = envelope_update(env, u, 0.1)
        assert env.lower == 0.25 and env.upper == 4.0

    def test_check(self):
        # each bound holds exactly ENVELOPE_TOL past it and fails one ulp further out
        env = PositivityEnvelope(c0=0.5)
        lo, hi = env.lower - ENVELOPE_TOL, env.upper + ENVELOPE_TOL
        assert envelope_check(1.0, 1.0, env)
        assert envelope_check(lo, hi, env)
        assert not envelope_check(np.nextafter(lo, -np.inf), 1.0, env)
        assert not envelope_check(1.0, np.nextafter(hi, np.inf), env)

    @pytest.mark.parametrize("lo, hi, c0", [(0.5, 0.8, 0.5), (0.7, 2.5, 0.4)],
                             ids=["inside_one", "straddles_one"])
    def test_start(self, frame_1d, rng, lo, hi, c0):
        u = random_velocity(frame_1d, rng, decay=0.3, amplitude=0.1)
        env = PositivityEnvelope.start(lo, hi, u)
        assert env.c0 == c0 == min(lo, 1.0 / hi)
        assert env.accumulated == 0.0
        assert env.last_sup == divm_sup(u)

    def test_start_needs_positive_density(self, frame_1d):
        with pytest.raises(InvalidParameterError):
            PositivityEnvelope.start(0.0, 2.0, VectorField.zero(frame_1d))

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            PositivityEnvelope(c0=0.0)


class TestSemigroup:
    def test_identity_at_zero_time(self, frame_1d, rng):
        q = random_density(frame_1d, rng)
        out = ou_semigroup(q, 0.0, 0.7)
        assert np.array_equal(out.coeffs, q.coeffs)

    def test_single_mode_decay(self, frame_1d):
        q = ScalarField(frame_1d, coeffs=np.eye(frame_1d.n_basis)[0]
                        + 0.1 * np.eye(frame_1d.n_basis)[1])
        out = ou_semigroup(q, 2.0, 0.5)
        assert out.coeffs[1] == pytest.approx(0.1 * math.exp(-1.0), rel=1e-14)

    def test_long_time_limit(self, frame_1d, rng):
        q = random_density(frame_1d, rng)
        out = ou_semigroup(q, 1e4, 1.0)
        assert abs(out.coeffs[0] - 1.0) < 1e-14
        assert np.max(np.abs(out.coeffs[1:])) < 1e-14

    def test_semigroup_property(self, frame_1d, rng):
        q = random_field(frame_1d, rng)
        a = ou_semigroup(ou_semigroup(q, 0.3, 0.7), 0.5, 0.7)
        b = ou_semigroup(q, 0.8, 0.7)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12

    def test_positivity_on_squares(self, frame_1d, rng):
        # a squared polynomial is non-negative everywhere; the flow keeps it so
        half = ScalarField(frame_1d, coeffs=np.concatenate(
            [rng.standard_normal(9) * 0.5 ** np.arange(9), np.zeros(frame_1d.n_basis - 9)]
        ))
        q = multiply(half, half)
        out = ou_semigroup(q, 0.4, 0.8)
        assert np.min(out.nodal[frame_1d.trusted]) >= -1e-12

    def test_negative_time(self, frame_1d):
        with pytest.raises(InvalidParameterError):
            ou_semigroup(unit_field(frame_1d), -1.0, 0.5)


class TestTransportStep:
    def test_zero_velocity_is_semigroup(self, frame_1d, rng):
        q = random_density(frame_1d, rng)
        u = VectorField.zero(frame_1d)
        out = fp_step(q, u, 0.7, 0.05)
        ref = ou_semigroup(q, 0.05, 0.7)
        assert np.max(np.abs(out.coeffs - ref.coeffs)) < 1e-14

    def test_first_sweep_gain(self, frame_1d):
        # from q = 1 with u = x (sigma = 1, no diffusion): q gains
        # -dt (1 - x^2) + O(dt^2), i.e. sqrt(2) dt on the degree-2 mode
        x = frame_1d.nodes[:, 0]
        u = VectorField(frame_1d, nodal=x)
        dt = 1e-4
        out = fp_step(unit_field(frame_1d), u, 0.0, dt)
        assert out.coeffs[2] == pytest.approx(math.sqrt(2.0) * dt, rel=1e-3)
        assert out.coeffs[0] == pytest.approx(1.0, abs=1e-15)

    def test_tiny_step_forward_euler_oracle(self, frame_1d, rng):
        # one step against explicit Euler at vanishing dt
        q = random_density(frame_1d, rng)
        u = VectorField(frame_1d, coeffs=0.2 * random_field(frame_1d, rng).coeffs)
        dt = 1e-7
        out = fp_step(q, u, 0.0, dt)
        euler = q.coeffs - dt * div_m(flux_field(q, u)).coeffs
        assert np.max(np.abs(out.coeffs - euler)) < 5e-13

    def test_mass_conserved(self, frame_1d, frame_2d, rng):
        for frame in (frame_1d, frame_2d):
            q = random_density(frame, rng)
            u = VectorField(frame, coeffs=0.3 * random_velocity(frame, rng).coeffs)
            out = fp_step(q, u, 0.4, 2e-3)
            assert abs(out.coeffs[0] - q.coeffs[0]) < 1e-13

    @pytest.mark.parametrize("delta1", [0.0, 0.4])
    def test_second_order_convergence(self, frame_1d, delta1):
        rng = np.random.default_rng(5)
        q0 = random_density(frame_1d, rng, decay=0.4)
        u = VectorField(frame_1d, coeffs=0.3 * random_field(frame_1d, np.random.default_rng(6),
                                                      decay=0.4).coeffs)

        def march(n):
            q = q0
            for _ in range(n):
                q = fp_step(q, u, delta1, 0.1 / n)
            return q.coeffs

        ref = march(1024)
        errs = [np.linalg.norm(march(n) - ref) for n in (32, 64, 128)]
        slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(1.8 <= s <= 2.2 for s in slopes), slopes

    def test_contraction_failure_reported(self, frame_1d, rng):
        q = random_density(frame_1d, rng)
        x = frame_1d.nodes[:, 0]
        u = VectorField(frame_1d, nodal=3.0 * x)
        with pytest.raises(StepFailureError):
            fp_step(q, u, 0.0, 5.0)

    @pytest.mark.parametrize("frame_name", ["frame_1d", "frame_2d"])
    @pytest.mark.parametrize("delta1", [0.0, 0.4])
    def test_bits_match_exponential_form(self, frame_name, delta1, request, rng):
        # without diffusion the all-ones decay tables are skipped; same bits
        frame = request.getfixturevalue(frame_name)
        q = random_density(frame, rng)
        u = VectorField(frame, coeffs=0.3 * random_velocity(frame, rng).coeffs)
        dt = 2e-3
        decay_full = np.exp(-delta1 * frame.total_degree * dt / frame.sigma**2)
        decay_half = np.exp(-delta1 * frame.total_degree * (0.5 * dt) / frame.sigma**2)
        c0 = q.coeffs
        free = decay_full * c0
        c_new = free
        for _ in range(FP_SWEEPS):
            q_mid = ScalarField(frame, coeffs=0.5 * (c0 + c_new))
            c_new = free - dt * decay_half * div_m(flux_field(q_mid, u)).coeffs
        assert np.array_equal(fp_step(q, u, delta1, dt).coeffs, c_new)

    @pytest.mark.parametrize("frame_name", ["frame_1d", "frame_2d"])
    @pytest.mark.parametrize("delta1", [0.0, 0.4])
    def test_nodal_fields_match_object_path(self, frame_name, delta1, request, rng):
        # fields given by nodal values keep them verbatim; the midpoint density
        # must still be synthesized from the coefficients, as the object path does
        frame = request.getfixturevalue(frame_name)
        qn = random_density(frame, rng).nodal * (1.0 + 0.01 * np.tanh(frame.nodes[:, 0]))
        q = ScalarField(frame, nodal=qn)
        u = VectorField(frame, nodal=[0.3 * np.sin(random_field(frame, rng).nodal)
                                      for _ in range(frame.dim)])
        ref = object_path_fp_step(q, u, delta1, 2e-3)
        assert np.array_equal(fp_step(q, u, delta1, 2e-3).coeffs, ref.coeffs)

    def test_rejects_bad_dt(self, frame_1d):
        with pytest.raises(InvalidParameterError):
            fp_step(unit_field(frame_1d), VectorField.zero(frame_1d), 0.1, 0.0)


class TestEnvelopeAlongRun:
    def test_full_run_respects_envelope(self, frame_1d):
        # from q0 = 1 with a bounded initial velocity the density stays
        # inside its two-sided envelope at every recorded time
        from hermflow import ModelParams, project_initial_velocity
        from hermflow.driver import simulate

        q0 = unit_field(frame_1d)
        u0 = project_initial_velocity(q0, 0.2 * frame_1d.nodes.T.copy())
        params = ModelParams(a=1.0, kappa=1.0, nu=0.5, lam=2.0, delta1=0.2)
        result = simulate(frame_1d, params, q0, u0, dt=1e-3, t_final=0.1)
        assert result.envelope_ok
