import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from hermflow import (
    InternalConsistencyError,
    MassOperator,
    ModelParams,
    PositivityError,
    ScalarField,
    SimState,
    StateBundle,
    StepFailureError,
    VectorField,
    assemble_mass,
    coupled_step,
    make_initial_state,
    momentum_rhs,
    project_initial_velocity,
)
from hermflow import calculus, spectral
from hermflow.diagnostics import record
from hermflow.driver import simulate
from hermflow.errors import SOLVER_FAILURES
from hermflow.galerkin import MAX_SWEEPS, PICARD_TOL
from hermflow.rescaled import TauState, tau_coeffs
from hermflow.sampling import random_density, random_field, random_velocity, tilted_density
from hermflow.spectral import build_frame, transform

from conftest import ladder_oracle, object_path_fp_step, unit_field


def drag_free(lam=2.0):
    return ModelParams(a=1.0, kappa=1.0, nu=0.5, lam=lam)


class TestInitialProjection:
    def test_zero(self, frame_1d):
        out = project_initial_velocity(unit_field(frame_1d), np.zeros((1, frame_1d.n_nodes)))
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_idempotent_on_range(self, frame_1d, rng):
        q0 = random_density(frame_1d, rng)
        u = random_velocity(frame_1d, rng)
        once = project_initial_velocity(q0, u.nodal)
        twice = project_initial_velocity(q0, once.nodal)
        assert np.max(np.abs(once.coeffs - twice.coeffs)) < 1e-11

    def test_cubic_against_hermite_expansion(self):
        # q0 = 1, u0 = x^3, degree 2 (sigma = 1): x^3 = He_3 + 3 He_1, and
        # He_3 is orthogonal to the retained span, so the projection is 3x
        frame = build_frame(1.0, 1.0, 2.0, 1, 2)
        x = frame.nodes[:, 0]
        out = project_initial_velocity(unit_field(frame), (x**3)[None, :])
        assert frame.norm_l2mu(out.nodal[0] - 3.0 * x) < 1e-11

    def test_energy_non_expansion(self, frame_1d, rng):
        q0 = random_density(frame_1d, rng)
        raw = 0.5 * random_field(frame_1d, rng).nodal + 0.2 * frame_1d.nodes[:, 0] ** 3
        out = project_initial_velocity(q0, raw[None, :])
        before = frame_1d.quad(q0.nodal * raw**2)
        after = frame_1d.quad(q0.nodal * out.nodal[0] ** 2)
        assert after <= before + 1e-12


class TestMassOperator:
    def test_identity_weight(self, frame_1d):
        m = assemble_mass(unit_field(frame_1d))
        assert np.max(np.abs(m.matrix - np.eye(frame_1d.n_basis))) < 1e-13

    def test_constant_weight(self, frame_1d):
        m = assemble_mass(ScalarField(frame_1d, coeffs=2.5 * np.eye(frame_1d.n_basis)[0]))
        assert np.max(np.abs(m.matrix - 2.5 * np.eye(frame_1d.n_basis))) < 1e-12

    def test_linear_weight_is_coordinate_matrix(self, frame_1d):
        eps = 0.01
        x = frame_1d.nodes[:, 0]
        q = transform(frame_1d, 1.0 + eps * x)
        m = assemble_mass(q)
        ref = np.eye(frame_1d.n_basis) + eps * ladder_oracle(frame_1d)[1][0]
        assert np.max(np.abs(m.matrix - ref)) < 2e-10

    def test_symmetric_positive_definite(self, frame_1d, rng):
        q = random_density(frame_1d, rng)
        m = assemble_mass(q)
        assert np.array_equal(m.matrix, m.matrix.T)
        c = np.min(q.nodal[frame_1d.trusted])
        assert np.linalg.eigvalsh(m.matrix)[0] >= 0.9 * min(c, 1.0) - 1e-10

    @pytest.mark.parametrize("degree", [8, 20])
    def test_planar_matches_dense_quadrature(self, degree):
        # the 2D assembly contracts one axis at a time; oracle: V^T diag(w q) V
        frame = build_frame(1.0, 1.0, 2.0, 2, degree)
        q = random_density(frame, np.random.default_rng(degree))
        ref = frame.V.T @ ((frame.weights * q.nodal)[:, None] * frame.V)
        m = assemble_mass(q)
        assert np.max(np.abs(m.matrix - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("frame_name", ["frame_1d", "frame_2d"])
    def test_solve_bits_match_scipy_cholesky(self, frame_name, request, rng):
        # the direct LAPACK calls are the ones cho_factor/cho_solve make
        frame = request.getfixturevalue(frame_name)
        m = assemble_mass(random_density(frame, rng, decay=0.3))
        rhs = rng.standard_normal((frame.dim, frame.n_basis))
        factor = cho_factor(m.matrix, lower=True)
        before = m.matrix.copy()
        assert np.array_equal(m.solve(rhs), cho_solve(factor, rhs.T).T)
        # the kept factor serves the next solve, and apply still reads the matrix
        assert np.array_equal(m.solve(2.0 * rhs), cho_solve(factor, 2.0 * rhs.T).T)
        assert np.array_equal(m.matrix, before)

    def test_nan_matrix_is_a_solver_failure(self, frame_1d):
        mat = np.eye(frame_1d.n_basis)
        mat[2, 3] = mat[3, 2] = np.nan
        with pytest.raises(SOLVER_FAILURES):
            MassOperator(mat).solve(np.ones((1, frame_1d.n_basis)))

    def test_inf_rhs_is_a_solver_failure(self, frame_1d):
        rhs = np.ones((1, frame_1d.n_basis))
        rhs[0, 5] = np.inf
        with pytest.raises(SOLVER_FAILURES):
            assemble_mass(unit_field(frame_1d)).solve(rhs)

    def test_indefinite_matrix_names_the_leading_minor(self, frame_1d):
        diag = np.ones(frame_1d.n_basis)
        diag[2] = -1.0
        with pytest.raises(PositivityError, match=r"\b3-th leading minor"):
            MassOperator(np.diag(diag)).solve(np.ones((1, frame_1d.n_basis)))


PROPERTY_FRAMES = {
    1: build_frame(1.0, 1.0, 2.0, 1, 16),
    2: build_frame(1.0, 1.0, 2.0, 2, 8),
}


@settings(derandomize=True, max_examples=30, deadline=None)
@given(dim=st.sampled_from([1, 2]),
       low_modes=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
       level=st.floats(0.01, 10.0))
def test_mass_symmetric_positive_definite(dim, low_modes, level):
    # any q positive at every node gives a symmetric matrix that factors
    frame = PROPERTY_FRAMES[dim]
    shape = frame.V[:, :6] @ np.array(low_modes)
    q = ScalarField(frame, nodal=level * (1.0 + 0.99 * np.tanh(shape)))
    m = assemble_mass(q)
    assert np.array_equal(m.matrix, m.matrix.T)
    np.linalg.cholesky(m.matrix)


def five_term_force(q, u, params):
    """momentum_rhs written out with every regularizer term, in the solver's order."""
    frame = q.frame
    sig2 = frame.sigma**2
    b = StateBundle(q, u)
    x = frame.nodes.T
    out = np.empty((frame.dim, frame.n_basis))
    for i in range(frame.dim):
        point = (
            -params.r0 * b.un[i]
            - params.delta1 * np.einsum("kn,kn->n", b.du[i], b.gq)
            - params.r1 * b.qn * b.s2 * b.un[i]
            - params.lam * sig2 * b.gq[i]
            - (params.r4 / sig2**2) * b.qn * frame.radius_sq * x[i]
        )
        vec = frame._synthesize_adjoint(frame.weights * point)
        for k in range(frame.dim):
            grad_part = (
                1.0 * b.qn * b.un[i] * b.un[k]
                - 2.0 * params.nu * b.qn * b.dsym[i, k]
                - 2.0 * params.kappa**2 * b.stress[i, k]
            )
            vec += frame._synthesize_adjoint(frame.weights * grad_part, (k,))
        out[i] = vec
    return out


class TestMomentumForces:
    @pytest.mark.parametrize("frame_name", ["frame_1d", "frame_2d"])
    @pytest.mark.parametrize("params", [
        drag_free(),
        ModelParams(a=1.0, kappa=1.0, nu=0.5, lam=2.0, r0=0.1, r1=0.2, r4=0.05, delta1=0.3),
    ], ids=["drag_free", "regularized"])
    def test_bits_match_five_term_formula(self, frame_name, params, request, rng):
        # dropping the switched-off terms must not move a single bit
        frame = request.getfixturevalue(frame_name)
        q = random_density(frame, rng, decay=0.3)
        u = random_velocity(frame, rng, decay=0.3, amplitude=0.2)
        assert np.array_equal(momentum_rhs(q, u, params), five_term_force(q, u, params))

    @pytest.mark.parametrize("frame_name", ["frame_1d", "frame_2d"])
    def test_dealiased_speed_formed_only_for_regularized_forces(
            self, frame_name, request, rng, monkeypatch):
        # |u|^2 costs one dealiased product (a nodal projection) per component;
        # drag-free forces never read it and project nothing
        frame = request.getfixturevalue(frame_name)
        q = random_density(frame, rng, decay=0.3)
        u = random_velocity(frame, rng, decay=0.3, amplitude=0.2)
        calls = []
        real = spectral.GaussianFrame.project_nodal
        monkeypatch.setattr(spectral.GaussianFrame, "project_nodal",
                            lambda fr, values: calls.append(1) or real(fr, values))
        momentum_rhs(q, u, drag_free())
        assert len(calls) == 0
        momentum_rhs(q, u, ModelParams(a=1.0, kappa=1.0, nu=0.5, lam=2.0, r1=0.2))
        assert len(calls) == frame.dim

    def test_equilibrium_rest_state(self, frame_1d):
        f = momentum_rhs(unit_field(frame_1d), VectorField.zero(frame_1d), drag_free())
        assert np.max(np.abs(f)) < 1e-13

    def test_confinement_drag_projection(self, frame_1d):
        # only the quartic confinement drag survives at (1, 0): x^3 projects
        # as sqrt(6) He_3 + 3 He_1 (sigma = 1), so the degree-1 coefficient
        # is -3 r4 and the degree-3 one is -sqrt(6) r4
        params = ModelParams(a=1.0, kappa=1.0, nu=0.5, lam=2.0, r4=0.25)
        f = momentum_rhs(unit_field(frame_1d), VectorField.zero(frame_1d), params)
        assert f[0, 1] == pytest.approx(-3.0 * 0.25, rel=1e-12)
        assert f[0, 3] == pytest.approx(-math.sqrt(6.0) * 0.25, rel=1e-12)
        zeroed = f.copy()
        zeroed[0, 1] = zeroed[0, 3] = 0.0
        assert np.max(np.abs(zeroed)) < 1e-12

    def test_rest_state_insensitive_to_viscosity(self, frame_1d, rng):
        q = random_density(frame_1d, rng)
        u = VectorField.zero(frame_1d)
        f1 = momentum_rhs(q, u, ModelParams(a=1.0, kappa=1.0, nu=0.3, lam=2.0))
        f2 = momentum_rhs(q, u, ModelParams(a=1.0, kappa=1.0, nu=0.9, lam=2.0))
        assert np.max(np.abs(f1 - f2)) < 1e-13


class TestCoupledStep:
    def test_steady_state_exact(self, frame_1d):
        state = make_initial_state(unit_field(frame_1d), VectorField.zero(frame_1d))
        for _ in range(50):
            state = coupled_step(state, drag_free(), 1e-3)
        assert np.max(np.abs(state.q.nodal - 1.0)) < 1e-10
        assert np.linalg.norm(state.u.coeffs) < 1e-10

    def test_quarter_period_mean_crossing(self):
        # shifted equilibrium at lam = 4: the mean obeys M'' = -4M, so it
        # crosses zero at t = pi/4
        frame = build_frame(1.0, 1.0, 4.0, 1, 24)
        x0 = 0.15
        q0 = tilted_density(frame, x0 / frame.sigma**2)
        state = make_initial_state(q0, VectorField.zero(frame))
        params = drag_free(lam=4.0)
        dt = math.pi / 4.0 / 400
        for _ in range(400):
            state = coupled_step(state, params, dt)
        mx = record(state, params).mx[0]
        assert abs(mx) < 0.01 * x0

    @pytest.mark.parametrize(
        "frame_name, system",
        [("frame_1d", "confined"), ("frame_2d", "confined"),
         ("frame_1d", "dilated"), ("frame_2d", "dilated")],
        ids=["frame_1d", "frame_2d", "frame_1d-dilated", "frame_2d-dilated"])
    def test_carried_mass_operator_is_exact(self, frame_name, system, request, rng):
        # a state carries the momentum of its (q, u); rebuilding it gives the same step
        frame = request.getfixturevalue(frame_name)
        if system == "confined":
            params = ModelParams(a=1.0, kappa=1.0, nu=0.5, lam=2.0, r0=0.1, delta1=0.3)
            coeffs = None
        else:
            params = drag_free()
            coeffs = tau_coeffs(params, TauState(1.7, 0.3, 0.0))
        state = make_initial_state(random_density(frame, rng, decay=0.3),
                                   random_velocity(frame, rng, decay=0.3, amplitude=0.1))
        state = coupled_step(state, params, 1e-3, coeffs)
        assert state.momentum is not None
        carried = coupled_step(state, params, 1e-3, coeffs)
        rebuilt = coupled_step(dataclasses.replace(state, momentum=None), params, 1e-3, coeffs)
        assert np.array_equal(carried.q.coeffs, rebuilt.q.coeffs)
        assert np.array_equal(carried.u.coeffs, rebuilt.u.coeffs)

    def test_mass_conserved(self, frame_1d, rng):
        q0 = random_density(frame_1d, rng, decay=0.3)
        state = make_initial_state(q0, VectorField.zero(frame_1d))
        params = ModelParams(a=1.0, kappa=1.0, nu=0.5, lam=2.0, r0=0.1, delta1=0.3)
        for _ in range(20):
            state = coupled_step(state, params, 2e-3)
        assert abs(state.q.coeffs[0] - 1.0) < 1e-12

    def test_refinement_order(self):
        frame = build_frame(1.0, 1.0, 2.0, 1, 16)
        q0 = tilted_density(frame, 0.25)
        u0 = project_initial_velocity(q0, 0.15 * frame.nodes.T.copy())
        params = ModelParams(a=1.0, kappa=1.0, nu=0.5, lam=2.0,
                             r0=0.1, r1=0.1, r4=0.05, delta1=0.5)

        def final(n):
            st = make_initial_state(q0, u0)
            for _ in range(n):
                st = coupled_step(st, params, 0.08 / n)
            return st.u.coeffs.ravel()

        ref = final(512)
        errs = [np.linalg.norm(final(n) - ref) for n in (16, 32, 64)]
        slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(slopes) >= 1.8, (errs, slopes)

    def test_picard_failure_on_large_step(self, frame_1d, rng):
        q0 = random_density(frame_1d, rng)
        u0 = project_initial_velocity(q0, 2.0 * frame_1d.nodes.T.copy())
        state = make_initial_state(q0, u0)
        with pytest.raises((StepFailureError, Exception)):
            for _ in range(50):
                state = coupled_step(state, drag_free(), 0.5)


def object_path_step(state, params, dt, coeffs=None):
    """coupled_step written out through fields built afresh on every sweep.

    Each field is formed as field arithmetic would form it: a scaled sum of
    two fields is (a + b) * factor on the coefficients, its nodal values
    synthesized from them, and no field is reused across sweeps.
    """
    coeffs = coeffs or {}
    frame = state.frame
    q_prev, u_prev = state.q, state.u
    momentum_prev = state.momentum
    if momentum_prev is None:
        momentum_prev = u_prev.coeffs @ assemble_mass(q_prev).matrix.T
    advection = 0.5 * coeffs.get("transport_coef", 1.0)
    u_iter = u_prev
    for _ in range(MAX_SWEEPS):
        u_adv = VectorField(frame, coeffs=(u_prev.coeffs + u_iter.coeffs) * advection)
        q_new = object_path_fp_step(q_prev, u_adv, params.delta1, dt)
        q_mid = ScalarField(frame, coeffs=(q_prev.coeffs + q_new.coeffs) * 0.5)
        u_mid = VectorField(frame, coeffs=(u_prev.coeffs + u_iter.coeffs) * 0.5)
        force = momentum_rhs(q_mid, u_mid, params, **coeffs)
        mass_new = assemble_mass(q_new)
        u_next = VectorField(frame, coeffs=mass_new.solve(momentum_prev + dt * force))
        delta = (u_next.coeffs - u_iter.coeffs).ravel()
        u_iter = u_next
        if math.sqrt(delta @ delta) < PICARD_TOL:
            break
    return SimState(q_new, u_iter, state.t + dt, u_iter.coeffs @ mass_new.matrix.T)


def counted(monkeypatch, real):
    """Count calls of a hermflow function through every module that bound it."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("hermflow") and getattr(mod, real.__name__, None) is real:
            monkeypatch.setattr(mod, real.__name__, wrapper)
    return calls


class TestArraySweep:
    @pytest.mark.parametrize("frame_name", ["frame_1d", "frame_2d"])
    @pytest.mark.parametrize("system", ["drag_free", "regularized", "dilated", "nodal_velocity"])
    def test_bits_match_object_path(self, frame_name, system, request, rng):
        # three steps against the field-arithmetic loop: q, u and the carried momentum
        frame = request.getfixturevalue(frame_name)
        params, coeffs = drag_free(), None
        if system == "regularized":
            params = ModelParams(a=1.0, kappa=1.0, nu=0.5, lam=2.0, r0=0.1, r1=0.2, delta1=0.3)
        elif system == "dilated":
            coeffs = tau_coeffs(params, TauState(1.7, 0.3, 0.0))
        q0 = random_density(frame, rng, decay=0.3)
        u0 = random_velocity(frame, rng, decay=0.3, amplitude=0.1)
        if system == "nodal_velocity":
            # nodal values kept verbatim are not the synthesis of the
            # coefficients, so the first sweep must not reuse them
            u0 = VectorField(frame, nodal=np.sin(u0.nodal))
        ours = ref = make_initial_state(q0, u0)
        for _ in range(3):
            ours = coupled_step(ours, params, 1e-3, coeffs)
            ref = object_path_step(ref, params, 1e-3, coeffs)
            assert np.array_equal(ours.q.coeffs, ref.q.coeffs)
            assert np.array_equal(ours.u.coeffs, ref.u.coeffs)
            assert np.array_equal(ours.u.nodal, ref.u.nodal)
            assert np.array_equal(ours.momentum, ref.momentum)

    @pytest.mark.parametrize("frame_name", ["frame_1d", "frame_2d"])
    def test_drag_free_step_skips_field_products(self, frame_name, request, rng, monkeypatch):
        # the sweep forms div_m(q u) on arrays; no dealiased-product or
        # div_m wrapper runs in a drag-free step
        frame = request.getfixturevalue(frame_name)
        state = make_initial_state(random_density(frame, rng, decay=0.3),
                                   random_velocity(frame, rng, decay=0.3, amplitude=0.1))
        products = counted(monkeypatch, spectral.multiply)
        divergences = counted(monkeypatch, calculus.div_m)
        out = coupled_step(state, drag_free(), 1e-3)
        assert len(products) == 0 and len(divergences) == 0
        for arr in (out.u.coeffs, out.u.nodal):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0


@pytest.mark.parametrize("frame_name", ["frame_1d", "frame_2d"])
def test_kept_states_carry_their_momentum(frame_name, request, rng):
    # each kept state's momentum is M[q]u of that very state, and only the
    # initial state, built by hand, carries none
    frame = request.getfixturevalue(frame_name)
    params = ModelParams(a=1.0, kappa=1.0, nu=0.5, lam=2.0, r0=0.1, delta1=0.3)
    q0 = random_density(frame, rng, decay=0.3)
    u0 = random_velocity(frame, rng, decay=0.3, amplitude=0.1)
    result = simulate(frame, params, q0, u0, dt=1e-3, t_final=4e-3, record_every=2,
                      keep_states=True)
    assert len(result.states) == 3 and result.states[0].momentum is None
    for state in result.states[1:]:
        expected = state.u.coeffs @ assemble_mass(state.q).matrix.T
        assert np.array_equal(state.momentum, expected)


class TestPlanarStepping:
    def test_mean_oscillation_2d(self):
        frame = build_frame(1.0, 1.0, 4.0, 2, 10)
        params = drag_free(lam=4.0)
        x0 = np.array([0.15, -0.1])
        q0 = tilted_density(frame, x0 / frame.sigma**2)
        state = make_initial_state(q0, VectorField.zero(frame))
        records = []
        dt = 2e-3
        for k in range(150):
            state = coupled_step(state, params, dt)
            records.append((state.t, record(state, params).mx))
        t = np.array([r[0] for r in records])
        mx = np.array([r[1] for r in records])
        exact = x0[None, :] * np.cos(2.0 * t)[:, None]
        rel = np.linalg.norm(mx - exact) / np.linalg.norm(exact)
        assert rel < 1e-4
        assert abs(state.q.coeffs[0] - 1.0) < 1e-12

