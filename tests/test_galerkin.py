import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

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
from hermflow import calculus, fokker_planck, galerkin, spectral
from hermflow.driver import march, step_count
from hermflow.errors import SOLVER_FAILURES, InvalidParameterError
from hermflow.galerkin import (
    MAX_SWEEPS,
    PICARD_TOL,
    member_states,
    stack_states,
    step_coefficients,
)
from hermflow.rescaled import TauState, tau_coeffs
from hermflow.sampling import random_density, random_field, random_velocity, tilted_density
from hermflow.spectral import build_frame, transform

from conftest import ladder_oracle, object_path_fp_step, record_states, unit_field


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
        # a second solve factors again to the same bits and leaves the matrix intact
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

    @pytest.mark.parametrize("case", ["rhs_before_later_minor", "minor_before_own_rhs",
                                      "nan_matrix_before_any_factor"])
    def test_stacked_error_precedence(self, frame_1d, case):
        # a three-member stack raises the error of the first failing member,
        # its factorization checked before its own right-hand side; a
        # non-finite matrix anywhere fails before any member is factored
        n = frame_1d.n_basis
        matrices = np.stack([np.eye(n)] * 3)
        rhs = np.ones((3, 1, n))
        if case == "rhs_before_later_minor":
            rhs[0, 0, 4] = np.nan
            matrices[1, 2, 2] = -1.0
            error, member = StepFailureError, 0
        elif case == "minor_before_own_rhs":
            rhs[1, 0, 4] = np.inf
            matrices[1, 2, 2] = -1.0
            error, member = PositivityError, 1
        else:
            matrices[0, 2, 2] = -1.0
            matrices[2, 3, 5] = matrices[2, 5, 3] = np.nan
            error, member = StepFailureError, 2
        with pytest.raises(error) as failure:
            MassOperator(matrices).solve(rhs)
        assert type(failure.value) is error and failure.value.member == member
        if error is PositivityError:
            assert "3-th leading minor" in str(failure.value)
        elif member == 2:
            assert "mass operator has non-finite entries" in str(failure.value)
        else:
            assert "right-hand side has non-finite entries" in str(failure.value)


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
        assert np.array_equal(momentum_rhs(q, u, step_coefficients(params, frame.sigma)),
                              five_term_force(q, u, params))

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
        momentum_rhs(q, u, step_coefficients(drag_free(), frame.sigma))
        assert len(calls) == 0
        momentum_rhs(q, u, step_coefficients(ModelParams(a=1.0, kappa=1.0, nu=0.5, lam=2.0, r1=0.2),
                                             frame.sigma))
        assert len(calls) == frame.dim

    def test_equilibrium_rest_state(self, frame_1d):
        f = momentum_rhs(unit_field(frame_1d), VectorField.zero(frame_1d),
                         step_coefficients(drag_free(), frame_1d.sigma))
        assert np.max(np.abs(f)) < 1e-13

    def test_confinement_drag_projection(self, frame_1d):
        # only the quartic confinement drag survives at (1, 0): x^3 projects
        # as sqrt(6) He_3 + 3 He_1 (sigma = 1), so the degree-1 coefficient
        # is -3 r4 and the degree-3 one is -sqrt(6) r4
        params = ModelParams(a=1.0, kappa=1.0, nu=0.5, lam=2.0, r4=0.25)
        f = momentum_rhs(unit_field(frame_1d), VectorField.zero(frame_1d),
                         step_coefficients(params, frame_1d.sigma))
        assert f[0, 1] == pytest.approx(-3.0 * 0.25, rel=1e-12)
        assert f[0, 3] == pytest.approx(-math.sqrt(6.0) * 0.25, rel=1e-12)
        zeroed = f.copy()
        zeroed[0, 1] = zeroed[0, 3] = 0.0
        assert np.max(np.abs(zeroed)) < 1e-12

    def test_rest_state_insensitive_to_viscosity(self, frame_1d, rng):
        q = random_density(frame_1d, rng)
        u = VectorField.zero(frame_1d)
        f1 = momentum_rhs(q, u, step_coefficients(ModelParams(a=1.0, kappa=1.0, nu=0.3, lam=2.0),
                                                  frame_1d.sigma))
        f2 = momentum_rhs(q, u, step_coefficients(ModelParams(a=1.0, kappa=1.0, nu=0.9, lam=2.0),
                                                  frame_1d.sigma))
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
        mx = record_states([state], params)[0].mx[0]
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
        with pytest.raises(SOLVER_FAILURES):
            for _ in range(50):
                state = coupled_step(state, drag_free(), 0.5)

    def test_picard_stall_names_the_time(self, frame_1d, monkeypatch):
        # one sweep cannot settle a moving state, so the step reports a stall
        monkeypatch.setattr(galerkin, "MAX_SWEEPS", 1)
        q0 = tilted_density(frame_1d, 0.25)
        u0 = project_initial_velocity(q0, 0.15 * frame_1d.nodes.T.copy())
        with pytest.raises(StepFailureError, match=r"in 1 sweeps at t=0\.375; reduce dt"):
            coupled_step(SimState(q0, u0, t=0.375), drag_free(), 1e-3)


BAD_STEPS = [math.nan, math.inf, 0.0, -1.0]


@pytest.mark.parametrize("dt", BAD_STEPS, ids=["nan", "inf", "zero", "negative"])
class TestStepSizeOutsideZeroInf:
    """A step size must satisfy 0 < dt < inf: NaN passed a ``dt <= 0`` guard,
    gave an all-NaN density step and then a misleading positivity error."""

    def test_density_step(self, dt, frame_1d):
        q = random_density(frame_1d, np.random.default_rng(5))
        with pytest.raises(InvalidParameterError, match="dt must be positive"):
            fokker_planck.fp_step(q, VectorField.zero(frame_1d), 0.0, dt)

    def test_coupled_step(self, dt, frame_1d):
        state = make_initial_state(tilted_density(frame_1d, 0.2), VectorField.zero(frame_1d))
        with pytest.raises(InvalidParameterError, match="dt must be positive"):
            coupled_step(state, drag_free(), dt)

    def test_step_count(self, dt):
        message = "dt must be finite" if dt == math.inf else "must be positive"
        with pytest.raises(InvalidParameterError, match=message):
            step_count(dt, 1.0)
        if not dt == math.inf:  # an infinite t_final overflows t_final / dt
            with pytest.raises(InvalidParameterError, match="must be positive"):
                step_count(1e-3, dt)


@pytest.mark.parametrize("frame_name", ["frame_1d", "frame_2d"])
def test_unit_dilation_reads_the_confined_table(frame_name, request, rng):
    # on the sigma = 1 frame (a = kappa = 1, lam = 2) the dilated table at
    # tau = 1, tau_dot = 0 is the confined one, and a step with either gives
    # the same bits
    frame = request.getfixturevalue(frame_name)
    params = drag_free()
    confined = step_coefficients(params, frame.sigma)
    dilated = tau_coeffs(params, TauState(1.0, 0.0, 0.0))
    assert frame.sigma == 1.0
    assert dilated == confined
    state = make_initial_state(random_density(frame, rng, decay=0.3),
                               random_velocity(frame, rng, decay=0.3, amplitude=0.1))
    ours = coupled_step(state, params, 1e-3, dilated)
    ref = coupled_step(state, params, 1e-3)
    assert np.array_equal(ours.q.coeffs, ref.q.coeffs)
    assert np.array_equal(ours.u.coeffs, ref.u.coeffs)


def object_path_step(state, params, dt, coeffs=None):
    """coupled_step written out through fields built afresh on every sweep.

    Each field is formed as field arithmetic would form it: a scaled sum of
    two fields is (a + b) * factor on the coefficients, its nodal values
    synthesized from them, and no field is reused across sweeps.
    """
    frame = state.frame
    coeffs = coeffs or step_coefficients(params, frame.sigma)
    q_prev, u_prev = state.q, state.u
    momentum_prev = state.momentum
    if momentum_prev is None:
        momentum_prev = u_prev.coeffs @ assemble_mass(q_prev).matrix.T
    advection = 0.5 * coeffs["transport"]
    u_iter = u_prev
    for _ in range(MAX_SWEEPS):
        u_adv = VectorField(frame, coeffs=(u_prev.coeffs + u_iter.coeffs) * advection)
        q_new = object_path_fp_step(q_prev, u_adv, params.delta1, dt)
        q_mid = ScalarField(frame, coeffs=(q_prev.coeffs + q_new.coeffs) * 0.5)
        u_mid = VectorField(frame, coeffs=(u_prev.coeffs + u_iter.coeffs) * 0.5)
        force = momentum_rhs(q_mid, u_mid, coeffs)
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
    # each stepped state's momentum is M[q]u of that very state, and so is
    # that of the final state a march returns; only the initial state, built
    # by hand, carries none
    frame = request.getfixturevalue(frame_name)
    params = ModelParams(a=1.0, kappa=1.0, nu=0.5, lam=2.0, r0=0.1, delta1=0.3)
    q0 = random_density(frame, rng, decay=0.3)
    u0 = random_velocity(frame, rng, decay=0.3, amplitude=0.1)
    state = make_initial_state(q0, u0)
    assert state.momentum is None
    for _ in range(4):
        state = coupled_step(state, params, 1e-3)
        expected = state.u.coeffs @ assemble_mass(state.q).matrix.T
        assert np.array_equal(state.momentum, expected)
    (result,), _ = march(frame, [params], [q0], [u0], dt=1e-3, t_final=4e-3, record_every=2)
    final = result.final_state
    assert np.array_equal(final.q.coeffs, state.q.coeffs)
    assert np.array_equal(final.momentum, final.u.coeffs @ assemble_mass(final.q).matrix.T)


def test_translating_equilibrium_is_second_order():
    # in the harmonic trap the translated equilibrium is an exact solution of
    # the unregularized system: q is the tilt alpha0 cos(sqrt(lam) t) and u
    # the uniform -sqrt(lam) alpha0 sigma^2 sin(sqrt(lam) t); halving dt
    # twice must cut both errors by four each time
    params = ModelParams(a=1.0, kappa=1.0, nu=0.5, lam=4.0)
    frame = build_frame(params.a, params.kappa, params.lam, 1, 24)
    alpha0, omega, t_final = 0.3123, math.sqrt(params.lam), 0.4
    errors = []
    for dt in (4e-3, 2e-3, 1e-3):
        state = make_initial_state(tilted_density(frame, alpha0), VectorField.zero(frame))
        for _ in range(round(t_final / dt)):
            state = coupled_step(state, params, dt)
        q_exact = tilted_density(frame, alpha0 * math.cos(omega * state.t))
        u_exact = -omega * alpha0 * frame.sigma**2 * math.sin(omega * state.t)
        errors.append((frame.norm_l2mu(state.q.nodal - q_exact.nodal),
                       frame.norm_l2mu(state.u.nodal[0] - u_exact)))
    for coarse, fine in zip(errors, errors[1:]):
        for e_coarse, e_fine in zip(coarse, fine):
            assert math.log2(e_coarse / e_fine) >= 1.9, errors



def breathing_dilation(params, sigma, b, t, h=1e-4):
    """(tau, tau') at t of tau'' = a/(sigma^2 tau) + kappa^2/(sigma^4 tau^3)
    - 2 nu tau'/(sigma^2 tau^2) - lam tau from tau(0) = 1, tau'(0) = b, by RK4."""
    def rhs(tau, p):
        return (params.a / (sigma**2 * tau) + params.kappa**2 / (sigma**4 * tau**3)
                - 2.0 * params.nu * p / (sigma**2 * tau**2) - params.lam * tau)

    tau, p = 1.0, b
    for _ in range(round(t / h)):
        k1t, k1p = p, rhs(tau, p)
        k2t, k2p = p + 0.5 * h * k1p, rhs(tau + 0.5 * h * k1t, p + 0.5 * h * k1p)
        k3t, k3p = p + 0.5 * h * k2p, rhs(tau + 0.5 * h * k2t, p + 0.5 * h * k2p)
        k4t, k4p = p + h * k3p, rhs(tau + h * k3t, p + h * k3p)
        tau += h / 6.0 * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
        p += h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    return tau, p


def breathing_errors(dim, degree, t_final):
    """(err_q, err_u) of each boost b = 0.1, -0.1 in the L2_mu norm at t_final,
    per dt = 4e-3, 2e-3, 1e-3, for the breathing solution in the trap.

    q = tau^-d exp(|x|^2 (1 - tau^-2) / (2 sigma^2)), u = (tau'/tau) x is an
    exact solution of the unregularized system, and family = steady with
    u_scale = b starts it at tau'(0) = b.  D(u) = (tau'/tau) I, so pressure,
    viscosity and capillarity all act."""
    params = ModelParams(a=1.0, kappa=1.0, nu=0.5, lam=4.0)
    frame = build_frame(params.a, params.kappa, params.lam, dim, degree)
    boosts = (0.1, -0.1)
    q0 = ScalarField(frame, coeffs=np.eye(frame.n_basis)[0])
    u0 = [project_initial_velocity(q0, b * frame.nodes.T) for b in boosts]
    x = frame.nodes.T
    rsq = np.sum(x**2, axis=0)
    exact = []
    for b in boosts:
        tau, tau_dot = breathing_dilation(params, frame.sigma, b, t_final)
        q = tau**-dim * np.exp(rsq * (1.0 - tau**-2) / (2.0 * frame.sigma**2))
        exact.append((frame.project_nodal(q), frame.project_nodal(tau_dot / tau * x)))
    errors = []
    for dt in (4e-3, 2e-3, 1e-3):
        results, failure = march(frame, [params] * len(boosts), [q0] * len(boosts), u0,
                                 dt, t_final, record_every=round(t_final / dt))
        assert failure is None
        errors.append([(float(np.linalg.norm(r.final_state.q.coeffs - q_ex)),
                        float(np.linalg.norm(r.final_state.u.coeffs - u_ex)))
                       for r, (q_ex, u_ex) in zip(results, exact)])
    return errors


@pytest.mark.parametrize("dim, degree, t_final", [(1, 24, 0.4), (2, 20, 0.2)],
                         ids=["1d", "2d"])
def test_breathing_gaussian_is_second_order(dim, degree, t_final):
    # halving dt twice must cut both errors by four each time, for an
    # expanding and a compressing start.  The march runs in a child process
    # with one BLAS thread: on a 2-core host, threaded BLAS made the 2D
    # degree-20 march about ten times slower (28 s against 2.7 s)
    src = str(Path(spectral.__file__).resolve().parents[1])
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import json, test_galerkin; "
             f"print(json.dumps(test_galerkin.breathing_errors({dim}, {degree}, {t_final})))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=Path(__file__).parent, env=env,
                         capture_output=True, text=True, check=True)
    errors = json.loads(out.stdout.splitlines()[-1])
    for coarse, fine in zip(errors, errors[1:]):
        for pair_coarse, pair_fine in zip(coarse, fine):
            for e_coarse, e_fine in zip(pair_coarse, pair_fine):
                assert math.log2(e_coarse / e_fine) >= 1.9, errors

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
            records.append((state.t, record_states([state], params)[0].mx))
        t = np.array([r[0] for r in records])
        mx = np.array([r[1] for r in records])
        exact = x0[None, :] * np.cos(2.0 * t)[:, None]
        rel = np.linalg.norm(mx - exact) / np.linalg.norm(exact)
        assert rel < 1e-4
        assert abs(state.q.coeffs[0] - 1.0) < 1e-12



def stack_members(frame, rng):
    """Four states with their params: a drag-free member among regularized
    ones, a member built from nodal values, and velocities of different
    sizes, so that the members settle at different sweeps."""
    base = {"a": 1.0, "kappa": 1.0, "nu": 0.5, "lam": 2.0}
    params = [ModelParams(**base, r0=0.1, r1=0.2, r4=0.05, delta1=0.3),
              ModelParams(**base),
              ModelParams(**base, r1=0.05, delta1=0.1),
              ModelParams(**base, r0=0.2)]
    states = []
    for k, amplitude in enumerate((0.0, 0.05, 0.2, 0.1)):
        q = random_density(frame, rng, decay=0.3)
        u = random_velocity(frame, rng, decay=0.3, amplitude=amplitude)
        if k == 2:
            # built from nodal values, which stay verbatim: the synthesis of
            # their projection differs from them in the last bits
            q, u = ScalarField(frame, nodal=q.nodal), VectorField(frame, nodal=u.nodal)
            assert not np.array_equal(q.nodal, frame.derivatives(q.coeffs, 0))
        states.append(SimState(q, u))
    return states, params


class TestStackedStep:
    @pytest.mark.parametrize("frame_name", ["frame_1d", "frame_2d"])
    def test_members_equal_their_steps_alone(self, frame_name, request, rng, monkeypatch):
        # three stacked steps against each member stepped alone, bit for bit
        frame = request.getfixturevalue(frame_name)
        states, params = stack_members(frame, rng)
        sweeps = counted(monkeypatch, galerkin.momentum_rhs)
        stack = stack_states(states)
        settled_apart = False
        for _ in range(3):
            stack = coupled_step(stack, params, 1e-3)
            counts = []
            for k, (state, p) in enumerate(zip(states, params)):
                before = len(sweeps)
                states[k] = coupled_step(state, p, 1e-3)
                counts.append(len(sweeps) - before)
            settled_apart = settled_apart or len(set(counts)) > 1
            for ours, alone in zip(member_states(stack), states):
                assert ours.t == alone.t
                assert np.array_equal(ours.q.coeffs, alone.q.coeffs)
                assert np.array_equal(ours.q.nodal, alone.q.nodal)
                assert np.array_equal(ours.u.coeffs, alone.u.coeffs)
                assert np.array_equal(ours.momentum, alone.momentum)
        # the members settled at different sweeps, so the settled ones were set aside
        assert settled_apart

    def test_dilated_coefficients_apply_to_every_member(self, frame_1d, rng):
        coeffs = tau_coeffs(drag_free(), TauState(1.7, 0.3, 0.0))
        states = [make_initial_state(random_density(frame_1d, rng, decay=0.3),
                                     random_velocity(frame_1d, rng, decay=0.3, amplitude=a))
                  for a in (0.05, 0.1)]
        stack = coupled_step(stack_states(states), [drag_free()] * 2, 1e-3, coeffs)
        for ours, state in zip(member_states(stack), states):
            alone = coupled_step(state, drag_free(), 1e-3, coeffs)
            assert np.array_equal(ours.u.coeffs, alone.u.coeffs)
            assert np.array_equal(ours.q.coeffs, alone.q.coeffs)

    def test_table_is_formed_once_per_step(self, frame_1d, rng, monkeypatch):
        # the members sweep more than once, and the coefficient table of the
        # step is formed before the first sweep only; a given table is not formed again
        states, params = stack_members(frame_1d, rng)
        dilated = tau_coeffs(drag_free(), TauState(1.7, 0.3, 0.0))
        tables = counted(monkeypatch, galerkin.step_coefficients)
        sweeps = counted(monkeypatch, galerkin.momentum_rhs)
        coupled_step(stack_states(states), params, 1e-3)
        assert len(tables) == 1 and len(sweeps) >= 2
        coupled_step(states[2], params[2], 1e-3)
        assert len(tables) == 2
        coupled_step(states[1], drag_free(), 1e-3, dilated)
        assert len(tables) == 2

    def test_start_is_formed_once_per_step(self, frame_1d, rng, monkeypatch):
        # the density step's decay tables are formed before the first sweep
        # only, two per step however many sweeps run and however the members
        # settle apart (see test_members_equal_their_steps_alone)
        states, params = stack_members(frame_1d, rng)
        decays = counted(monkeypatch, fokker_planck._ou_decay)
        sweeps = counted(monkeypatch, galerkin.momentum_rhs)
        stack = stack_states(states)
        for k in (1, 2):
            stack = coupled_step(stack, params, 1e-3)
            assert len(decays) == 2 * k
        assert len(sweeps) >= 4

    def test_stall_names_the_member(self, frame_1d, monkeypatch):
        # the resting members settle at the first sweep; the moving one stalls
        # after it, and the error names its place in the stack
        monkeypatch.setattr(galerkin, "MAX_SWEEPS", 2)
        rest = make_initial_state(unit_field(frame_1d), VectorField.zero(frame_1d))
        q0 = tilted_density(frame_1d, 0.25)
        moving = SimState(q0, project_initial_velocity(q0, 0.15 * frame_1d.nodes.T.copy()))
        with pytest.raises(StepFailureError) as alone:
            coupled_step(moving, drag_free(), 1e-3)
        with pytest.raises(StepFailureError) as stacked:
            coupled_step(stack_states([rest, moving, rest]), [drag_free()] * 3, 1e-3)
        assert str(stacked.value) == str(alone.value)
        assert stacked.value.member == 1 and alone.value.member == 0

    def test_positivity_breach_names_the_member(self, frame_1d, rng):
        # a density below the floor fails in the force assembly with the
        # error of that member alone
        x = frame_1d.nodes[:, 0]
        bad = SimState(transform(frame_1d, 0.1 + 0.2 * x), VectorField.zero(frame_1d))
        good = make_initial_state(random_density(frame_1d, rng), VectorField.zero(frame_1d))
        with pytest.raises(PositivityError) as alone:
            coupled_step(bad, drag_free(), 1e-3)
        with pytest.raises(PositivityError) as stacked:
            coupled_step(stack_states([good, good, bad]), drag_free(), 1e-3)
        assert str(stacked.value) == str(alone.value)
        assert stacked.value.member == 2 and alone.value.member == 0


MEMBER = st.fixed_dictionaries({
    "delta1": st.one_of(st.just(0.0), st.floats(0.05, 0.3)),
    "r0": st.one_of(st.just(0.0), st.floats(0.0, 0.3)),
    "r1": st.one_of(st.just(0.0), st.floats(0.0, 0.3)),
    "amplitude": st.floats(0.0, 0.2),
})


@settings(derandomize=True, max_examples=12, deadline=None)
@given(members=st.lists(MEMBER, min_size=1, max_size=4),
       nodal_member=st.one_of(st.none(), st.integers(0, 3)),
       seed=st.integers(0, 2**16))
def test_random_stacks_equal_their_members_alone(members, nodal_member, seed):
    # two stacked steps equal each member stepped alone, bit for bit, and
    # the density step handed its start, whole or for the members still
    # swept, equals the density step that forms the start itself
    frame = PROPERTY_FRAMES[1]
    rng = np.random.default_rng(seed)
    base = {"a": 1.0, "kappa": 1.0, "nu": 0.5, "lam": 2.0}
    params, states = [], []
    for k, m in enumerate(members):
        params.append(ModelParams(**base, r0=m["r0"], r1=m["r1"], delta1=m["delta1"]))
        q = random_density(frame, rng, decay=0.3)
        u = random_velocity(frame, rng, decay=0.3, amplitude=m["amplitude"])
        if k == nodal_member:
            # kept verbatim, so its first midpoint is a synthesis, not q.nodal
            q, u = ScalarField(frame, nodal=q.nodal), VectorField(frame, nodal=u.nodal)
        states.append(SimState(q, u))

    stack = stack_states(states)
    delta1 = step_coefficients(params if stack.stacked else params[0], frame.sigma)["delta1"]
    start = fokker_planck._density_start(stack.q, delta1, 1e-3)
    alone = fokker_planck.fp_step(stack.q, stack.u, delta1, 1e-3)
    handed = fokker_planck.fp_step(stack.q, stack.u, delta1, 1e-3, start=start)
    assert np.array_equal(handed.coeffs, alone.coeffs)
    if stack.stacked:
        keep = np.sort(rng.choice(len(members), rng.integers(1, len(members) + 1), replace=False))
        part = stack.q.take(keep), stack.u.take(keep), delta1[keep]
        alone = fokker_planck.fp_step(*part, 1e-3)
        handed = fokker_planck.fp_step(*part, 1e-3, start=fokker_planck._take_start(start, keep))
        assert np.array_equal(handed.coeffs, alone.coeffs)

    for _ in range(2):
        stack = coupled_step(stack, params, 1e-3)
        states = [coupled_step(s, p, 1e-3) for s, p in zip(states, params)]
        for ours, mine in zip(member_states(stack), states):
            assert np.array_equal(ours.q.coeffs, mine.q.coeffs)
            assert np.array_equal(ours.q.nodal, mine.q.nodal)
            assert np.array_equal(ours.u.coeffs, mine.u.coeffs)
            assert np.array_equal(ours.momentum, mine.momentum)
