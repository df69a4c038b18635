import dataclasses
import math

import numpy as np
import pytest

from hermflow import (
    InvalidParameterError,
    ModelParams,
    ScalarField,
    StateBundle,
    VectorField,
    check_hessian_lemma,
    check_log_sobolev,
    i2_ode_residual,
)
from hermflow.calculus import bohm_residual, gradient_nodal, korteweg_consistency
from hermflow.diagnostics import (
    DiagnosticsRecord,
    _korn_ratio,
    _poincare_ratio,
    bd_entropy_regularized,
    csv_header,
    csv_row,
    lsi_margins,
    sample_margins,
)
from hermflow.galerkin import make_initial_state
from hermflow.sampling import random_density, random_velocity, tilted_density
from hermflow.spectral import transform

from conftest import record_states, unit_field


def base_params(**kw):
    defaults = dict(a=1.0, kappa=1.0, nu=0.5, lam=2.0)
    defaults.update(kw)
    return ModelParams(**defaults)


def diagnose(q, u, params):
    return record_states([make_initial_state(q, u)], params)[0]


def minimal_energy(params, sigma, dim):
    """Flat-measure energy of the Gaussian equilibrium."""
    return dim * (params.kappa**2 / sigma**2 - 0.5 * params.a * math.log(2.0 * math.pi * sigma**2))


def energy_lebesgue(q, u, params):
    """Total flat-measure energy of rho = q rho_m: kinetic + entropic +
    capillary-Fisher + confinement, computed by the same quadrature."""
    frame = q.frame
    d = frame.dim
    sig2 = frame.sigma**2
    b = StateBundle(q, u)
    ln_rho_m = -0.5 * d * math.log(2.0 * math.pi * sig2) - frame.radius_sq / (2.0 * sig2)
    # q |grad ln rho|^2 expanded: |grad q|^2/q - 2 grad q . x / sigma^2 + q |x|^2 / sigma^4
    fisher_rho = (
        b.fisher_integrand
        - 2.0 * np.einsum("in,in->n", b.gq, frame.nodes.T) / sig2
        + b.qn * frame.radius_sq / sig2**2
    )
    return (
        0.5 * b.quad(b.qn * b.raw2)
        + params.a * (b.quad(b.qlnq) + b.quad(b.qn * ln_rho_m))
        + 0.5 * params.kappa**2 * b.quad(fisher_rho)
        + 0.5 * params.lam * b.quad(b.qn * frame.radius_sq)
    )


class TestEnergy:
    def test_equilibrium_is_zero(self, frame_1d):
        rec = diagnose(unit_field(frame_1d), VectorField.zero(frame_1d), base_params())
        assert abs(rec.e_reg) < 1e-13 and abs(rec.d_reg) < 1e-13

    def test_quartic_moment_share(self, frame_1d):
        # (1, 0) with r4 = 0.5 in d = 1, sigma = 1: E = (0.5/4) * 3
        rec = diagnose(unit_field(frame_1d), VectorField.zero(frame_1d), base_params(r4=0.5))
        assert rec.e_reg == pytest.approx(0.375, rel=1e-12)

    def test_tilt_closed_form(self, frame_1d_fine):
        # exponential tilt alpha at sigma = 1: int q ln q = alpha^2/2 and
        # |grad ln q|^2 = alpha^2, so E = (a + kappa^2) alpha^2 / 2
        alpha = 0.3
        q = tilted_density(frame_1d_fine, alpha)
        rec = diagnose(q, VectorField.zero(frame_1d_fine), base_params())
        assert rec.e_reg == pytest.approx((1.0 + 1.0) * alpha**2 / 2.0, rel=1e-9)


class TestBDEntropy:
    def test_equilibrium(self, frame_1d):
        rec = diagnose(unit_field(frame_1d), VectorField.zero(frame_1d), base_params())
        assert abs(rec.e_bd) < 1e-13 and abs(rec.d_bd) < 1e-13

    def test_friction_entropy_share(self, frame_1d):
        # 2 nu r0 int (q - ln q) at q = 1 equals 2 * 0.5 * 0.1
        rec = diagnose(unit_field(frame_1d), VectorField.zero(frame_1d), base_params(r0=0.1))
        assert rec.e_bd == pytest.approx(0.1, rel=1e-12)

    def test_nonnegative_on_random_states(self, frame_1d, rng):
        params = base_params(r0=0.2, r1=0.1, r4=0.1, delta1=0.3)
        for _ in range(25):
            q = random_density(frame_1d, rng)
            u = random_velocity(frame_1d, rng, amplitude=0.5)
            assert diagnose(q, u, params).e_bd >= -1e-10


class TestMoments:
    def test_equilibrium_values(self, frame_1d, frame_2d):
        for frame in (frame_1d, frame_2d):
            rec = diagnose(unit_field(frame), VectorField.zero(frame), base_params())
            d = frame.dim
            assert rec.mass == pytest.approx(1.0, abs=1e-13)
            assert rec.i2 == pytest.approx(d, rel=1e-12)
            assert abs(rec.i2_tilde) < 1e-12
            assert rec.i4 == pytest.approx(d * (d + 2), rel=1e-12)
            assert np.max(np.abs(rec.mx)) < 1e-13 and np.max(np.abs(rec.mu)) < 1e-13

    def test_tilt_mean(self, frame_1d_fine):
        alpha = 0.35
        q = tilted_density(frame_1d_fine, alpha)
        rec = diagnose(q, VectorField.zero(frame_1d_fine), base_params())
        assert rec.mx[0] == pytest.approx(alpha * frame_1d_fine.sigma**2, abs=1e-10)


class TestLogSobolev:
    def test_equilibrium_margin_zero(self, frame_1d):
        assert abs(check_log_sobolev(unit_field(frame_1d))) < 1e-13

    def test_tilt_is_extremizer(self, frame_1d):
        q = tilted_density(frame_1d, 0.4)
        assert abs(check_log_sobolev(q)) < 1e-6

    def test_both_constants_coincide_at_unit_scale(self, frame_1d, rng):
        q = random_density(frame_1d, rng)
        main, alt = lsi_margins(q)
        assert main == pytest.approx(alt, rel=1e-12)  # sigma = 1 frame

    def test_random_sweep(self, frame_1d, frame_2d, rng):
        for frame in (frame_1d, frame_2d):
            for _ in range(25):
                assert check_log_sobolev(random_density(frame, rng)) >= -1e-8

    def test_requires_unit_mass(self, frame_1d):
        q = ScalarField(frame_1d, coeffs=2.0 * np.eye(frame_1d.n_basis)[0])
        with pytest.raises(InvalidParameterError):
            check_log_sobolev(q)


class TestHessianLemma:
    def test_equilibrium_values(self, frame_1d, frame_2d):
        for frame in (frame_1d, frame_2d):
            a, b, d_val, i4, mid, fin = check_hessian_lemma(unit_field(frame))
            dd = frame.dim
            assert a == b == d_val == 0.0
            assert fin == pytest.approx(0.75 * dd * (dd + 2) / frame.sigma**4, rel=1e-12)
            assert mid >= -1e-12

    def test_perturbed_mode(self, frame_1d):
        coeffs = np.zeros(frame_1d.n_basis)
        coeffs[0], coeffs[2] = 1.0, 0.05
        q = ScalarField(frame_1d, coeffs=coeffs)
        _, _, _, _, mid, fin = check_hessian_lemma(q)
        assert mid >= -1e-8 and fin >= -1e-8

    def test_random_sweep(self, frame_1d, frame_2d, rng):
        for frame in (frame_1d, frame_2d):
            for _ in range(25):
                q = random_density(frame, rng)
                _, _, _, _, mid, fin = check_hessian_lemma(q)
                assert mid >= -1e-8 and fin >= -1e-8


def poincare_of(f):
    """The strong-Poincare ratio of a field, from its nodal values and gradient."""
    return float(_poincare_ratio(f.frame, f.nodal, gradient_nodal(f)))


def korn_of(u):
    """The Korn ratio of a velocity, from its nodal values and symmetric gradient."""
    du = gradient_nodal(u)
    return float(_korn_ratio(u.frame, u.nodal, 0.5 * (du + du.transpose(1, 0, 2))))


class TestPoincare:
    def test_constant_ratio_zero(self, frame_1d):
        assert poincare_of(unit_field(frame_1d)) == 0.0

    def test_linear_ratio(self, frame_1d):
        # f = x at sigma = 1: LHS^2 = E[(1+x^2) x^2] = 4, RHS^2 = 1
        x = frame_1d.nodes[:, 0]
        assert poincare_of(transform(frame_1d, x)) == pytest.approx(2.0, rel=1e-12)

    def test_rotation_projected_out(self, frame_2d):
        x, y = frame_2d.nodes[:, 0], frame_2d.nodes[:, 1]
        u = VectorField(frame_2d, nodal=[-y, x])
        assert korn_of(u) == 0.0

    def test_random_finite(self, frame_2d, rng):
        for _ in range(10):
            u = random_velocity(frame_2d, rng)
            assert math.isfinite(korn_of(u))


class TestSampleMargins:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("frame_name", ["frame_1d", "frame_2d"])
    def test_equal_floats_to_per_function_values(self, frame_name, seed, request):
        # each entry read from the sample's one bundle equals, bit for bit,
        # its own function's value on its own bundle or gradients
        frame = request.getfixturevalue(frame_name)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            q = random_density(frame, rng, decay=0.35, amplitude=0.4)
            u = random_velocity(frame, rng, decay=0.35, amplitude=1.0)
            row = sample_margins(StateBundle(q, u))
            lsi_main, lsi_alt = lsi_margins(q)
            _, _, _, _, mid, fin = check_hessian_lemma(q)
            assert row == {
                "lsi_margin": lsi_main,
                "lsi_margin_alt_constant": lsi_alt,
                "hess_margin_mid": mid,
                "hess_margin_final": fin,
                "poincare_q": poincare_of(q),
                "poincare_korn_u": korn_of(u),
                "korteweg_mismatch": korteweg_consistency(q),
                "bohm_residual": bohm_residual(q),
            }


class TestSecondMomentEquation:
    @staticmethod
    def manufactured_records(params, sigma, dt, n):
        recs = []
        gain = 1.0 - 2.0 * params.nu / sigma**2 + 2.0 * (params.lam + params.kappa**2 / sigma**4)
        for k in range(n):
            t = k * dt
            decay = math.exp(-t)
            recs.append(DiagnosticsRecord(
                t=t, mass=1.0, e_reg=0.0, d_reg=0.0, e_bd=0.0, d_bd=0.0,
                d_bd_reg=0.0, r_bd_reg=0.0, i2=1.0 + decay, i2_tilde=decay,
                i4=0.0, mx=(0.0,), mu=(0.0,), min_q=1.0, max_q=1.0, lsi_margin=0.0,
                hess_margin_mid=0.0, hess_margin_final=0.0, poincare_q=0.0,
                poincare_korn_u=0.0, ke2=sigma**2 / 2.0 * gain * decay, fisher=0.0,
                cross_qu=0.0, drag0_x=0.0, drag1_x=0.0,
            ))
        return recs

    def test_manufactured_solution(self):
        params = ModelParams(a=1.0, kappa=1.0, nu=0.5, lam=2.0)
        recs = self.manufactured_records(params, 1.0, 1e-2, 201)
        assert i2_ode_residual(recs, params, 1.0) < 1e-8

    def test_too_few_records(self):
        params = base_params()
        recs = self.manufactured_records(params, 1.0, 1e-2, 4)
        with pytest.raises(InvalidParameterError):
            i2_ode_residual(recs, params, 1.0)

    def test_nonuniform_rejected(self):
        params = base_params()
        recs = self.manufactured_records(params, 1.0, 1e-2, 10)
        bad = recs[:5] + [DiagnosticsRecord(**{**recs[5].__dict__, "t": 0.9})] + recs[6:]
        with pytest.raises(InvalidParameterError):
            i2_ode_residual(bad, params, 1.0)


class TestEnergyBridge:
    def test_minimal_energy_value(self, frame_1d):
        # d = 1, a = 1, kappa = 1, sigma = 1: 1 - ln(2 pi)/2
        ref = 1.0 - 0.5 * math.log(2.0 * math.pi)
        assert minimal_energy(base_params(), frame_1d.sigma, 1) == pytest.approx(ref, rel=1e-14)
        assert ref == pytest.approx(0.08106146679532726, rel=1e-12)

    def test_relative_energy_identity(self, frame_1d, rng):
        # flat-measure energy minus its minimum equals the relative energy
        params = base_params()
        for _ in range(10):
            q = random_density(frame_1d, rng)
            u = random_velocity(frame_1d, rng, amplitude=0.5)
            total = energy_lebesgue(q, u, params)
            rel = diagnose(q, u, params).e_reg
            assert total - minimal_energy(params, frame_1d.sigma, 1) == pytest.approx(
                rel, abs=1e-10
            )


class TestRecordSerialization:
    def test_csv_round(self, frame_1d):
        state = make_initial_state(unit_field(frame_1d), VectorField.zero(frame_1d))
        rec = record_states([state], base_params())[0]
        header = csv_header(1)
        row = csv_row(rec)
        assert len(header) == len(row)
        assert header[:4] == ["t", "mass", "E_reg", "D_reg"]
        assert rec.mass == pytest.approx(1.0, abs=1e-13)
        assert rec.e_bd >= -1e-12

    def test_csv_columns_in_2d(self, frame_2d, rng):
        # the vector moments take one column per axis, between I4 and min_q
        state = make_initial_state(random_density(frame_2d, rng), VectorField.zero(frame_2d))
        rec = record_states([state], base_params())[0]
        header = csv_header(2)
        assert header == [
            "t", "mass", "E_reg", "D_reg", "E_BD", "D_BD", "I2", "I2_tilde", "I4",
            "Mx_0", "Mx_1", "Mu_0", "Mu_1", "min_q", "max_q", "lsi_margin",
            "hess_margin_mid", "hess_margin_final", "poincare_q", "poincare_korn_u",
        ]
        row = dict(zip(header, csv_row(rec)))
        assert (row["Mx_0"], row["Mx_1"]) == rec.mx and (row["Mu_0"], row["Mu_1"]) == rec.mu
        assert (row["I4"], row["min_q"], row["poincare_korn_u"]) == (rec.i4, rec.min_q,
                                                                      rec.poincare_korn_u)


class TestRecordTable:
    FIELDS = [
        "t", "mass", "e_reg", "d_reg", "e_bd", "d_bd", "d_bd_reg", "r_bd_reg", "i2",
        "i2_tilde", "i4", "mx", "mu", "min_q", "max_q", "lsi_margin", "hess_margin_mid",
        "hess_margin_final", "poincare_q", "poincare_korn_u", "ke2", "fisher", "cross_qu",
        "drag0_x", "drag1_x",
    ]

    def test_fields_in_order(self):
        fields = dataclasses.fields(DiagnosticsRecord)
        assert [f.name for f in fields] == self.FIELDS
        assert [f.name for f in fields if f.type is tuple] == ["mx", "mu"]
        assert DiagnosticsRecord.__module__ == "hermflow.diagnostics"

    def test_frozen(self, frame_1d):
        rec = diagnose(unit_field(frame_1d), VectorField.zero(frame_1d), base_params())
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.mass = 2.0

    def test_csv_row_reads_the_record(self, frame_2d, rng):
        # every column is the record field of its header, each axis of a
        # vector moment in turn; the audit-only integrals have no column
        rec = diagnose(random_density(frame_2d, rng), VectorField.zero(frame_2d), base_params())
        audit_only = {"d_bd_reg", "r_bd_reg", "ke2", "fisher", "cross_qu", "drag0_x", "drag1_x"}
        expected = []
        for name in self.FIELDS:
            if name not in audit_only:
                value = getattr(rec, name)
                expected += value if isinstance(value, tuple) else [value]
        assert csv_row(rec) == expected and len(csv_header(2)) == len(expected)


class TestRecordMatchesStandalone:
    def test_equal_floats(self, frame_1d, frame_2d, rng):
        # record() and the stand-alone functions read one bundle each; both
        # call paths must give the same floats, not merely close ones
        params = base_params(r0=0.1, r1=0.1, r4=0.1, delta1=0.2)
        for frame in (frame_1d, frame_2d):
            for _ in range(3):
                q = random_density(frame, rng)
                u = random_velocity(frame, rng, amplitude=0.5)
                rec = diagnose(q, u, params)
                assert rec.lsi_margin == lsi_margins(q)[0]
                _, _, _, _, mid, fin = check_hessian_lemma(q)
                assert (rec.hess_margin_mid, rec.hess_margin_final) == (mid, fin)
                assert rec.poincare_korn_u == korn_of(u)
                assert (rec.d_bd_reg, rec.r_bd_reg) == bd_entropy_regularized(q, u, params)


class TestPerStepEnergyBalance:
    def test_no_spurious_gain_per_step(self):
        # each accepted step obeys the absorbed energy bound up to O(dt^2)
        from hermflow.driver import simulate
        from hermflow.sampling import tilted_density
        from hermflow.spectral import build_frame

        frame = build_frame(1.0, 1.0, 2.0, 1, 16)
        params = ModelParams(a=1.0, kappa=1.0, nu=0.5, lam=2.0,
                             r0=0.1, r1=0.1, r4=0.05, delta1=0.5)
        q0 = tilted_density(frame, 0.1)
        allowance = 2.0 * params.r4 * params.delta1 * 9.0 / frame.sigma**2
        for dt in (4e-3, 1e-3):
            res = simulate(frame, params, q0, VectorField.zero(frame), dt=dt, t_final=0.1)
            recs = res.records
            worst = max(
                b.e_reg + 0.25 * (a.d_reg + b.d_reg) * dt - a.e_reg - allowance * dt
                for a, b in zip(recs, recs[1:])
            )
            assert max(worst, 0.0) <= 1.0 * dt**2
