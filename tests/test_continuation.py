import json

import numpy as np
import pytest

from hermflow import (InvalidParameterError, ModelParams, ScalarField, StateBundle, VectorField,
                     build_frame)
from scipy.signal import fftconvolve

import hermflow.continuation
import hermflow.driver
from hermflow import galerkin
from hermflow.continuation import (
    drag_schedule,
    mollify_initial_data,
    schedule_indices,
    vanishing_drag_sweep,
)
from hermflow.calculus import gradient_nodal
from hermflow.diagnostics import energy_inequality_audit, record
from hermflow.driver import march
from hermflow.errors import StepFailureError
from hermflow.galerkin import SimState, member_states, stack_states
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


class TestMollifierGrid:
    @pytest.mark.parametrize("n", [1, 4, 64])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_sizes_the_grid_mollify_builds(self, frame_1d, frame_2d, rng, monkeypatch,
                                           dim, n):
        # the axis and the kernel mollify_initial_data samples are the ones sized
        frame = frame_1d if dim == 1 else frame_2d
        lo, hi, npts, step, m = hermflow.continuation.mollifier_grid(frame, n)
        shapes = []

        def recording(g, kernel):
            shapes.append((g.shape, kernel.shape))
            return fftconvolve(g, kernel, mode="same")

        monkeypatch.setattr(hermflow.continuation, "_convolve_same", recording)
        mollify_initial_data(random_density(frame, rng), VectorField.zero(frame), n)
        assert shapes == [((npts,) * dim, (2 * m + 1,) * dim)]
        axis = np.linspace(lo, hi, npts)
        assert axis[1] - axis[0] == step

    def test_tight_2d_grid_rejected_before_mollifying(self, monkeypatch):
        # sigma ~ 1e-3: 2049 points per axis and a 2001^2 kernel, 1.7e13
        # convolution terms; nothing is sampled on the grid
        frame = build_frame(a=1.0, kappa=1.0, lam=1e12, dim=2, degree=4)

        def no_grid(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(hermflow.continuation, "_grid", no_grid)
        with pytest.raises(InvalidParameterError, match="2049 grid points per axis in 2D"):
            mollify_initial_data(tilted_density(frame, 0.3), VectorField.zero(frame), 4)
        with pytest.raises(InvalidParameterError, match="1.7e[+]13 convolution terms"):
            hermflow.continuation.mollifier_grid(frame, 4)


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


class TestCubicSpline:
    """``_cubic_spline_at`` against the interpolator it replaces, bit for bit."""

    @staticmethod
    def assert_reference_bits(axis, values, points, got):
        from scipy.interpolate import RegularGridInterpolator
        ref = RegularGridInterpolator((axis,) * values.ndim, values, method="cubic")(points)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    @staticmethod
    def spline_calls(monkeypatch, q0, n_list):
        """(axis, values, points, result) of every spline call made mollifying q0 at n_list."""
        calls = []
        spline = hermflow.continuation._cubic_spline_at

        def recording(axis, values, points):
            result = spline(axis, values, points)
            calls.append((axis, values, points, result))
            return result

        monkeypatch.setattr(hermflow.continuation, "_cubic_spline_at", recording)
        for n in n_list:
            mollify_initial_data(q0, VectorField.zero(q0.frame), n)
        return calls

    @pytest.mark.parametrize("alpha", [1.0, -1.0])
    def test_sweep_grids(self, tight_frame, monkeypatch, alpha):
        # the four members of configs/sweep.cfg: dim 1, degree 16, tilt +-1
        calls = self.spline_calls(monkeypatch, tilted_density(tight_frame, alpha),
                                  (4, 8, 16, 32))
        assert len(calls) == 4
        for call in calls:
            self.assert_reference_bits(*call)

    def test_2d_grids(self, rng, monkeypatch):
        frame = build_frame(a=1.0, kappa=0.5, lam=100.0, dim=2, degree=6)
        calls = self.spline_calls(monkeypatch, random_density(frame, rng), (1, 4, 16))
        assert len(calls) == 3
        for axis, values, points, got in calls:
            assert values.shape == (len(axis),) * 2
            self.assert_reference_bits(axis, values, points, got)

    def test_solver_failure_raises(self, monkeypatch):
        axis = np.linspace(-1.0, 1.0, 9)
        monkeypatch.setattr(hermflow.continuation, "gcrotmk",
                            lambda A, b, atol: (np.zeros_like(b), 1))
        with pytest.raises(ValueError, match="info = 1"):
            hermflow.continuation._cubic_spline_at(axis, axis**2, axis[:, None])


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
        stacked = hermflow.continuation._sweep_fields(
            StateBundle(ScalarField.stack(qs), VectorField.stack(us)))
        for k, (q, u) in enumerate(zip(qs, us)):
            for got, want in zip(stacked, self.per_state_fields(q, u)):
                assert got[k].shape == want.shape
                assert np.array_equal(got[k], want)

    def test_distances_match_per_state_quadrature(self, frame_2d, rng):
        a, b = (rng.standard_normal((4, 2, frame_2d.n_nodes)) for _ in range(2))
        got = hermflow.continuation._sq_distance(frame_2d, a, b)
        want = [frame_2d.quad(np.einsum("in,in->n", x - y, x - y)) for x, y in zip(a, b)]
        assert got.tolist() == want


def sequential_sweep(frame, base, q0, u0, n_list, dt, t_final, record_every=1):
    """The sweep with its members marched one after another, each by a
    one-member ``march``: the oracle of the stacked march."""
    n_list = schedule_indices(n_list)
    runs = []
    report = {"n_list": n_list, "schedules": [], "audits": [], "failed_at": None}
    for n in n_list:
        q0n, u0n = mollify_initial_data(q0, u0, n)
        params = drag_schedule(n, q0n, base)
        report["schedules"].append({"n": n, "r0": params.r0, "r1": params.r1,
                                    "r4": params.r4, "delta1": params.delta1})
        fields = []

        def recorder(b, times, p):
            fields.append(hermflow.continuation._sweep_fields(b))
            return record(b, times, p)

        results, failure = march(frame, [params], [q0n], [u0n], dt, t_final,
                                 record_every=record_every, recorder=recorder)
        if failure is not None:
            report["failed_at"] = n
            report["failure"] = f"{type(failure).__name__}: {failure}"
            break
        (result,) = results
        runs.append((n, [np.concatenate(chunks) for chunks in zip(*fields)]))
        report["audits"].append(
            energy_inequality_audit(result.records, params, frame.sigma, frame.dim))
    distance = hermflow.continuation._sq_distance
    report["increments"] = [
        {"pair": (na, nb),
         "sqrtq_h1": float(np.max(np.sqrt(distance(frame, sa, sb) + distance(frame, ga, gb)))),
         "momentum_l2": float(np.max(np.sqrt(distance(frame, ja, jb))))}
        for (na, (sa, ga, ja)), (nb, (sb, gb, jb)) in zip(runs, runs[1:])]
    return report


REPORT_KEYS = ("failed_at", "failure", "schedules", "audits", "increments")


def report_json(report):
    """The compared part of a report as ``sweep_report.json`` writes it."""
    return json.dumps({key: report.get(key) for key in REPORT_KEYS}, indent=2, sort_keys=True)


def member_of(params, n):
    """The place of schedule index n in a step's params, or None."""
    rates = [p.r1 for p in params]
    return rates.index(1.0 / n) if 1.0 / n in rates else None


def failing_at(n, t_fail):
    """``coupled_step`` with member n failing from time t_fail on."""
    real = galerkin.coupled_step

    def step(state, params, dt, coeffs=None):
        member = member_of(params, n)
        if member is not None and state.t >= t_fail:
            raise StepFailureError(f"member {n} fails at t={state.t:.6g}", member=member)
        return real(state, params, dt, coeffs)

    return step


def breaching_at(frame, n, k):
    """``coupled_step`` whose member n reaches a density below the floor at
    step k and fails at the step after."""
    real = galerkin.coupled_step

    def step(state, params, dt, coeffs=None):
        member = member_of(params, n)
        steps_done = round(state.t / dt)
        if member is not None and steps_done == k:
            raise StepFailureError("the step after the breach", member=member)
        new = real(state, params, dt, coeffs)
        if member is not None and steps_done == k - 1:
            members = member_states(new)
            bad = ScalarField(frame, coeffs=frame.project_nodal(0.1 + 0.2 * frame.nodes[:, 0]))
            members[member] = SimState(bad, members[member].u, new.t)
            new = stack_states(members)
        return new

    return step


def lower_sweep_cap(t_from, cap):
    """``coupled_step`` with at most ``cap`` Picard sweeps from time t_from on."""
    real = galerkin.coupled_step

    def step(state, params, dt, coeffs=None):
        galerkin.MAX_SWEEPS = cap if state.t >= t_from - 1e-12 else 25
        return real(state, params, dt, coeffs)

    return step


class TestStackedSweepReport:
    """The members march together; the report equals, in every field, that of
    marching them one after another."""

    N_LIST = [4, 8, 16]

    def run_both(self, tight_frame, monkeypatch, step=None, t_final=0.02, record_every=1):
        params = ModelParams(a=1.0, kappa=0.5, nu=0.5, lam=100.0)
        q0 = tilted_density(tight_frame, 0.8)
        u0 = VectorField.zero(tight_frame)
        monkeypatch.setattr(galerkin, "MAX_SWEEPS", galerkin.MAX_SWEEPS)
        if step is not None:
            monkeypatch.setattr(hermflow.driver, "coupled_step", step)
        stacked = vanishing_drag_sweep(tight_frame, params, q0, u0, self.N_LIST, dt=2e-3,
                                       t_final=t_final, record_every=record_every)
        oracle = sequential_sweep(tight_frame, params, q0, u0, self.N_LIST, dt=2e-3,
                                  t_final=t_final, record_every=record_every)
        assert report_json(stacked) == report_json(oracle)
        return stacked

    def test_completed_sweep(self, tight_frame, monkeypatch):
        report = self.run_both(tight_frame, monkeypatch, record_every=3)
        assert report["failed_at"] is None and len(report["increments"]) == 2

    @pytest.mark.parametrize("n, t_fail", [(4, 0.006), (8, 0.01), (16, 0.0)],
                             ids=["first", "middle", "last"])
    def test_member_failure(self, tight_frame, monkeypatch, n, t_fail):
        report = self.run_both(tight_frame, monkeypatch, failing_at(n, t_fail - 1e-12))
        assert report["failed_at"] == n
        assert report["failure"].startswith(f"StepFailureError: member {n} fails")
        assert len(report["audits"]) == self.N_LIST.index(n)

    def test_later_failure_of_an_earlier_member_wins(self, tight_frame, monkeypatch):
        # member 16 fails first in time, member 8 later: marching them one
        # after another reaches member 8's failure first
        monkeypatch.setattr(galerkin, "coupled_step", failing_at(8, 0.01 - 1e-12))
        report = self.run_both(tight_frame, monkeypatch, failing_at(16, 0.0))
        assert report["failed_at"] == 8 and len(report["audits"]) == 1

    def test_picard_stall(self, tight_frame, monkeypatch):
        # from t = 0.02 on six sweeps are allowed, fewer than the smallest
        # index needs there
        report = self.run_both(tight_frame, monkeypatch, lower_sweep_cap(0.02, 6), t_final=0.04)
        assert report["failed_at"] == 4
        assert "did not settle below 1.0e-10 in 6 sweeps at t=0.02" in report["failure"]

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_record_breach_wins_over_the_step_failure(self, tight_frame, monkeypatch, n):
        report = self.run_both(tight_frame, monkeypatch, breaching_at(tight_frame, n, 4))
        assert report["failed_at"] == n
        assert report["failure"].startswith("PositivityError: density")


def test_momentum_calls_follow_the_slowest_member(tight_frame, monkeypatch):
    # the members sweep as one stack: a step assembles the forces once per
    # sweep of its slowest member, not once per sweep of every member
    params = ModelParams(a=1.0, kappa=0.5, nu=0.5, lam=100.0)
    q0 = tilted_density(tight_frame, 0.8)
    u0 = VectorField.zero(tight_frame)
    n_list, dt, n_steps = [4, 8, 16, 32], 2e-3, 25
    calls = []
    real = galerkin.momentum_rhs
    monkeypatch.setattr(galerkin, "momentum_rhs",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    sweeps = []  # per member, the sweeps of each step alone
    for n in n_list:
        q0n, u0n = mollify_initial_data(q0, u0, n)
        p, state, counts = drag_schedule(n, q0n, params), SimState(q0n, u0n), []
        for _ in range(n_steps):
            before = len(calls)
            state = galerkin.coupled_step(state, p, dt)
            counts.append(len(calls) - before)
        sweeps.append(counts)
    slowest = sum(max(step) for step in zip(*sweeps))
    assert slowest < sum(map(sum, sweeps))
    del calls[:]
    report = vanishing_drag_sweep(tight_frame, params, q0, u0, n_list, dt=dt,
                                  t_final=n_steps * dt, record_every=5)
    assert report["failed_at"] is None
    assert len(calls) == slowest
