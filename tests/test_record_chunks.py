"""Diagnostics recorded a chunk of states at a time.

``diagnostics.record`` evaluates a whole sequence of states from one stacked
``StateBundle``; ``driver.march`` hands it, or the ``rescaled`` mode's
dilated balance, the states in chunks of ``max(1, RECORD_NODES // n_nodes)``.  Every record must
equal the record of its state alone, field for field and bit for bit, and
an error of an earlier state must still win over the failure of a later
step.
"""

import math

import numpy as np
import pytest

import hermflow.cli
import hermflow.driver
from hermflow import ModelParams, PositivityError, ScalarField, StateBundle, VectorField
from hermflow.calculus import POSITIVITY_FLOOR, require_positive, scalar_pow
from hermflow.cli import main
from hermflow.config import load_config
from hermflow.continuation import mollify_initial_data, vanishing_drag_sweep
from hermflow.diagnostics import (
    _korn_ratio,
    _poincare_ratio,
    bd_entropy_regularized,
    check_hessian_lemma,
    lsi_margins,
)
from hermflow.driver import march, simulate
from hermflow.errors import StepFailureError
from hermflow.galerkin import SimState, coupled_step, project_initial_velocity
from hermflow.rescaled import TauState, rescaled_balance, rescaled_bd_remainder, rescaled_energy
from hermflow.sampling import random_density, random_velocity, tilted_density
from hermflow.spectral import build_frame, transform

from conftest import record_states

DRAG_FREE = ModelParams(a=1.0, kappa=1.0, nu=0.5, lam=2.0)
REGULARIZED = ModelParams(a=1.0, kappa=1.0, nu=0.5, lam=2.0, r0=0.1, r1=0.2, r4=0.05,
                          delta1=0.3)


def random_states(frame, rng, count):
    """States built from coefficients and states built from nodal values
    (mollified rough data), interleaved, at random times."""
    states = []
    for k in range(count):
        q = random_density(frame, rng, amplitude=0.3)
        u = random_velocity(frame, rng, amplitude=0.5)
        if k % 2:
            rough = random_density(frame, rng, amplitude=2.0)
            q, u = mollify_initial_data(rough, u, n=4)
        states.append(SimState(q, u, float(rng.uniform(0.0, 2.0))))
    return states


def one_by_one(states, params):
    return [record_states([s], params)[0] for s in states]


def chunked(states, params, size):
    return [rec for i in range(0, len(states), size)
            for rec in record_states(states[i:i + size], params)]


class TestStackedKernels:
    @pytest.mark.parametrize("frame_name", ["frame_1d_fine", "frame_2d"])
    def test_rows_equal_single_products(self, frame_name, request, rng):
        frame = request.getfixturevalue(frame_name)
        coeffs = rng.standard_normal((3, frame.dim, frame.n_basis))
        values = rng.standard_normal((4, frame.n_nodes))
        for order in range(4):
            stacked = frame.derivatives(coeffs, order)
            for k in range(3):
                assert np.array_equal(stacked[k], VectorField(frame, coeffs=coeffs[k])
                                      .derivatives(order))
        projected = frame.project_nodal(values)
        for k in range(4):
            assert np.array_equal(projected[k], frame.project_nodal(values[k]))

    def test_scalar_pow_is_python_pow(self, rng):
        x = rng.uniform(0.1, 10.0, size=(5, 7))
        expected = np.array([[v**0.75 for v in row] for row in x.tolist()])
        assert np.array_equal(scalar_pow(x, 0.75), expected)
        assert scalar_pow(np.float64(2.5), 3) == 2.5**3

    @pytest.mark.parametrize("frame_name", ["frame_1d", "frame_2d"])
    def test_bundle_entries_equal_single_bundles(self, frame_name, request, rng):
        frame = request.getfixturevalue(frame_name)
        states = random_states(frame, rng, 4)
        stack = StateBundle(ScalarField.stack([s.q for s in states]),
                            VectorField.stack([s.u for s in states]))
        for k, s in enumerate(states):
            alone = StateBundle(s.q, s.u)
            for name in ("qn", "gq", "hq", "un", "du", "s2", "glog", "stress", "dsym"):
                assert np.array_equal(getattr(stack, name)[k], getattr(alone, name)), name
            for name in ("mass", "i2", "i4", "ke", "cubic", "fisher", "entropy", "cross",
                         "glog2", "dsym2", "askew2"):
                assert getattr(stack, name)[k] == getattr(alone, name), name


class TestRequirePositiveStack:
    def test_first_breaching_state_raises_its_own_error(self, frame_1d):
        x = frame_1d.nodes[:, 0]
        good = transform(frame_1d, 1.0 + 0.0 * x)
        worse = transform(frame_1d, 0.1 + 0.3 * x)
        bad = transform(frame_1d, 0.1 + 0.2 * x)
        with pytest.raises(PositivityError) as alone:
            require_positive(bad)
        with pytest.raises(PositivityError) as stacked:
            require_positive(ScalarField.stack([good, bad, worse]))
        assert str(stacked.value) == str(alone.value)
        assert np.array_equal(stacked.value.node, alone.value.node)
        assert stacked.value.value == alone.value.value
        assert stacked.value.member == 1 and alone.value.member == 0

    def test_nan_in_a_later_state(self, frame_1d):
        values = np.ones(frame_1d.n_nodes)
        values[frame_1d.n_nodes // 2] = np.nan
        unit = ScalarField(frame_1d, nodal=np.ones(frame_1d.n_nodes))
        with pytest.raises(PositivityError) as err:
            require_positive(ScalarField.stack([unit, ScalarField(frame_1d, nodal=values)]))
        assert np.isnan(err.value.value)

    def test_returns_stacked_values(self, frame_2d, rng):
        qs = [random_density(frame_2d, rng) for _ in range(3)]
        stack = ScalarField.stack(qs)
        assert np.array_equal(require_positive(stack), np.stack([q.nodal for q in qs]))


class TestChunkedRecord:
    @pytest.mark.parametrize("params", [DRAG_FREE, REGULARIZED], ids=["drag_free", "regularized"])
    @pytest.mark.parametrize("frame_name", ["frame_1d", "frame_2d"])
    def test_chunks_equal_single_records(self, frame_name, params, request, rng):
        frame = request.getfixturevalue(frame_name)
        for _ in range(2):
            states = random_states(frame, rng, 5)
            expected = one_by_one(states, params)
            for size in (1, 2, len(states)):
                assert chunked(states, params, size) == expected

    @pytest.mark.parametrize("params", [DRAG_FREE, REGULARIZED], ids=["drag_free", "regularized"])
    @pytest.mark.parametrize("frame_name", ["frame_1d", "frame_2d"])
    def test_records_equal_unstacked_functions(self, frame_name, params, request, rng):
        # the stand-alone functions read bundles without a state axis, where
        # every integral is a plain number: a stacked record must match them
        frame = request.getfixturevalue(frame_name)
        states = random_states(frame, rng, 8)
        for rec, s in zip(record_states(states, params), states):
            assert rec.lsi_margin == lsi_margins(s.q)[0]
            a, b, d, i4, mid, fin = check_hessian_lemma(s.q)
            assert (rec.hess_margin_mid, rec.hess_margin_final) == (mid, fin)
            # the fractional powers are Python's, as in a float-only evaluation
            assert mid == d + math.sqrt(3.0 * b * d) + float(i4)**0.25 * float(b)**0.75 \
                / frame.sigma - (a + b)
            du = s.u.derivatives(1)
            assert rec.poincare_korn_u == _korn_ratio(frame, s.u.nodal,
                                                      0.5 * (du + du.transpose(1, 0, 2)))
            assert (rec.d_bd_reg, rec.r_bd_reg) == bd_entropy_regularized(s.q, s.u, params)
            sqrt_q = ScalarField(frame, nodal=np.sqrt(np.maximum(s.q.nodal, POSITIVITY_FLOOR)))
            assert rec.poincare_q == _poincare_ratio(frame, sqrt_q.nodal, sqrt_q.derivatives(1))

    def test_stacked_dilated_balance_equals_single(self, frame_1d, rng):
        states = random_states(frame_1d, rng, 6)
        taus = [TauState(float(rng.uniform(1.0, 3.0)), float(rng.uniform(0.0, 2.0)), 0.0)
                for _ in states]
        b = StateBundle(ScalarField.stack([s.q for s in states]),
                        VectorField.stack([s.u for s in states]))
        stacked = np.column_stack(rescaled_balance(b, np.array([t.tau for t in taus]),
                                                   np.array([t.tau_dot for t in taus]), DRAG_FREE))
        for row, s, tau in zip(stacked.tolist(), states, taus):
            single = [*rescaled_energy(s.q, s.u, tau, DRAG_FREE),
                      rescaled_bd_remainder(s.q, s.u, tau, DRAG_FREE)]
            assert row == single

    def test_simulate_records_equal_single_records(self, frame_1d, monkeypatch):
        # chunks of 3 states, so the march crosses several chunk boundaries
        # and ends on a partial chunk
        monkeypatch.setattr(hermflow.driver, "RECORD_NODES", 3 * frame_1d.n_nodes)
        q0 = tilted_density(frame_1d, 0.3)
        u0 = project_initial_velocity(q0, 0.2 * frame_1d.nodes.T)
        (result,), _ = march(frame_1d, [REGULARIZED], [q0], [u0], dt=2e-3, t_final=0.034,
                             record_every=2)
        state = SimState(q0, u0)
        states = [state]
        for step in range(1, 18):
            state = coupled_step(state, REGULARIZED, 2e-3)
            if step % 2 == 0 or step == 17:
                states.append(state)
        assert len(states) == len(result.records) == 10
        assert result.records == one_by_one(states, REGULARIZED)
        assert np.array_equal(result.final_state.q.coeffs, state.q.coeffs)
        assert np.array_equal(result.final_state.u.coeffs, state.u.coeffs)


def tilted_run(tmp_path):
    """Path of a config for ten steps of a 1D degree-12 tilt."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[model]\na = 1.0\nkappa = 1.0\nnu = 0.5\nlambda = 2.0\n"
                   "[frame]\ndim = 1\ndegree = 12\n[initial]\nfamily = tilted\n"
                   "alpha = 0.2\n[time]\ndt = 1e-3\nt_final = 0.01\n")
    return str(cfg)


def balance_chunk_sizes(monkeypatch):
    """The number of states in each chunk the rescaled mode's balance reads."""
    sizes = []
    real = hermflow.cli.rescaled_balance

    def counted(b, tau, tau_dot, params):
        sizes.append(len(tau))
        return real(b, tau, tau_dot, params)

    monkeypatch.setattr(hermflow.cli, "rescaled_balance", counted)
    return sizes


class TestRescaledChunks:
    """The rescaled mode marches through ``driver.march``: the initial state
    alone, then its steps' states in chunks of max(1, RECORD_NODES // n_nodes)."""

    def rescaled(self, tmp_path):
        return main(["rescaled", tilted_run(tmp_path), "--output-dir", str(tmp_path / "out")])

    def test_chunk_sizes_follow_the_node_count(self, tmp_path, monkeypatch):
        monkeypatch.setattr(hermflow.driver, "RECORD_NODES",
                            3 * hermflow.GaussianFrame(1.0, 1, 12).n_nodes)
        sizes = balance_chunk_sizes(monkeypatch)
        assert self.rescaled(tmp_path) == 0
        assert sizes == [1, 3, 3, 3, 1]

    def test_large_frame_records_one_state_at_a_time(self, tmp_path, monkeypatch):
        # fewer than n_nodes values per chunk (2D degree 40 has 7056 nodes)
        monkeypatch.setattr(hermflow.driver, "RECORD_NODES",
                            hermflow.GaussianFrame(1.0, 1, 12).n_nodes - 1)
        sizes = balance_chunk_sizes(monkeypatch)
        assert self.rescaled(tmp_path) == 0
        assert sizes == [1] * 11

    def test_pending_states_are_recorded_before_the_step_failure(self, tmp_path, monkeypatch,
                                                                 capsys):
        def failing(state, params, dt, coeffs=None):
            if state.t > 2.5e-3:
                raise StepFailureError("step 4 fails")
            return coupled_step(state, params, dt, coeffs)

        monkeypatch.setattr(hermflow.driver, "coupled_step", failing)
        sizes = balance_chunk_sizes(monkeypatch)
        assert self.rescaled(tmp_path) == 2
        assert sizes == [1, 3]
        assert capsys.readouterr().err == "solver failure: step 4 fails\n"

    def test_an_earlier_breach_wins(self, tmp_path, monkeypatch):
        monkeypatch.setattr(hermflow.driver, "coupled_step", breaching_march(3))
        with pytest.raises(PositivityError) as err:
            hermflow.cli.rescaled_run(load_config(tilted_run(tmp_path)))
        assert str(err.value) == str(breach_error(hermflow.GaussianFrame(1.0, 1, 12)))
        assert isinstance(err.value.__context__, StepFailureError)


def breaching_march(k):
    """A stand-in for ``coupled_step``: real steps, then a state that breaches
    positivity at step k, then a failing step."""
    calls = []

    def step(state, params, dt, coeffs=None):
        calls.append(state.t)
        if len(calls) < k:
            return coupled_step(state, params, dt, coeffs)
        if len(calls) == k:
            frame = state.frame
            bad = transform(frame, 0.1 + 0.2 * frame.nodes[:, 0])
            return SimState(bad, state.u, state.t + dt)
        raise StepFailureError(f"step {len(calls)} fails")

    return step


def breach_error(frame):
    """The error the breaching state raises when it is recorded alone."""
    bad = transform(frame, 0.1 + 0.2 * frame.nodes[:, 0])
    with pytest.raises(PositivityError) as err:
        record_states([SimState(bad, VectorField.zero(frame))], DRAG_FREE)
    return err.value


class TestFailureOrder:
    @pytest.mark.parametrize("frame_name", ["frame_1d", "frame_2d"])
    def test_earlier_breach_wins_over_later_step_failure(self, frame_name, request,
                                                         monkeypatch):
        frame = request.getfixturevalue(frame_name)
        monkeypatch.setattr(hermflow.driver, "coupled_step", breaching_march(4))
        expected = breach_error(frame)
        with pytest.raises(PositivityError) as err:
            simulate(frame, DRAG_FREE, tilted_density(frame, 0.2), VectorField.zero(frame),
                     dt=1e-3, t_final=0.01)
        assert str(err.value) == str(expected)
        assert np.array_equal(err.value.node, expected.node)
        assert err.value.value == expected.value
        assert isinstance(err.value.__context__, StepFailureError)

    def test_step_failure_without_breach_propagates(self, frame_1d, monkeypatch):
        def failing(state, params, dt, coeffs=None):
            if state.t > 2.5e-3:
                raise StepFailureError("late failure")
            return coupled_step(state, params, dt, coeffs)

        monkeypatch.setattr(hermflow.driver, "coupled_step", failing)
        with pytest.raises(StepFailureError, match="late failure"):
            simulate(frame_1d, DRAG_FREE, tilted_density(frame_1d, 0.2),
                     VectorField.zero(frame_1d), dt=1e-3, t_final=0.01)

    def test_simulate_command_exits_2_with_the_breach(self, tmp_path, monkeypatch, capsys):
        cfg = tilted_run(tmp_path)
        frame = build_frame(1.0, 1.0, 2.0, 1, 12)
        monkeypatch.setattr(hermflow.driver, "coupled_step", breaching_march(3))
        assert main(["simulate", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"solver failure: {breach_error(frame)}\n"

    def test_rescaled_command_exits_2_with_the_breach(self, tmp_path, monkeypatch, capsys):
        cfg = tilted_run(tmp_path)
        monkeypatch.setattr(hermflow.driver, "coupled_step", breaching_march(3))
        assert main(["rescaled", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
        frame = hermflow.GaussianFrame(1.0, 1, 12)
        assert capsys.readouterr().err == f"solver failure: {breach_error(frame)}\n"

    def test_sweep_member_failure_string(self, monkeypatch):
        frame = build_frame(1.0, 0.5, 100.0, 1, 16)
        params = ModelParams(a=1.0, kappa=0.5, nu=0.5, lam=100.0)
        monkeypatch.setattr(hermflow.driver, "coupled_step", breaching_march(3))
        report = vanishing_drag_sweep(frame, params, tilted_density(frame, 0.8),
                                      VectorField.zero(frame), [4], dt=2e-3, t_final=0.02)
        assert report["failed_at"] == 4
        assert report["failure"] == f"PositivityError: {breach_error(frame)}"

