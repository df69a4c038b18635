"""Time-stepping driver shared by the command line and the sweep machinery."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .calculus import ModelParams, StateBundle
from .diagnostics import record
from .errors import SOLVER_FAILURES, InvalidParameterError
from .fokker_planck import PositivityEnvelope, envelope_check, envelope_update
from .galerkin import SimState, coupled_step, make_initial_state, member_states, stack_states
from .spectral import GaussianFrame, ScalarField, VectorField

__all__ = ["RECORD_NODES", "SimulationResult", "march", "simulate", "step_count"]

#: states are recorded in stacks of max(1, RECORD_NODES // n_nodes), so one
#: stacked nodal array holds about RECORD_NODES values per tensor entry
RECORD_NODES = 4096


@dataclass
class SimulationResult:
    """One member's run: its params, its records, its last recorded state,
    and its positivity envelope (None without one) with the verdict of its
    recorded states against it."""

    params: ModelParams
    records: list
    final_state: SimState
    envelope: PositivityEnvelope | None = None
    envelope_ok: bool = True


def step_count(dt: float, t_final: float) -> int:
    """Number of steps of size dt that end exactly at t_final."""
    if dt <= 0.0 or t_final <= 0.0:
        raise InvalidParameterError("dt and t_final must be positive")
    if not math.isfinite(t_final / dt):
        raise InvalidParameterError(f"t_final / dt = {t_final!r} / {dt!r} overflows")
    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-9 * t_final:
        raise InvalidParameterError(f"t_final={t_final} is not a multiple of dt={dt}")
    return n_steps


def _record_chunk(run: SimulationResult, kept, recorder) -> None:
    """Record a chunk of ``run``'s (state, envelope) pairs, if any, from one
    stacked bundle; a None envelope checks nothing."""
    if not kept:
        return
    states = [s for s, _ in kept]
    bundle = StateBundle(ScalarField.stack([s.q for s in states]),
                         VectorField.stack([s.u for s in states]))
    for rec, (_, env) in zip(recorder(bundle, [s.t for s in states], run.params), kept):
        run.records.append(rec)
        if env is not None:
            run.envelope_ok = run.envelope_ok and envelope_check(rec.min_q, rec.max_q, env)
    run.final_state = states[-1]


def march(frame: GaussianFrame, params, q0, u0, dt: float, t_final: float,
          record_every: int = 1, schedule=None, recorder=None):
    """March several members of the coupled system to t_final together.

    Member m starts from (q0[m], u0[m]) and steps with params[m].  All
    members step as one stack (:func:`coupled_step`), so a step costs
    about the sweeps of its slowest member, and every member's states equal,
    bit for bit, those of its march alone.  Step k takes the coefficient
    table ``schedule(k)``, shared by every member; without a schedule the
    members march the confined system, and each tracks its own positivity
    envelope, which bounds that system's density equation only.  A member's
    record-cadence states are stacked into one :class:`StateBundle` per
    chunk of at most max(1, RECORD_NODES // n_nodes) states, which
    ``recorder(bundle, times, params)`` (:func:`~hermflow.diagnostics.record`
    when None) reads with the member's own params; it returns one record
    per state.

    The outcome is what marching the members one after another gives.  A
    member's solver failure ends that member and every later one; the
    states it had produced are recorded first, and an error that recording
    raises (an earlier state's positivity breach, say) becomes its failure.
    The step is then taken again for the earlier members, from their states
    at its start.  Returns the :class:`SimulationResult` of every member
    before the first failing one, and that member's failure (None when every
    member reaches t_final).  Any other error propagates.
    """
    n_steps = step_count(dt, t_final)
    chunk = max(1, RECORD_NODES // frame.n_nodes)
    recorder = recorder or record
    starts = [make_initial_state(q, u) for q, u in zip(q0, u0)]
    runs = [SimulationResult(p, [], start) for p, start in zip(params, starts)]
    state = stack_states(starts) if starts else None
    failure = None
    # each member's (state, envelope) per record-cadence step since the last
    # chunk; the initial states are recorded alone
    pending = [[(start, None) for start in starts]]

    def end(member: int, exc: Exception):
        """End ``member`` and every later one with failure ``exc``."""
        nonlocal failure, state
        del runs[member:]
        state = stack_states(member_states(state)[:member]) if runs else None
        failure = exc

    def flushed(member: int) -> bool:
        """Record ``member``'s pending states; a solver failure there ends it."""
        try:
            _record_chunk(runs[member], [row[member] for row in pending], recorder)
        except SOLVER_FAILURES as exc:
            end(member, exc)
            return False
        return True

    def flush() -> None:
        """Record the pending states member by member, up to the first failure."""
        for member in range(len(runs)):
            if not flushed(member):
                break
        pending.clear()

    flush()
    if schedule is None:  # the initial range [min_q, max_q] lies inside the envelope it starts
        for run in runs:
            run.envelope = PositivityEnvelope.start(run.records[0].min_q, run.records[0].max_q,
                                                    run.final_state.u)
    step = 0
    while runs and step < n_steps:
        try:
            new = coupled_step(state, [run.params for run in runs], dt,
                               None if schedule is None else schedule(step))
        except SOLVER_FAILURES as exc:
            if flushed(exc.member):  # its pending states are recorded first
                end(exc.member, exc)
            continue  # the same step again, for the members before the failing one
        state, step = new, step + 1
        if schedule is None:
            for run, env in zip(runs, envelope_update([run.envelope for run in runs],
                                                      state.u, dt)):
                run.envelope = env
        if step % record_every and step != n_steps:
            continue
        pending.append([(kept, run.envelope) for run, kept in zip(runs, member_states(state))])
        if len(pending) == chunk:
            flush()
    flush()
    return runs, failure


def simulate(frame: GaussianFrame, params: ModelParams, q0: ScalarField,
             u0: VectorField, dt: float, t_final: float,
             record_every: int = 1) -> SimulationResult:
    """March the coupled system to t_final, recording diagnostics on a cadence.

    The one-member case of :func:`march`.  The positivity envelope is
    tracked alongside the states.  Each record-cadence state is kept with
    its envelope and recorded in chunks; the records equal those of each
    state alone.  Solver failures (positivity breach, fixed-point stall)
    propagate to the caller, the earliest first; an envelope violation
    only clears ``envelope_ok``.
    """
    results, failure = march(frame, [params], [q0], [u0], dt, t_final, record_every)
    if failure is not None:
        raise failure
    return results[0]
