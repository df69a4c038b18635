"""Time-stepping driver shared by the command line and the sweep machinery."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .calculus import ModelParams
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
    records: list
    final_state: SimState
    envelope_ok: bool
    states: list[SimState] = field(default_factory=list)


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


@dataclass
class _Run:
    """One member's run so far: its records, kept states, envelope verdict
    and the (state, envelope) pairs that wait for the next record chunk."""

    params: ModelParams
    records: list
    states: list[SimState]
    envelope_ok: bool = True
    pending: list = field(default_factory=list)
    final_state: SimState | None = None

    def flush(self, recorder, keep_states: bool) -> None:
        """Record the pending states as one chunk."""
        pending, self.pending = self.pending, []
        if not pending:
            return
        for rec, (kept, env) in zip(recorder([s for s, _ in pending], self.params), pending):
            self.records.append(rec)
            if env is not None:
                self.envelope_ok = self.envelope_ok and envelope_check(rec.min_q, rec.max_q, env)
            if keep_states:
                self.states.append(kept)


def march(frame: GaussianFrame, params, q0, u0, dt: float, t_final: float,
          record_every: int = 1, keep_states: bool = False, schedule=None,
          recorder=None):
    """March several members of the coupled system to t_final together.

    Member m starts from (q0[m], u0[m]) and steps with params[m].  All
    members step as one stack (:func:`coupled_step`), so a step costs
    about the sweeps of its slowest member, and every member's states equal,
    bit for bit, those of its march alone.  Step k takes the coefficients
    ``schedule(k)``, shared by every member; without a schedule the members
    march the confined system, and each tracks its own positivity envelope,
    which bounds that system's density equation only.  A member's
    record-cadence states are kept with their envelopes and handed with its
    own params to ``recorder`` (:func:`~hermflow.diagnostics.record` when
    None), a chunk of at most max(1, RECORD_NODES // n_nodes) at a time;
    it returns one record per state.

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
    runs: list[_Run] = []
    failure = None
    for p, start in zip(params, starts):
        try:
            runs.append(_Run(p, recorder([start], p), [start] if keep_states else []))
        except SOLVER_FAILURES as exc:
            failure = exc
            break
    # the initial range [min_q, max_q] lies inside the envelope it starts
    envs = ([PositivityEnvelope.start(run.records[0].min_q, run.records[0].max_q, s.u)
             for run, s in zip(runs, starts)] if schedule is None else [None] * len(runs))
    state = stack_states(starts[:len(runs)]) if runs else None

    def end(member: int, exc: Exception):
        """End ``member`` and every later one; its pending states are recorded first."""
        nonlocal failure, state, envs
        run = runs[member]
        del runs[member:]
        envs = envs[:member]
        state = stack_states(member_states(state)[:member]) if runs else None
        failure = exc
        try:
            run.flush(recorder, keep_states)
        except SOLVER_FAILURES as err:
            failure = err

    def flushed(member: int) -> bool:
        """Record ``member``'s pending states; a solver failure there ends it."""
        try:
            runs[member].flush(recorder, keep_states)
        except SOLVER_FAILURES as exc:
            end(member, exc)
            return False
        return True

    step = 0
    while runs and step < n_steps:
        try:
            new = coupled_step(state, [run.params for run in runs], dt,
                               None if schedule is None else schedule(step))
        except SOLVER_FAILURES as exc:
            end(exc.member, exc)
            continue  # the same step again, for the members before the failing one
        state, step = new, step + 1
        if schedule is None:
            envs = envelope_update(envs, state.u, dt)
        if step % record_every and step != n_steps:
            continue
        for member, (run, kept, env) in enumerate(zip(runs, member_states(state), envs)):
            run.pending.append((kept, env))
            run.final_state = kept
            if len(run.pending) == chunk and not flushed(member):
                break
    for member in range(len(runs)):
        if not flushed(member):
            break
    results = [SimulationResult(records=run.records, final_state=run.final_state,
                                envelope_ok=run.envelope_ok, states=run.states)
               for run in runs]
    return results, failure


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
