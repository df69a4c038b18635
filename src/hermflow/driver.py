"""Time-stepping driver shared by the command line and the sweep machinery."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .calculus import ModelParams
from .diagnostics import DiagnosticsRecord, record
from .errors import InvalidParameterError
from .fokker_planck import PositivityEnvelope, divm_sup, envelope_check, envelope_update
from .galerkin import SimState, coupled_step, make_initial_state
from .spectral import GaussianFrame, ScalarField, VectorField

__all__ = ["SimulationResult", "simulate", "step_count"]


@dataclass
class SimulationResult:
    records: list[DiagnosticsRecord]
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


def simulate(frame: GaussianFrame, params: ModelParams, q0: ScalarField,
             u0: VectorField, dt: float, t_final: float, record_every: int = 1,
             keep_states: bool = False) -> SimulationResult:
    """March the coupled system to t_final, recording diagnostics on a cadence.

    The positivity envelope is tracked alongside the states.  Solver
    failures (positivity breach, fixed-point stall) propagate to the caller;
    an envelope violation only clears ``envelope_ok``.
    """
    n_steps = step_count(dt, t_final)
    state = make_initial_state(q0, u0)
    env = replace(PositivityEnvelope.from_initial_density(q0), last_sup=divm_sup(u0))
    records = [record(state, params)]
    states = [state] if keep_states else []
    envelope_ok = envelope_check(state.q, env)
    for step in range(n_steps):
        state = coupled_step(state, params, dt)
        env = envelope_update(env, state.u, dt)
        if (step + 1) % record_every == 0 or step + 1 == n_steps:
            records.append(record(state, params))
            envelope_ok = envelope_ok and envelope_check(state.q, env)
            if keep_states:
                # kept for their fields; the mass operator only serves the next step
                states.append(replace(state, mass=None))
    return SimulationResult(records=records, final_state=state,
                            envelope_ok=envelope_ok, states=states)
