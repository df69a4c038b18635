"""Structure-preserving Hermite-spectral solver for a confined quantum
Navier-Stokes flow, written against a Gaussian reference measure.

The building blocks, bottom up: ``spectral`` (frames, transforms,
dealiased products, and one field type built from coefficients or nodal
values, without arithmetic: sums and scalings are formed on their arrays;
a ``VectorField`` is a ``ScalarField`` with ``(dim, ·)`` rows, and
``derivatives`` gives every nodal derivative of either),
``calculus`` (twisted operators, capillarity identities and
``StateBundle``, the nodal quantities of one state, or of a stack of
states, that forces and diagnostics share), ``fokker_planck`` (semigroup
density updates and positivity envelopes), ``galerkin`` (mass operator,
weak forces and ``coupled_step``, the joint fixed-point step of both
systems), ``diagnostics`` (energies, entropies, moments, inequality
audits), ``continuation`` (mollified data and vanishing-drag sweeps),
``rescaled`` (self-similar variables for the unconfined flow: the
``coupled_step`` coefficient table at a dilation and the dilated balances),
``driver`` (the confined march loop, which also tracks the positivity
envelope and records its states a chunk at a time) and ``cli`` (run
orchestration, including the dilated march).

Several states are stacked one way only: as one field whose leading axes
are the members (``ScalarField.stack``), which every layer from
``StateBundle`` to ``coupled_step`` takes in place of one field.  A lone
state is simply member 0: a solver failure names the failing member in
``member``, 0 for one state.

Frames and fields are immutable values (a field's ``coeffs`` and ``nodal``
are read-only arrays: writing into them raises); every public operation is
a pure function of them, so states can be shared or snapshotted freely.
"""

from .calculus import ModelParams, StateBundle, bohm_residual, div_m
from .continuation import drag_schedule, mollify_initial_data, vanishing_drag_sweep
from .diagnostics import (
    DiagnosticsRecord,
    check_hessian_lemma,
    check_log_sobolev,
    energy_inequality_audit,
    i2_ode_residual,
)
from .driver import SimulationResult, simulate
from .errors import (
    ConfigError,
    DimensionError,
    InternalConsistencyError,
    InvalidParameterError,
    PositivityError,
    StepFailureError,
)
from .fokker_planck import PositivityEnvelope, envelope_check, envelope_update, fp_step, ou_semigroup
from .galerkin import (
    MassOperator,
    SimState,
    assemble_mass,
    coupled_step,
    make_initial_state,
    momentum_rhs,
    project_initial_velocity,
)
from .rescaled import TauState, rescaled_energy, rescaled_step, tau_solve
from .spectral import (
    GaussianFrame,
    ScalarField,
    VectorField,
    build_frame,
    multiply,
    sigma_from_coefficients,
    transform,
)

__version__ = "0.1.0"
