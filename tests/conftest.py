import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from hermflow import GaussianFrame, ScalarField, StateBundle, VectorField, build_frame, div_m
from hermflow.diagnostics import record
from hermflow.fokker_planck import FP_SWEEPS


BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name):
    """Import ``bench/<name>.py``, with ``bench/`` on the path for its own imports."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up there
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path.remove(str(BENCH))


@pytest.fixture(scope="session")
def frame_1d():
    """Unit-scale 1D frame (a=1, kappa=1, lam=2 gives sigma=1)."""
    return build_frame(a=1.0, kappa=1.0, lam=2.0, dim=1, degree=16)


@pytest.fixture(scope="session")
def frame_1d_fine():
    return build_frame(a=1.0, kappa=1.0, lam=2.0, dim=1, degree=24)


@pytest.fixture(scope="session")
def frame_2d():
    return build_frame(a=1.0, kappa=1.0, lam=2.0, dim=2, degree=10)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def unit_field(frame: GaussianFrame) -> ScalarField:
    coeffs = np.zeros(frame.n_basis)
    coeffs[0] = 1.0
    return ScalarField(frame, coeffs=coeffs)


def mode(frame: GaussianFrame, index: int, amplitude: float = 1.0) -> ScalarField:
    coeffs = np.zeros(frame.n_basis)
    coeffs[index] = amplitude
    return ScalarField(frame, coeffs=coeffs)


def ladder_oracle(frame):
    """Per-axis d/dx and x-multiplication matrices, set entry by entry from
    the ladder relations of the orthonormal Hermite basis."""
    index_of = {tuple(alpha): i for i, alpha in enumerate(frame.multi_indices)}
    diff, coord = [], []
    for axis in range(frame.dim):
        d = np.zeros((frame.n_basis, frame.n_basis))
        x = np.zeros((frame.n_basis, frame.n_basis))
        for col, alpha in enumerate(frame.multi_indices):
            k = alpha[axis]
            if k >= 1:
                beta = alpha.copy()
                beta[axis] = k - 1
                d[index_of[tuple(beta)], col] = math.sqrt(k) / frame.sigma
                x[index_of[tuple(beta)], col] = frame.sigma * math.sqrt(k)
            beta = alpha.copy()
            beta[axis] = k + 1
            row = index_of.get(tuple(beta))
            if row is not None:
                x[row, col] = frame.sigma * math.sqrt(k + 1)
        diff.append(d)
        coord.append(x)
    return diff, coord


def record_states(states, params):
    """``diagnostics.record`` of a list of states: stacked into one bundle,
    as ``driver.march`` stacks a record chunk, at the states' own times."""
    bundle = StateBundle(ScalarField.stack([s.q for s in states]),
                         VectorField.stack([s.u for s in states]))
    return record(bundle, [s.t for s in states], params)


def zero_velocity(frame: GaussianFrame) -> VectorField:
    return VectorField.zero(frame)


def flux_field(q: ScalarField, u: VectorField) -> VectorField:
    """q u with each component the dealiased product of q and that
    component's nodal values, tested against the basis by the frame's
    sum-factorized adjoint (the dense multiply(q, u_i) up to round-off)."""
    frame = q.frame
    return VectorField(frame, coeffs=np.stack(
        [frame._synthesize_adjoint(frame.weights * (q.nodal * row)) for row in u.nodal]))


def object_path_fp_step(q: ScalarField, u: VectorField, delta1: float, dt: float) -> ScalarField:
    """fp_step written out through field objects: midpoint field, dealiased
    products, then div_m of the flux field (no contraction check)."""
    frame = q.frame
    c0 = q.coeffs
    free, step = c0, dt
    if delta1 != 0.0:
        free = np.exp(-delta1 * frame.total_degree * dt / frame.sigma**2) * c0
        step = dt * np.exp(-delta1 * frame.total_degree * (0.5 * dt) / frame.sigma**2)
    c_new = free
    for _ in range(FP_SWEEPS):
        q_mid = ScalarField(frame, coeffs=0.5 * (c0 + c_new))
        c_new = free - step * div_m(flux_field(q_mid, u)).coeffs
    return ScalarField(frame, coeffs=c_new)
