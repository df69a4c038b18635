"""The joint fixed point's Python overhead, and the reductions it was
reformulated with, checked bit for bit against the formulas they replace.

The call budget counts the calls into functions defined under
``src/hermflow`` that one time step makes (``sys.setprofile`` sees every
Python frame, generator resumptions included).  Its bounds are the counts
of this kernel, 173 calls for a lone drag-free 1D degree-24 step and 177
for a two-member stack, with about 10 % headroom.  A new wrapper layer
in the sweep shows up here first.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from hermflow import (
    MassOperator,
    ModelParams,
    PositivityError,
    ScalarField,
    SimState,
    StateBundle,
    StepFailureError,
    VectorField,
    build_frame,
    coupled_step,
    fokker_planck,
)
from hermflow.fokker_planck import divm_sup
from hermflow.galerkin import stack_states
from hermflow.sampling import random_density, tilted_density

PACKAGE = str(Path(__file__).resolve().parents[1] / "src" / "hermflow")

LONE_STEP_BUDGET = 190
STACKED_STEP_BUDGET = 195


def package_calls(fn) -> int:
    """Calls into frames of the package's own files while ``fn()`` runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


@pytest.fixture(scope="module")
def osc_frame():
    """The osc1d workload's frame: 1D, degree 24, sigma of a = kappa = 1, lambda = 4."""
    return build_frame(1.0, 1.0, 4.0, 1, 24)


def stepped(frame, alpha, params):
    """The tilted state one step on, so it carries its momentum."""
    return coupled_step(SimState(tilted_density(frame, alpha), VectorField.zero(frame)),
                        params, 1e-3)


class TestCallBudget:
    params = ModelParams(a=1.0, kappa=1.0, nu=0.5, lam=4.0)

    def test_lone_step(self, osc_frame):
        state = stepped(osc_frame, 0.3123, self.params)
        calls = package_calls(lambda: coupled_step(state, [self.params], 1e-3))
        assert calls <= LONE_STEP_BUDGET

    def test_two_member_stack(self, osc_frame):
        state = stack_states([stepped(osc_frame, alpha, self.params) for alpha in (0.3123, -0.2)])
        calls = package_calls(lambda: coupled_step(state, [self.params] * 2, 1e-3))
        assert calls <= STACKED_STEP_BUDGET


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def spiked(rng, shape):
    """Random values with signed zeros, NaN, +-1e300 and +-inf mixed in."""
    values = rng.standard_normal(shape)
    specials = np.array([0.0, -0.0, np.nan, 1e300, -1e300, np.inf, -np.inf, 1e-300, -1e-300])
    pick = rng.random(shape) < 0.3
    values[pick] = rng.choice(specials, size=int(pick.sum()))
    return values


@pytest.mark.parametrize("members", [(), (1,), (3,), (2, 2)])
@pytest.mark.parametrize("dim", [1, 2])
def test_outer_q_equals_the_einsum(members, dim):
    # StateBundle.outer_q of grad q and 1/q with spiked entries, against the
    # einsum it replaced; the bundle reads both from its instance
    rng = np.random.default_rng(1)
    frame = build_frame(1.0, 1.0, 2.0, dim, 4)
    n = frame.n_nodes
    for _ in range(20):
        b = StateBundle(random_density(frame, rng))
        b.gq = gq = spiked(rng, members + (dim, n))
        b.inv_q = inv_q = spiked(rng, members + (n,))
        with np.errstate(all="ignore"):
            old = np.einsum("...in,...jn->...ijn", gq, gq) * inv_q[..., None, None, :]
            new = b.outer_q
        assert np.array_equal(bits(old), bits(new))


@pytest.mark.parametrize("members", [(), (1,), (3,)])
def test_divm_sup_equals_the_gathered_max(members, osc_frame, monkeypatch):
    # divm_sup's one masked reduction against the max over the gathered
    # trusted nodes, on div_m values with spiked entries
    rng = np.random.default_rng(2)
    u = VectorField(osc_frame, coeffs=np.zeros(members + (1, osc_frame.n_basis)))
    trusted = osc_frame.trusted
    for _ in range(20):
        values = spiked(rng, members + (osc_frame.n_nodes,))
        monkeypatch.setattr(fokker_planck, "div_m",
                            lambda v, values=values: ScalarField(osc_frame, nodal=values))
        with np.errstate(all="ignore"):
            old = np.ravel(np.max(np.abs(values[..., trusted]), axis=-1)).tolist()
            new = divm_sup(u)
        assert np.array_equal(bits(old), bits(new))


@pytest.mark.parametrize("members", [None, 1, 3])
def test_one_finiteness_test_names_the_member_of_the_per_member_tests(members):
    # MassOperator.solve scans every member's matrix at once; a failing scan
    # must name the member the per-member scans named, and a passing one
    # must let every member reach its factorization
    rng = np.random.default_rng(3)
    lead = () if members is None else (members,)
    for _ in range(40):
        basis = rng.standard_normal(lead + (6, 6))
        matrix = basis @ basis.mT + 6.0 * np.eye(6)
        rhs = rng.standard_normal(lead + (1, 6))
        if rng.random() < 0.7:
            spikes = rng.random(matrix.shape) < 0.05
            matrix[spikes] = rng.choice([np.nan, np.inf, -np.inf, 1e300, -0.0],
                                        size=int(spikes.sum()))
        finite = np.isfinite(matrix).all(axis=(-2, -1))
        if finite.all():
            # +-1e300 and -0.0 entries are finite: no finiteness failure
            try:
                MassOperator(matrix).solve(rhs)
            except StepFailureError as exc:
                assert "non-finite" not in str(exc)
            except PositivityError:
                pass
        else:
            with pytest.raises(StepFailureError, match="mass operator has non-finite") as exc:
                MassOperator(matrix).solve(rhs)
            assert exc.value.member == int(np.argmin(finite))


@pytest.mark.parametrize("shape", [(25,), (1, 25), (4, 25), (2, 3, 25)])
def test_drift_scans_equal_the_raveled_scans(shape):
    # each member's zero-index coefficient before and after, as float pairs
    # by reshape and tolist, against the generator over np.ravel
    rng = np.random.default_rng(4)
    for _ in range(20):
        before, after = spiked(rng, shape), spiked(rng, shape)
        old = list(zip(*(np.ravel(c[..., 0]).tolist() for c in (before, after))))
        new = list(zip(before[..., 0].reshape(-1).tolist(), after[..., 0].reshape(-1).tolist()))
        assert len(old) == len(new) == math.prod(shape[:-1])
        assert np.array_equal(bits(old), bits(new))
