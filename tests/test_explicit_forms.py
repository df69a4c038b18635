"""Each short form in the package equals the explicit form it stands for."""

import dataclasses

import numpy as np
import pytest

from hermflow import PositivityEnvelope, VectorField, envelope_update
from hermflow.fokker_planck import divm_sup
from hermflow.sampling import random_velocity
from hermflow.spectral import _multi_indices


@pytest.mark.parametrize("degree", range(25))
def test_multi_indices_match_explicit_tables(degree):
    # d = 1: the degrees in order; d = 2: by total degree k, then the
    # first axis from k down to 0
    tables = {1: np.arange(degree + 1, dtype=np.int64)[:, None],
              2: np.array([(k - j, j) for k in range(degree + 1) for j in range(k + 1)],
                          dtype=np.int64)}
    for dim, table in tables.items():
        got = _multi_indices(dim, degree)
        assert got.dtype == np.int64 and got.shape == table.shape == (table.shape[0], dim)
        assert np.array_equal(got, table)


def replaced(envs, u, dt):
    """envelope_update written with dataclasses.replace."""
    return [dataclasses.replace(env, accumulated=env.accumulated + 0.5 * dt * (env.last_sup + sup),
                                last_sup=sup)
            for env, sup in zip(envs, divm_sup(u))]


def envelope_cases(frame, rng):
    """(envelopes, velocity, dt, steps): the data of the envelope tests."""
    x = frame.nodes[:, 0]
    linear = VectorField(frame, nodal=0.1 * x)
    (m,) = divm_sup(linear)
    us = [random_velocity(frame, rng, decay=0.3, amplitude=0.1) for _ in range(3)]
    return [([PositivityEnvelope(c0=0.5, last_sup=m)], linear, 0.05, 20),
            ([PositivityEnvelope(c0=0.25)], VectorField.zero(frame), 0.1, 5),
            ([PositivityEnvelope(c0=0.5, last_sup=0.1 * k) for k in range(3)],
             VectorField.stack(us), 0.05, 1)]


def test_envelope_update_matches_replace(frame_1d, rng):
    for envs, u, dt, steps in envelope_cases(frame_1d, rng):
        expected = envs
        for _ in range(steps):
            envs, expected = envelope_update(envs, u, dt), replaced(expected, u, dt)
            assert [dataclasses.astuple(e) for e in envs] == \
                [dataclasses.astuple(e) for e in expected]
