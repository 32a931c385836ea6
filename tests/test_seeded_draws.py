"""Seeded draws ignore the global random state.

The synthetic databases, the mutation helpers and the executor's retry
backoff draw only from a generator built from an explicit seed, so
reseeding NumPy's and Python's global generators must not change what
a seed produces.  A stray ``np.random.<fn>`` or ``random.<fn>`` call in
those paths makes the two passes below differ.
"""

import random

import numpy as np
import pytest

from repro.engine import FaultPolicy
from repro.sequence import (
    SWISSPROT_PROFILE,
    evolve,
    lognormal_database,
    plant_motif,
    random_protein,
)


@pytest.fixture
def restore_global_rngs():
    np_state, py_state = np.random.get_state(), random.getstate()
    yield
    np.random.set_state(np_state)
    random.setstate(py_state)


def _residues(db):
    return np.concatenate([db.codes_of(i) for i in range(len(db))])


def _draws(seed):
    rng = np.random.default_rng(seed)
    profile_db = SWISSPROT_PROFILE.build(
        rng, scale=0.0005, materialize=True, stratified=True
    )
    lognormal_db = lognormal_database(60, 300.0, 150.0, rng, stratified=True)
    query = random_protein(120, rng, id="q")
    evolved = evolve(query, rng, substitution_rate=0.3, indel_rate=0.05)
    host, start = plant_motif(query, 400, rng)
    policy = FaultPolicy(backoff=0.1, jitter=0.5, seed=seed)
    delays = [
        policy.retry_delay(attempt, random.Random(policy.seed))
        for attempt in (2, 3, 4)
    ]
    return {
        "profile_lengths": profile_db.lengths,
        "profile_residues": _residues(profile_db),
        "lognormal_lengths": lognormal_db.lengths,
        "lognormal_residues": _residues(lognormal_db),
        "evolved": evolved.codes,
        "planted": host.codes,
        "planted_at": start,
        "retry_delays": delays,
    }


def test_seeded_draws_ignore_global_rng_state(restore_global_rngs):
    np.random.seed(0)
    random.seed(0)
    first = _draws(7)
    np.random.seed(1)
    random.seed(1)
    second = _draws(7)
    for name, value in first.items():
        assert np.array_equal(value, second[name]), name
