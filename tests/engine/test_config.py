"""SearchConfig validation: every setting no engine can run is refused
once, when the config is built."""

import numpy as np
import pytest

from repro.alphabet import BLOSUM62, GapPenalty
from repro.engine import (
    BatchedEngine,
    FaultPolicy,
    MemoryBudget,
    SearchConfig,
    pack_group,
    run_groups,
)
from repro.sequence import Database, QueryProfile, Sequence

GP = GapPenalty.cudasw_default()


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"engine": "simd"}, "engine"),
        # No engine names a kernel: a whole search on the strip kernel
        # is split_threshold=0, on the striped kernel a long query.
        ({"engine": "strips"}, "engine"),
        ({"engine": "striped"}, "engine"),
        ({"workers": 0}, "workers"),
        ({"group_size": 0}, "group size"),
        ({"engine": "scalar", "split_threshold": 100}, "split_threshold"),
        ({"split_threshold": -1}, "split_threshold"),
        ({"engine": "hetero", "split_threshold": "fast"}, "split_threshold"),
        ({"engine": "scalar", "fault_policy": FaultPolicy()}, "fault_policy"),
        (
            {"engine": "antidiagonal", "memory_budget": MemoryBudget(1024)},
            "memory_budget",
        ),
    ],
    ids=[
        "unknown-engine", "strips-engine", "striped-engine", "workers",
        "group-size", "threshold-per-pair", "negative-threshold",
        "threshold-string",
        "policy-per-pair", "budget-per-pair",
    ],
)
def test_search_config_rejects(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SearchConfig(**kwargs)


def test_batched_engine_refuses_a_per_pair_engine():
    with pytest.raises(ValueError, match="packed engines"):
        BatchedEngine(BLOSUM62, GP, SearchConfig(engine="scalar"))


def test_run_groups_refuses_an_unknown_kernel():
    rng = np.random.default_rng(5)
    db = Database.from_sequences(
        [Sequence.random(f"s{i}", 10 + i, rng) for i in range(3)]
    )
    group = pack_group(db, np.arange(3), lane_engine="simd")
    profile = QueryProfile(Sequence.random("q", 12, rng).codes, BLOSUM62)
    with pytest.raises(ValueError, match="lane kernel"):
        run_groups(profile, [group], GP)
