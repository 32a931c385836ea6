"""Tests for the group executor: parallel equivalence and fallbacks."""

import numpy as np
import pytest

from repro import obs
from repro.alphabet import BLOSUM62, GapPenalty
from repro.engine import BatchedEngine, FaultPolicy, pack_database, run_groups, SearchConfig
from repro.engine.faults import auto_chunksize
from repro.sequence import Database, QueryProfile, Sequence, random_protein

GP = GapPenalty.cudasw_default()


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(1)
    return Database.from_sequences(
        [Sequence.random(f"s{i}", int(n), rng)
         for i, n in enumerate(rng.integers(5, 120, size=24))]
    )


@pytest.fixture(scope="module")
def profile():
    rng = np.random.default_rng(2)
    return QueryProfile(random_protein(40, rng).codes, BLOSUM62)


class TestRunGroups:
    def test_parallel_equals_serial(self, db, profile):
        groups = pack_database(db, 6)
        serial = run_groups(profile, groups, GP, workers=1)
        parallel = run_groups(profile, groups, GP, workers=2)
        assert len(serial) == len(parallel) == len(groups)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a, b)

    def test_single_group_short_circuits_to_serial(self, db, profile):
        groups = pack_database(db, len(db))
        assert len(groups) == 1
        [scores] = run_groups(profile, groups, GP, workers=4)
        assert scores.shape == (len(db),)

    def test_workers_validation(self, db, profile):
        groups = pack_database(db, 6)
        with pytest.raises(ValueError):
            run_groups(profile, groups, GP, workers=0)

    def test_chunked_dispatch_matches_serial(self, db, profile):
        """Many tiny groups dispatch as chunks (not one round trip per
        group, the old pool.map chunksize=1 behavior) with identical
        scores."""
        groups = pack_database(db, 1)  # 24 single-lane groups
        serial = run_groups(profile, groups, GP, workers=1)
        with obs.collect("counters") as instr:
            chunked = run_groups(profile, groups, GP, workers=2)
        for a, b in zip(serial, chunked):
            assert np.array_equal(a, b)
        c = instr.counters.as_dict()
        expected_tasks = -(-len(groups) // auto_chunksize(len(groups), 2))
        assert c["engine.executor.tasks_submitted"] == expected_tasks
        assert expected_tasks < len(groups)

    def test_auto_chunksize(self):
        assert auto_chunksize(0, 2) == 1
        assert auto_chunksize(5, 2) == 1
        assert auto_chunksize(4000, 8) == 125
        with pytest.raises(ValueError):
            auto_chunksize(4, 0)

    def test_explicit_chunksize_one_gives_per_group_tasks(self, db, profile):
        groups = pack_database(db, 2)
        with obs.collect("counters") as instr:
            run_groups(
                profile, groups, GP, workers=2,
                policy=FaultPolicy(chunksize=1),
            )
        c = instr.counters.as_dict()
        assert c["engine.executor.tasks_submitted"] == len(groups)

    def test_pool_failure_falls_back_to_serial(self, db, profile, monkeypatch):
        """An environment that cannot fork still gets correct results."""
        import concurrent.futures

        class NoPool:
            def __init__(self, *a, **k):
                raise OSError("process pools forbidden here")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", NoPool
        )
        groups = pack_database(db, 6)
        fallback = run_groups(profile, groups, GP, workers=3)
        serial = run_groups(profile, groups, GP, workers=1)
        for a, b in zip(fallback, serial):
            assert np.array_equal(a, b)


class TestBatchedEngineWorkers:
    def test_engine_results_identical_across_worker_counts(self, db):
        rng = np.random.default_rng(3)
        q = random_protein(33, rng, id="q")
        s1, r1 = BatchedEngine(
            BLOSUM62, GP,
            SearchConfig(group_size=6, workers=1),
        ).search(q, db)
        s2, r2 = BatchedEngine(
            BLOSUM62, GP,
            SearchConfig(group_size=6, workers=3),
        ).search(q, db)
        assert np.array_equal(s1, s2)
        assert r1.group_efficiencies == r2.group_efficiencies
        assert r1.workers == 1 and r2.workers == 3

    def test_engine_validation(self):
        with pytest.raises(ValueError):
            BatchedEngine(BLOSUM62, GP, SearchConfig(group_size=0))
        with pytest.raises(ValueError):
            BatchedEngine(BLOSUM62, GP, SearchConfig(workers=0))

    def test_report_aggregates(self, db):
        rng = np.random.default_rng(4)
        q = random_protein(20, rng, id="q")
        _, report = BatchedEngine(BLOSUM62, GP, SearchConfig(group_size=7)).search(q, db)
        assert report.n_groups == len(report.group_sizes)
        assert sum(report.group_sizes) == len(db)
        assert report.residues == db.total_residues
        assert report.padding_efficiency == pytest.approx(
            report.residues / report.padded_cells
        )
        assert all(0 < e <= 1 for e in report.group_efficiencies)
