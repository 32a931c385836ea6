"""Heaviest-first pool dispatch.

The executor sorts pending groups by their modeled sweep cost (the
lane kernel's ``cost``), cuts them into ``ceil(n / chunk)`` pool tasks
and submits them heaviest-first.  Only the schedule changes: scores,
journals and the task count stay what they were.  A pool that breaks
mid-search must keep every task that had already finished.
"""

from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.alphabet import BLOSUM62, GapPenalty
from repro.engine import (
    BatchedEngine,
    FaultPolicy,
    SearchConfig,
    build_store,
    open_database,
    pack_database_hetero,
    pack_plan,
    run_groups,
)
from repro.engine import executor
from repro.engine.executor import _cut_tasks
from repro.engine.faults import auto_chunksize
from repro.engine.kernels import group_cost, plan_groups
from repro.sequence import Database, QueryProfile, Sequence, random_protein

GP = GapPenalty.cudasw_default()


def _bimodal_db(rng, n_short=24, n_long=3):
    seqs = [
        Sequence.random(f"s{i}", int(n), rng)
        for i, n in enumerate(rng.integers(20, 300, size=n_short))
    ] + [
        Sequence.random(f"long{i}", int(n), rng)
        for i, n in enumerate(rng.integers(1200, 1500, size=n_long))
    ]
    return Database.from_sequences(seqs)


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(15)
    return {
        "query": random_protein(40, rng, id="Q1"),
        "db": _bimodal_db(rng),
    }


class TestCutTasks:
    @settings(max_examples=200, deadline=None)
    @given(
        costs=st.dictionaries(
            st.integers(0, 400),
            st.one_of(
                st.just(0.0),
                st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=80,
        ),
        workers=st.integers(1, 8),
        chunksize=st.one_of(st.none(), st.integers(1, 12)),
    )
    def test_partition_and_order(self, costs, workers, chunksize):
        chunk = chunksize or auto_chunksize(len(costs), workers)
        tasks = _cut_tasks(costs, chunk)
        dealt = [gi for task in tasks for gi in task]
        assert sorted(dealt) == sorted(costs)
        assert len(tasks) == -(-len(costs) // chunk)
        assert all(1 <= len(task) <= chunk for task in tasks)
        loads = [sum(costs[gi] for gi in task) for task in tasks]
        assert loads == sorted(loads, reverse=True)

    def test_deterministic(self):
        costs = {i: float(i % 3) for i in range(17)}
        assert _cut_tasks(costs, 2) == _cut_tasks(dict(costs), 2)

    def test_heaviest_groups_share_the_first_task(self):
        # Sorted 9, 5, 4, 3 and cut into runs of two; equal costs keep
        # group order.
        assert _cut_tasks({0: 3.0, 1: 4.0, 2: 5.0, 3: 9.0}, 2) == [
            (3, 2), (1, 0)
        ]
        assert _cut_tasks({4: 1.0, 2: 1.0, 7: 1.0}, 2) == [(2, 4), (7,)]


class InlinePool:
    """In-process stand-in for ``ProcessPoolExecutor``.

    Each submitted chunk is scored at once; ``outcomes`` says, per
    submission, whether its future resolves (``"ok"``), dies with the
    pool (``"broken"``) or stays pending (``"pending"``).
    """

    outcomes: list[str] = []
    profile: QueryProfile | None = None

    def __init__(self, *args, **kwargs):
        self.submitted: list[tuple[list[int], Future]] = []
        InlinePool.last = self

    def submit(self, fn, payload):
        from concurrent.futures.process import BrokenProcessPool

        fut = Future()
        index = len(self.submitted)
        outcome = self.outcomes[index] if index < len(self.outcomes) else "ok"
        if outcome == "ok":
            profiles = {}
            fut.set_result((
                [
                    executor._score_group(
                        group, GP, profiles, self.profile.query_codes,
                        self.profile.matrix,
                    )
                    for _gi, group in payload
                ],
                None,
            ))
        elif outcome == "broken":
            fut.set_exception(BrokenProcessPool("worker died"))
        self.submitted.append(([gi for gi, _ in payload], fut))
        return fut

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.fixture
def inline_pool(monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    InlinePool.outcomes = []
    yield InlinePool
    InlinePool.outcomes = []
    InlinePool.profile = None


class TestHeaviestFirst:
    def test_tail_group_is_submitted_first(self, corpus, inline_pool):
        db, m = corpus["db"], len(corpus["query"])
        # The engine's own plan: bulk groups at their cheapest kernel.
        order = np.argsort(db.lengths, kind="stable")
        groups = pack_plan(
            db, order, *plan_groups(db.lengths[order], m, 4, 300)
        )
        # Pack order is shortest-first: the strips tail comes last.
        assert groups[-1].lane_engine == "strips"
        profile = QueryProfile(corpus["query"].codes, BLOSUM62)
        inline_pool.profile = profile
        pooled = run_groups(
            profile, groups, GP, workers=2, policy=FaultPolicy(chunksize=1)
        )
        submitted = [gis for gis, _ in inline_pool.last.submitted]
        assert submitted[0] == [len(groups) - 1]
        costs = [
            sum(group_cost(groups[gi], m) for gi in gis) for gis in submitted
        ]
        assert costs == sorted(costs, reverse=True)
        serial = run_groups(profile, groups, GP, workers=1)
        for a, b in zip(pooled, serial):
            assert np.array_equal(a, b)


class TestBrokenPoolHarvest:
    def test_completed_future_in_the_broken_batch_is_kept(
        self, corpus, inline_pool, monkeypatch
    ):
        """One ``wait()`` batch holds a future that saw the pool die and,
        after it, one that finished: the finished group is kept and
        only the rest is recomputed serially."""
        import concurrent.futures

        def wait_all_done(fs, timeout=None, return_when=None):
            done = [f for _gis, f in inline_pool.last.submitted if f.done()]
            return done, {f for f in fs if not f.done()}

        monkeypatch.setattr(concurrent.futures, "wait", wait_all_done)
        groups = pack_database_hetero(corpus["db"], 12, 300)
        assert len(groups) == 3
        profile = QueryProfile(corpus["query"].codes, BLOSUM62)
        inline_pool.profile = profile
        inline_pool.outcomes = ["broken", "ok", "pending"]
        sunk = []
        with obs.collect("counters") as instr:
            pooled = run_groups(
                profile, groups, GP, workers=2,
                policy=FaultPolicy(chunksize=1),
                on_group_scored=lambda gi, _s: sunk.append(gi),
            )
        [broken, kept, pending] = [
            gis for gis, _ in inline_pool.last.submitted
        ]
        c = instr.counters.as_dict()
        assert c["engine.executor.worker_crashes"] == 1
        assert c["engine.executor.pool_completed_groups"] == 1
        assert c["engine.executor.serial_retry_groups"] == 2
        assert sunk[0] == kept[0]
        assert sorted(sunk[1:]) == sorted(broken + pending)
        serial = run_groups(profile, groups, GP, workers=1)
        for a, b in zip(pooled, serial):
            assert np.array_equal(a, b)


class TestPooledHeteroStore:
    def test_bit_identical_to_serial_and_resumes(self, corpus, tmp_path):
        """A pooled hetero search of a ``.rdb`` store matches the serial
        one, and its journal replays every group on resume."""
        path = tmp_path / "db.rdb"
        build_store(corpus["db"], path, group_size=4)
        store = open_database(path)
        journal = tmp_path / "search.journal"

        def search(workers, **kwargs):
            config = SearchConfig(
                engine="hetero", group_size=4, split_threshold=300,
                workers=workers,
                # An explicit policy keeps the pool for a search this
                # small instead of demoting it to serial.
                fault_policy=FaultPolicy() if workers > 1 else None,
            )
            with obs.collect("counters") as instr:
                scores, report = BatchedEngine(BLOSUM62, GP, config).search(
                    corpus["query"], store, **kwargs
                )
            return scores, report, instr.counters.as_dict()

        serial, _, _ = search(1)
        pooled, report, c = search(2, checkpoint=journal)
        assert np.array_equal(pooled, serial)
        assert set(report.lane_engines) == {"gotoh", "strips"}
        assert c["engine.executor.pool_completed_groups"] == report.n_groups
        assert c["engine.dbstore.pool_group_refs"] == report.n_groups
        assert c["engine.checkpoint.groups_recomputed"] == report.n_groups

        resumed, _, c = search(2, checkpoint=journal, resume=True)
        assert np.array_equal(resumed, serial)
        assert c["engine.checkpoint.groups_replayed"] == report.n_groups
        assert c.get("engine.checkpoint.groups_recomputed", 0) == 0
