"""Degradation-path tests for the fault-tolerant executor.

Every fault here is *injected deterministically* inside worker
processes via :class:`InjectionPlan` — crash on the Nth task, hang on a
chosen group, return garbage for a chosen group — so the tests assert
exact recovery behavior without flaky timing dependence.  Injection
never applies to the serial path, which is the recovery mechanism under
test: whatever the pool does, scores must come out bit-identical to the
serial reference.
"""

import multiprocessing
import os
import random
import time

import numpy as np
import pytest

from repro import obs
from repro.alphabet import BLOSUM62, GapPenalty
from repro.engine import (
    BatchedEngine,
    FaultPolicy,
    InjectionPlan,
    SearchConfig,
    SearchDeadlineExceeded,
    pack_database,
    run_groups,
)
from repro.engine import executor
from repro.engine.faults import DeadlineClock
from repro.sequence import Database, QueryProfile, Sequence, random_protein

GP = GapPenalty.cudasw_default()

#: Injected hangs sleep this long: far beyond any policy timeout used
#: here, short enough that an abandoned worker exits on its own even if
#: termination were to fail.
HANG = 20.0


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(11)
    return Database.from_sequences(
        [Sequence.random(f"s{i}", int(n), rng)
         for i, n in enumerate(rng.integers(5, 100, size=24))]
    )


@pytest.fixture(scope="module")
def query():
    rng = np.random.default_rng(12)
    return random_protein(36, rng, id="q")


@pytest.fixture(scope="module")
def reference(db, query):
    scores, _ = BatchedEngine(
        BLOSUM62, GP,
        SearchConfig(group_size=4, workers=1),
    ).search(
        query, db
    )
    return scores


def degraded_search(db, query, policy, workers=2):
    with obs.collect("counters") as instr:
        scores, _ = BatchedEngine(
            BLOSUM62, GP,
            SearchConfig(group_size=4, workers=workers, fault_policy=policy),
        ).search(query, db)
    return scores, instr.counters.as_dict()


class TestPolicyValidation:
    def test_rejects_bad_values(self):
        for kwargs in (
            {"timeout": 0.0},
            {"timeout": -1.0},
            {"retries": -1},
            {"deadline": 0.0},
            {"backoff": -0.1},
            {"backoff_multiplier": 0.5},
            {"jitter": -0.2},
            {"chunksize": 0},
        ):
            with pytest.raises(ValueError):
                FaultPolicy(**kwargs)
        with pytest.raises(ValueError):
            InjectionPlan(crash_after=-1)
        with pytest.raises(ValueError):
            InjectionPlan(hang_seconds=0.0)

    def test_retry_delay_deterministic_and_growing(self):
        policy = FaultPolicy(backoff=0.1, backoff_multiplier=2.0,
                             jitter=0.5, seed=7)
        a = [policy.retry_delay(k, random.Random(7)) for k in (2, 3, 4)]
        b = [policy.retry_delay(k, random.Random(7)) for k in (2, 3, 4)]
        assert a == b  # seeded jitter is reproducible
        assert a[0] < a[1] < a[2]  # exponential growth survives jitter
        assert policy.retry_delay(1, random.Random(7)) == 0.0

    def test_no_jitter_is_exact(self):
        policy = FaultPolicy(backoff=0.2, backoff_multiplier=3.0, jitter=0.0)
        rng = random.Random(0)
        assert policy.retry_delay(2, rng) == pytest.approx(0.2)
        assert policy.retry_delay(3, rng) == pytest.approx(0.6)


class TestDeadlineClock:
    def test_no_deadline_never_expires(self):
        clock = DeadlineClock(None)
        assert clock.remaining() is None
        assert not clock.expired()

    def test_expiry(self):
        clock = DeadlineClock(1e-6)
        time.sleep(0.01)
        assert clock.expired()
        assert clock.remaining() < 0
        assert clock.elapsed > 0


class TestWorkerCrash:
    def test_crash_keeps_completed_groups_and_recovers(
        self, db, query, reference
    ):
        """A worker death mid-run loses only unfinished groups: obs
        counters prove completed pool scores were kept and exactly the
        remainder was recomputed serially."""
        policy = FaultPolicy(
            chunksize=1, inject=InjectionPlan(crash_after=2)
        )
        scores, c = degraded_search(db, query, policy)
        assert np.array_equal(scores, reference)
        assert c["engine.executor.worker_crashes"] == 1
        n = c["engine.executor.groups_dispatched"]
        completed = c.get("engine.executor.pool_completed_groups", 0)
        recomputed = c["engine.executor.serial_retry_groups"]
        assert completed + recomputed == n
        assert recomputed < n  # some pool work really was recovered

    def test_crash_on_specific_group(self, db, query, reference):
        policy = FaultPolicy(
            chunksize=1, retries=0, inject=InjectionPlan(crash_groups=(0,))
        )
        scores, c = degraded_search(db, query, policy)
        assert np.array_equal(scores, reference)
        assert c["engine.executor.worker_crashes"] >= 1


class TestTimeoutRetrySerial:
    def test_hang_times_out_retries_then_serial(self, db, query, reference):
        """A group that hangs on every pool attempt exhausts its retries
        and completes through the injection-free serial fallback."""
        policy = FaultPolicy(
            chunksize=1, timeout=0.25, retries=1, backoff=0.01,
            inject=InjectionPlan(hang_groups=(2,), hang_seconds=HANG),
        )
        t0 = time.monotonic()
        scores, c = degraded_search(db, query, policy)
        elapsed = time.monotonic() - t0
        assert np.array_equal(scores, reference)
        # Timed out at least twice (first attempt + its retry), then
        # went serial; well before the injected hang could finish.
        assert c["engine.executor.timeouts"] >= 2
        assert c["engine.executor.retries"] >= 1
        assert c["engine.executor.tasks_exhausted"] >= 1
        assert c["engine.executor.serial_retry_groups"] >= 1
        assert elapsed < HANG / 2

    def test_garbage_result_retried_then_recovered(self, db, query, reference):
        policy = FaultPolicy(
            chunksize=1, retries=1, backoff=0.01,
            inject=InjectionPlan(garbage_groups=(1, 4)),
        )
        scores, c = degraded_search(db, query, policy)
        assert np.array_equal(scores, reference)
        # Each garbage group failed twice in the pool (initial + retry).
        assert c["engine.executor.garbage_results"] == 4
        assert c["engine.executor.serial_retry_groups"] == 2


class TestTaskError:
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched scorer reaches the workers only by fork",
    )
    def test_raising_task_is_counted_and_retried(
        self, db, query, reference, tmp_path, monkeypatch
    ):
        """A pool task whose scorer raises is counted as a task error
        and retried in the pool; the scores stay exact."""
        parent = os.getpid()
        marker = str(tmp_path / "raised")
        score_group = executor._score_group

        def raise_once(*args):
            if os.getpid() != parent:
                try:
                    # O_EXCL: exactly one worker attempt ever raises.
                    os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    pass
                else:
                    raise RuntimeError("injected task error")
            return score_group(*args)

        monkeypatch.setattr(executor, "_score_group", raise_once)
        policy = FaultPolicy(chunksize=1, retries=1, backoff=0.01)
        scores, c = degraded_search(db, query, policy)
        assert np.array_equal(scores, reference)
        assert c["engine.executor.task_errors"] == 1
        assert c["engine.executor.retries"] == 1
        assert "engine.executor.serial_retry_groups" not in c
        assert (
            c["engine.executor.pool_completed_groups"]
            == c["engine.executor.groups_dispatched"]
        )


class TestDeadline:
    def test_pool_deadline_raises_typed_with_partials(self, db, query):
        """All workers wedged: the deadline fires, the error is typed
        and carries partial results, and the search never hangs."""
        n_groups = len(pack_database(db, 4))
        policy = FaultPolicy(
            chunksize=1, deadline=0.5,
            inject=InjectionPlan(
                hang_groups=tuple(range(n_groups)), hang_seconds=HANG
            ),
        )
        engine = BatchedEngine(
            BLOSUM62, GP,
            SearchConfig(group_size=4, workers=2, fault_policy=policy),
        )
        t0 = time.monotonic()
        with pytest.raises(SearchDeadlineExceeded) as excinfo:
            engine.search(query, db)
        elapsed = time.monotonic() - t0
        exc = excinfo.value
        assert elapsed < 5.0  # never hangs anywhere near the 20s sleeps
        assert exc.deadline == 0.5
        assert exc.elapsed >= 0.5
        assert set(exc.partial) | set(exc.pending) == set(range(n_groups))
        # BatchedEngine scattered what finished into database order.
        assert exc.partial_scores is not None
        assert exc.completed_mask is not None
        assert exc.completed_mask.shape == (len(db),)
        assert (exc.partial_scores[~exc.completed_mask] == -1).all()

    def test_serial_deadline_carries_partials(self, db, query, reference):
        """The serial path honors the deadline between groups."""
        groups = pack_database(db, 4)
        profile = QueryProfile(
            np.asarray(query.codes), BLOSUM62
        )
        clockless = FaultPolicy(deadline=1e-9)
        with pytest.raises(SearchDeadlineExceeded) as excinfo:
            run_groups(profile, groups, GP, workers=1, policy=clockless)
        exc = excinfo.value
        assert exc.pending  # something was left undone
        for gi, lane_scores in exc.partial.items():
            assert np.array_equal(
                lane_scores, reference[groups[gi].indices]
            )

    def test_deadline_counter(self, db, query):
        policy = FaultPolicy(deadline=1e-9)
        with obs.collect("counters") as instr:
            with pytest.raises(SearchDeadlineExceeded):
                BatchedEngine(
                    BLOSUM62, GP,
                    SearchConfig(group_size=4, workers=1, fault_policy=policy),
                ).search(query, db)
        c = instr.counters.as_dict()
        assert c["engine.executor.deadline_exceeded"] == 1


class TestCudaSWIntegration:
    def test_acceptance_crash_scenario(self, db, query):
        """The ISSUE acceptance criterion: kill one worker after N
        groups; search(workers=2) returns scores bit-identical to the
        serial path, recomputes only the unfinished groups, and obs
        counters prove it."""
        from repro.app import CudaSW

        app = CudaSW()
        serial_result, _ = app.search(query, db, workers=1, group_size=4)
        # 6 groups across 2 workers: each worker completes one task,
        # then dies on its second — the crash is guaranteed to fire
        # while completed results exist to recover.
        policy = FaultPolicy(chunksize=1, inject=InjectionPlan(crash_after=1))
        with obs.collect("counters") as instr:
            result, _ = app.search(
                query, db, workers=2, group_size=4, fault_policy=policy
            )
        assert np.array_equal(result.scores, serial_result.scores)
        c = instr.counters.as_dict()
        assert c["engine.executor.worker_crashes"] == 1
        assert (
            c.get("engine.executor.pool_completed_groups", 0)
            + c["engine.executor.serial_retry_groups"]
            == c["engine.executor.groups_dispatched"]
        )

    def test_fault_policy_rejected_for_other_engines(self, db, query):
        from repro.app import CudaSW

        app = CudaSW()
        with pytest.raises(ValueError, match="batched"):
            app.search(
                query, db, engine="scalar", fault_policy=FaultPolicy()
            )
        with pytest.raises(ValueError, match="batched"):
            app.search(
                query, db, simulate_kernels=True, fault_policy=FaultPolicy()
            )

    def test_search_batch_passthrough(self, db, query):
        from repro.app import CudaSW
        from repro.app.batch import search_batch

        rng = np.random.default_rng(21)
        queries = [query, random_protein(25, rng, id="q2")]
        app = CudaSW()
        policy = FaultPolicy(chunksize=1, retries=1, backoff=0.01,
                             inject=InjectionPlan(garbage_groups=(0,)))
        results, _ = search_batch(
            app, queries, db, workers=2, fault_policy=policy
        )
        baseline, _ = search_batch(app, queries, db, workers=1)
        for got, want in zip(results, baseline):
            assert np.array_equal(got.scores, want.scores)

    def test_default_policy_unchanged_behavior(self, db, query, reference):
        """No policy given: the engine behaves exactly as before —
        parallel scores match serial, nothing raises."""
        scores, _ = BatchedEngine(
            BLOSUM62, GP,
            SearchConfig(group_size=4, workers=2),
        ).search(query, db)
        assert np.array_equal(scores, reference)
