"""Fanning packed groups out across worker processes, fault-tolerantly.

Groups are embarrassingly parallel — each lane matrix is scored
independently — so the only coordination is scattering per-group score
vectors back to database order.  The executor ships the query codes,
matrix and penalties once per worker (pool initializer) and then streams
*chunks* of groups as individually tracked futures; each task moves a
few ``uint8`` lane matrices out and small score vectors back.  Groups
are ordered by their modeled sweep cost at the query's length (the
lane kernel's :attr:`~repro.engine.kernels.LaneKernel.cost`) and
chunks submitted heaviest-first, so a long-tail group that outweighs
the bulk starts first instead of last.

Unlike the original ``pool.map`` dispatch, every task is managed by a
:class:`~repro.engine.faults.FaultPolicy`: tasks that run past the
policy timeout are abandoned and retried with exponential backoff +
seeded jitter, a dead worker (``BrokenProcessPool``) costs only the
tasks that had not finished — completed group scores are kept and the
remainder is recomputed serially — and a whole-search deadline raises
:class:`~repro.engine.faults.SearchDeadlineExceeded` carrying the
partial results instead of hanging forever.  Results that do arrive are
validated (shape and dtype) before being trusted.

When the parent is collecting observability data, each chunk runs under
a fresh worker-side :class:`~repro.obs.Instrumentation` session and
ships its snapshot (counters, histograms, spans) back with the scores
as a :class:`~repro.obs.WorkerTelemetry`; the parent merges snapshots
from *accepted* chunks only, so counter totals stay bit-identical to
the serial path while worker spans land in per-pid trace lanes.

Process pools are not available everywhere (restricted sandboxes,
interpreters without ``fork``/``spawn`` support), and a NumPy sweep
already saturates one core per group, so parallelism is strictly
optional: ``workers <= 1`` never touches ``multiprocessing``, and any
failure to bring up or run the pool falls back to the serial path with
identical results.
"""

from __future__ import annotations

import random
import time
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

from repro.alphabet import GapPenalty, SubstitutionMatrix
from repro.engine.faults import (
    DEFAULT_POLICY,
    DeadlineClock,
    FaultPolicy,
    InjectionPlan,
    SearchDeadlineExceeded,
    auto_chunksize,
)
from repro.engine.dbstore import DatabaseStore, StoreGroupRef, open_database
from repro.engine.kernels import LANE_KERNELS, group_cost
from repro.engine.pack import PackedGroup
from repro.obs import (
    AnyInstrumentation,
    Instrumentation,
    WorkerTelemetry,
    activate as obs_activate,
    current as obs_current,
)
from repro.sequence.profile import QueryProfile
from repro.sequence.striped_profile import StripedProfile

__all__ = ["run_groups"]

#: Per-process state installed by the pool initializer, so the profile is
#: rebuilt once per worker instead of pickled once per group.
_WORKER_STATE: dict = {}


def _score_group(
    group: PackedGroup,
    gaps: GapPenalty,
    profiles: dict[type, QueryProfile | StripedProfile],
    query_codes: np.ndarray,
    matrix: SubstitutionMatrix,
) -> np.ndarray:
    """Score one group with the lane kernel it is stamped with.

    ``profiles`` caches the query-profile flavours built so far, at most
    one each, so a mixed-kernel search pays only for the flavours its
    groups use.
    """
    kernel = LANE_KERNELS[group.lane_engine]
    if kernel.profile not in profiles:
        profiles[kernel.profile] = kernel.profile(query_codes, matrix)
    scores: np.ndarray = kernel.score(profiles[kernel.profile], group, gaps)
    return scores


def _init_worker(
    query_codes: np.ndarray,
    matrix: SubstitutionMatrix,
    gaps: GapPenalty,
    inject: InjectionPlan | None,
    collect_mode: str = "off",
    store_path: str | None = None,
    store_fingerprint: str | None = None,
) -> None:
    _WORKER_STATE["query_codes"] = query_codes
    _WORKER_STATE["matrix"] = matrix
    _WORKER_STATE["profiles"] = {}
    _WORKER_STATE["gaps"] = gaps
    _WORKER_STATE["inject"] = inject
    _WORKER_STATE["tasks_done"] = 0
    _WORKER_STATE["collect_mode"] = collect_mode
    _WORKER_STATE["store"] = None
    if store_path is not None:
        # Each worker opens (and memory-maps) the pre-packed store by
        # path, so chunk payloads can carry group *indices* instead of
        # pickled lane matrices.  A refused store or a fingerprint skew
        # (the file changed under the parent) raises here, breaking the
        # pool — the parent's serial recovery path then rescores from
        # its own copy, which is always correct.
        store = open_database(store_path, verify="fast")
        if not isinstance(store, DatabaseStore):
            raise RuntimeError(
                f"{store_path} did not open as a database store"
            )
        if (
            store_fingerprint is not None
            and store.fingerprint != store_fingerprint
        ):
            raise RuntimeError(
                f"database store {store_path} changed while the search "
                f"was running (fingerprint {store.fingerprint[:12]}… != "
                f"expected {store_fingerprint[:12]}…)"
            )
        _WORKER_STATE["store"] = store
    # One epoch per worker process: successive per-chunk sessions anchor
    # their spans to it, so a worker's lane reads as one monotonic
    # timeline in the merged trace.
    _WORKER_STATE["epoch"] = time.perf_counter()


def _score_chunk_task(
    payload: list[tuple[int, PackedGroup | StoreGroupRef]],
) -> tuple[list[np.ndarray], WorkerTelemetry | None]:
    """Score one chunk of ``(group_index, group)`` pairs, worker-side.

    When the parent collects, the chunk runs under a *fresh* worker-side
    :class:`~repro.obs.Instrumentation` session whose snapshot ships
    back with the scores.  A fresh session per chunk attempt is what
    makes the parent-side merge exactly-once: retried or rejected
    chunks carry their own registries, which are simply discarded with
    the chunk, so accepted totals stay bit-identical to the serial
    path.
    """
    mode = _WORKER_STATE.get("collect_mode", "off")
    if mode == "off":
        return _score_chunk_groups(payload), None
    instr = Instrumentation(mode, epoch=_WORKER_STATE["epoch"])
    with obs_activate(instr):
        out = _score_chunk_groups(payload)
    return out, WorkerTelemetry.snapshot(instr)


def _score_chunk_groups(
    payload: list[tuple[int, PackedGroup | StoreGroupRef]],
) -> list[np.ndarray]:
    gaps = _WORKER_STATE["gaps"]
    inject: InjectionPlan | None = _WORKER_STATE.get("inject")
    store: DatabaseStore | None = _WORKER_STATE.get("store")
    instr = obs_current()
    out = []
    for group_index, shipped in payload:
        if isinstance(shipped, StoreGroupRef):
            if store is None:
                raise RuntimeError(
                    "received a store group reference but this worker "
                    "has no database store open"
                )
            group = shipped.materialize(store)
        else:
            group = shipped
        garbage = False
        if inject is not None:
            garbage = inject.apply(group_index, _WORKER_STATE["tasks_done"])
        started = time.perf_counter()
        with instr.span("sweep"):
            if garbage:
                out.append(np.zeros(0, dtype=np.int64))
            else:
                out.append(
                    _score_group(
                        group, gaps, _WORKER_STATE["profiles"],
                        _WORKER_STATE["query_codes"], _WORKER_STATE["matrix"],
                    )
                )
        if instr.enabled:
            instr.observe(
                "engine.sweep.group_seconds",
                time.perf_counter() - started,
            )
        _WORKER_STATE["tasks_done"] += 1
    return out


def run_groups(
    profile: QueryProfile | StripedProfile,
    groups: list[PackedGroup],
    gaps: GapPenalty,
    *,
    workers: int = 1,
    policy: FaultPolicy | None = None,
    preloaded: dict[int, np.ndarray] | None = None,
    on_group_scored: Callable[[int, np.ndarray], None] | None = None,
    store: DatabaseStore | None = None,
) -> list[np.ndarray]:
    """Score every group, serially or across ``workers`` processes.

    Returns one score vector per group, in group order.  Results are
    identical on every path; parallelism and the fault ``policy`` only
    change wall time and failure behavior.  The only exception raised
    for fault reasons is
    :class:`~repro.engine.faults.SearchDeadlineExceeded`, and only when
    ``policy.deadline`` is set.

    ``preloaded`` seeds already-known group scores (a replayed
    checkpoint journal): those groups are never dispatched or
    recomputed.  ``on_group_scored`` is invoked exactly once per *newly
    computed* group, as soon as its scores are accepted — the
    checkpoint journal's append hook; preloaded groups do not re-fire
    it.

    The pool path cuts the pending groups into tasks heaviest-first
    (:func:`_cut_tasks`) and submits them in that order, so the order
    groups finish in, and reach ``on_group_scored``, is not group
    order.

    Each group is swept by the lane kernel it was stamped with at pack
    time (:attr:`~repro.engine.pack.PackedGroup.lane_engine`, looked up
    in :data:`~repro.engine.kernels.LANE_KERNELS`), which is how one
    search mixes kernels.
    The profile flavour each kernel needs is built lazily from the
    passed profile's query codes and matrix.  Scores are bit-identical
    on every kernel, so checkpoints and fault handling stay
    kernel-agnostic.

    ``store`` (an open :class:`~repro.engine.dbstore.DatabaseStore`
    whose groups these are) switches the pool dispatch to *reference*
    payloads: each worker opens the memmapped store by path in its
    initializer and chunks ship
    :class:`~repro.engine.dbstore.StoreGroupRef` index vectors instead
    of pickled lane matrices — the fix for the workers>1 pickle
    re-ship regression.  Serial scoring ignores it (the parent's
    groups are already packed).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    unknown = {g.lane_engine for g in groups} - LANE_KERNELS.keys()
    if unknown:
        raise ValueError(
            f"unknown lane kernel(s) {sorted(unknown)}; expected one of "
            f"{sorted(LANE_KERNELS)}"
        )
    policy = policy or DEFAULT_POLICY
    instr = obs_current()
    clock = DeadlineClock(policy.deadline)
    instr.count("engine.executor.groups_dispatched", len(groups))
    results: dict[int, np.ndarray] = dict(preloaded or {})
    pending = [i for i in range(len(groups)) if i not in results]
    if workers == 1 or len(pending) <= 1:
        instr.count("engine.executor.serial_groups", len(pending))
        _score_serial(
            profile, groups, gaps, instr, clock, results,
            span_name="sweep", indices=pending, sink=on_group_scored,
        )
        return [results[i] for i in range(len(groups))]
    return _run_pool(
        profile, groups, gaps, workers, policy, instr, clock,
        results, pending, on_group_scored, store,
    )


def _score_serial(
    profile: QueryProfile | StripedProfile,
    groups: list[PackedGroup],
    gaps: GapPenalty,
    instr: AnyInstrumentation,
    clock: DeadlineClock,
    results: dict[int, np.ndarray],
    span_name: str,
    indices: list[int] | None = None,
    sink: Callable[[int, np.ndarray], None] | None = None,
) -> None:
    """Score ``indices`` (default: all unscored) into ``results``,
    checking the deadline between groups."""
    todo = range(len(groups)) if indices is None else indices
    profiles: dict[type, QueryProfile | StripedProfile] = {
        type(profile): profile
    }
    for i in todo:
        if i in results:
            continue
        if clock.expired():
            _raise_deadline(instr, clock, results, len(groups))
        started = time.perf_counter()
        with instr.span(span_name):
            results[i] = _score_group(
                groups[i], gaps, profiles, profile.query_codes, profile.matrix
            )
        if instr.enabled:
            instr.observe(
                "engine.sweep.group_seconds", time.perf_counter() - started
            )
        if sink is not None:
            sink(i, results[i])


def _raise_deadline(
    instr: AnyInstrumentation,
    clock: DeadlineClock,
    results: dict[int, np.ndarray],
    n_groups: int,
) -> None:
    instr.count("engine.executor.deadline_exceeded", 1)
    raise SearchDeadlineExceeded(
        deadline=clock.deadline,
        elapsed=clock.elapsed,
        partial=dict(results),
        pending=tuple(i for i in range(n_groups) if i not in results),
    )


def _valid_chunk(
    result: object,
    group_indices: Sequence[int],
    groups: list[PackedGroup],
) -> bool:
    """Trust a worker's chunk result only if it is a
    ``(scores, telemetry)`` pair whose every vector has the expected
    shape and an integer dtype."""
    if not isinstance(result, tuple) or len(result) != 2:
        return False
    chunk_scores, telemetry = result
    if telemetry is not None and not isinstance(telemetry, WorkerTelemetry):
        return False
    if not isinstance(chunk_scores, list) or (
        len(chunk_scores) != len(group_indices)
    ):
        return False
    for gi, arr in zip(group_indices, chunk_scores):
        if not isinstance(arr, np.ndarray):
            return False
        if arr.shape != (groups[gi].size,) or arr.dtype.kind not in "iu":
            return False
    return True


def _cut_tasks(
    costs: dict[int, float], chunk: int
) -> list[tuple[int, ...]]:
    """Cut groups into pool tasks, heaviest first.

    ``costs`` maps each pending group index to its kernel's
    :attr:`~repro.engine.kernels.LaneKernel.cost`.  The groups are
    sorted heaviest-first (ties on the group index) and cut into
    ``ceil(n / chunk)`` runs of at most ``chunk``, so the tasks come
    back in non-increasing cost — the order they are submitted in.  A
    long-tail group that outweighs the bulk therefore starts at once
    instead of after it.
    """
    order = sorted(costs, key=lambda gi: (-costs[gi], gi))
    return [
        tuple(order[start : start + chunk])
        for start in range(0, len(order), chunk)
    ]


def _abandon_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting on hung or dead workers."""
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    # Best-effort teardown: the pool is already broken or abandoned and
    # every group it owed is re-scored serially, so a secondary failure
    # here has nothing left to corrupt.
    except Exception:  # repro-lint: disable=RPL105
        pass
    # shutdown(wait=False) leaves stuck workers running (and their
    # eventual join at interpreter exit hanging); terminate them.
    procs = getattr(pool, "_processes", None) or {}
    for proc in list(procs.values()):
        try:
            proc.terminate()
        # Best-effort: the process may already be dead/reaped.
        except Exception:  # repro-lint: disable=RPL105
            pass


def _run_pool(
    profile: QueryProfile | StripedProfile,
    groups: list[PackedGroup],
    gaps: GapPenalty,
    workers: int,
    policy: FaultPolicy,
    instr: AnyInstrumentation,
    clock: DeadlineClock,
    results: dict[int, np.ndarray],
    pending: list[int],
    sink: Callable[[int, np.ndarray], None] | None = None,
    store: DatabaseStore | None = None,
) -> list[np.ndarray]:
    n = len(groups)
    serial_group_indices: set[int] = set()
    pool: ProcessPoolExecutor | None = None
    dirty = False  # abandoned futures / broken pool: cannot shut down cleanly
    try:
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        chunk = policy.chunksize or auto_chunksize(len(pending), workers)
        tasks = _cut_tasks(
            {gi: group_cost(groups[gi], profile.length) for gi in pending},
            chunk,
        )
        attempts = dict.fromkeys(range(len(tasks)), 0)
        rng = random.Random(policy.seed)
        live_pool = ProcessPoolExecutor(
            max_workers=min(workers, len(tasks)),
            initializer=_init_worker,
            initargs=(
                profile.query_codes, profile.matrix, gaps, policy.inject,
                instr.mode,
                str(store.path) if store is not None else None,
                store.fingerprint if store is not None else None,
            ),
        )
        pool = live_pool

        in_flight: dict = {}  # future -> (task_id, submitted_at)
        retry_queue: list[tuple[float, int]] = []  # (ready_at, task_id)
        pool_alive = True

        def submit(tid: int) -> None:
            attempts[tid] += 1
            payload: list[tuple[int, PackedGroup | StoreGroupRef]]
            if store is not None:
                payload = [
                    (gi, StoreGroupRef.of(groups[gi])) for gi in tasks[tid]
                ]
                instr.count(
                    "engine.dbstore.pool_group_refs", len(tasks[tid])
                )
            else:
                payload = [(gi, groups[gi]) for gi in tasks[tid]]
            in_flight[live_pool.submit(_score_chunk_task, payload)] = (
                tid,
                time.monotonic(),
            )

        def schedule_retry(tid: int) -> None:
            if attempts[tid] > policy.retries:
                instr.count("engine.executor.tasks_exhausted", 1)
                serial_group_indices.update(tasks[tid])
            else:
                delay = policy.retry_delay(attempts[tid] + 1, rng)
                if instr.enabled:
                    instr.observe(
                        "engine.executor.retry_delay_seconds", delay
                    )
                retry_queue.append((time.monotonic() + delay, tid))

        def pool_broke(extra_tids: list[int]) -> None:
            nonlocal pool_alive
            if pool_alive:
                instr.count("engine.executor.worker_crashes", 1)
            pool_alive = False
            for tid in extra_tids:
                serial_group_indices.update(tasks[tid])
            for tid, _sub in in_flight.values():
                serial_group_indices.update(tasks[tid])
            in_flight.clear()
            for _ready, tid in retry_queue:
                serial_group_indices.update(tasks[tid])
            retry_queue.clear()

        def accept(tid: int, fut: Future) -> bool:
            """Take one finished task's outcome: keep valid scores,
            schedule a retry otherwise.  False when the task died with
            the pool."""
            try:
                chunk_result = fut.result()
            except BrokenProcessPool:
                return False
            except Exception:
                instr.count("engine.executor.task_errors", 1)
                schedule_retry(tid)
                return True
            if not _valid_chunk(chunk_result, tasks[tid], groups):
                instr.count("engine.executor.garbage_results", 1)
                schedule_retry(tid)
                return True
            chunk_scores, telemetry = chunk_result
            for gi, arr in zip(tasks[tid], chunk_scores):
                results[gi] = arr.astype(np.int64, copy=False)
                if sink is not None:
                    sink(gi, results[gi])
            instr.count("engine.executor.worker_round_trips", 1)
            instr.count(
                "engine.executor.pool_completed_groups", len(tasks[tid])
            )
            # The chunk ran under its own worker-side session; fold the
            # shipped snapshot in (counters and histograms into the
            # shared registries, spans into the worker's pid lane).
            # Only accepted chunks merge, so totals stay bit-identical
            # to serial.
            if telemetry is not None and instr.enabled:
                instr.merge_worker(telemetry)
            return True

        with instr.span("sweep_parallel"):
            instr.count("engine.executor.tasks_submitted", len(tasks))
            for tid in range(len(tasks)):
                submit(tid)
            while in_flight or retry_queue:
                now = time.monotonic()
                if clock.expired():
                    dirty = True
                    _raise_deadline(instr, clock, results, n)
                # Launch retries whose backoff has elapsed.
                due = [t for t in retry_queue if t[0] <= now]
                if due:
                    retry_queue[:] = [t for t in retry_queue if t[0] > now]
                    for _ready, tid in due:
                        instr.count("engine.executor.retries", 1)
                        submit(tid)
                if not in_flight:
                    # Only backoff waits remain: nap until the earliest.
                    naps = [r - now for r, _ in retry_queue]
                    rem = clock.remaining()
                    if rem is not None:
                        naps.append(rem)
                    nap = max(0.0, min(naps)) if naps else 0.0
                    if nap > 0:
                        time.sleep(min(nap, 0.05))
                    continue
                waits = []
                if policy.timeout is not None:
                    waits.append(
                        min(sub for _t, sub in in_flight.values())
                        + policy.timeout
                        - now
                    )
                if retry_queue:
                    waits.append(min(r for r, _ in retry_queue) - now)
                rem = clock.remaining()
                if rem is not None:
                    waits.append(rem)
                wait_timeout = (
                    max(0.0, min(waits)) + 0.005 if waits else None
                )
                done, _ = wait(
                    set(in_flight),
                    timeout=wait_timeout,
                    return_when=FIRST_COMPLETED,
                )
                # Harvest every finished task before acting on a broken
                # pool: a future that completed alongside the one that
                # saw the pool die already holds its scores.
                broken = []
                for fut in done:
                    tid, _sub = in_flight.pop(fut)
                    if not accept(tid, fut):
                        broken.append(tid)
                if broken:
                    dirty = True
                    pool_broke(broken)
                # Abandon tasks that outran the per-task timeout.  A
                # running task cannot be cancelled, so its worker stays
                # busy until it finishes on its own or the pool is torn
                # down — the retry (or eventual serial recompute)
                # produces the score either way.
                if pool_alive and policy.timeout is not None:
                    now = time.monotonic()
                    for fut in [
                        f
                        for f, (_t, sub) in in_flight.items()
                        if now - sub >= policy.timeout
                    ]:
                        tid, _sub = in_flight.pop(fut)
                        fut.cancel()
                        dirty = True
                        instr.count("engine.executor.timeouts", 1)
                        schedule_retry(tid)
    except SearchDeadlineExceeded:
        # TimeoutError subclasses OSError; never mistake the deadline
        # for an unusable-multiprocessing environment.
        raise
    except (ImportError, OSError, PermissionError, RuntimeError):
        # No usable multiprocessing in this environment: everything
        # not already scored goes serial.
        instr.count("engine.executor.pool_fallbacks", 1)
        serial_group_indices.update(
            i for i in range(n) if i not in results
        )
        dirty = True
    finally:
        if pool is not None:
            if dirty:
                _abandon_pool(pool)
            else:
                pool.shutdown(wait=True)

    missing = sorted(
        set(serial_group_indices) | (set(range(n)) - results.keys())
    )
    missing = [i for i in missing if i not in results]
    if missing:
        instr.count("engine.executor.serial_retry_groups", len(missing))
        _score_serial(
            profile, groups, gaps, instr, clock, results,
            span_name="serial_retry", indices=missing, sink=sink,
        )
    return [results[i] for i in range(n)]
