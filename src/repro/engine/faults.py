"""Fault-tolerance policy for the group executor.

The paper's whole-application speedup assumes every dispatched work
unit completes: one stalled SIMT lane stalls its kernel launch.  The
functional executor has the same exposure — a hung worker process used
to hang :func:`~repro.engine.executor.run_groups` forever, and a dead
one discarded every completed group score.  Production SW engines
(SWAPHI's multi-device dispatcher, the SSW library's API contract)
degrade and report instead of crashing or hanging; this module is that
policy layer:

* :class:`FaultPolicy` — per-task timeout, bounded retry with
  exponential backoff + seeded jitter, a whole-search deadline, and a
  dispatch chunk size;
* :class:`SearchDeadlineExceeded` — the typed deadline error, carrying
  every group score completed before the deadline fired;
* :class:`InjectionPlan` — a deterministic fault injector (crash /
  hang / garbage on chosen tasks) that runs *inside worker processes*,
  so every degradation path is unit-testable without flaky
  timing-dependent tests.

The executor consumes the policy; nothing here imports multiprocessing.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DEFAULT_POLICY",
    "DeadlineClock",
    "FaultPolicy",
    "InjectionPlan",
    "SearchDeadlineExceeded",
    "auto_chunksize",
]


@dataclass(frozen=True)
class InjectionPlan:
    """Deterministic faults injected into pool workers, for testing.

    The plan ships to every worker through the pool initializer and is
    consulted once per group task.  All triggers are deterministic
    functions of the group index or of the worker's own completed-task
    count — no randomness, no wall-clock races — so degradation tests
    assert exact outcomes.  Injection never applies to the serial path:
    a group that always fails in the pool still completes correctly in
    the serial retry, which is exactly the recovery property under test.

    Attributes
    ----------
    crash_after:
        A worker process calls ``os._exit`` (simulating a segfault /
        OOM-kill) when it has already completed this many group tasks
        and receives another.  ``None`` disables.
    crash_groups:
        Group indices whose task always kills its worker.
    hang_groups:
        Group indices whose task sleeps ``hang_seconds`` before
        returning (simulating a wedged device / livelocked worker).
    hang_seconds:
        Sleep length for ``hang_groups``; keep it comfortably above the
        policy timeout but finite, so an abandoned worker that escapes
        termination still exits on its own.
    garbage_groups:
        Group indices whose task returns a wrong-shaped array
        (simulating a corrupted result buffer).
    """

    crash_after: int | None = None
    crash_groups: tuple[int, ...] = ()
    hang_groups: tuple[int, ...] = ()
    hang_seconds: float = 30.0
    garbage_groups: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.crash_after is not None and self.crash_after < 0:
            raise ValueError("crash_after must be >= 0 or None")
        if self.hang_seconds <= 0:
            raise ValueError("hang_seconds must be positive")

    def apply(self, group_index: int, tasks_done: int) -> bool:
        """Run the injected fault for one group task, worker-side.

        Returns ``True`` when the task must return garbage instead of a
        real score vector.  Crash triggers do not return.
        """
        if self.crash_after is not None and tasks_done >= self.crash_after:
            os._exit(13)
        if group_index in self.crash_groups:
            os._exit(13)
        if group_index in self.hang_groups:
            time.sleep(self.hang_seconds)
        return group_index in self.garbage_groups


@dataclass(frozen=True)
class FaultPolicy:
    """How a search tolerates slow, dead and lying workers.

    Attributes
    ----------
    timeout:
        Seconds a dispatched pool task may run (queue wait included)
        before it is abandoned and retried.  ``None`` (default) never
        times tasks out.  Applies to the pool path only — a serial
        NumPy sweep cannot be preempted mid-group.
    retries:
        Extra pool attempts per task after its first failure (timeout,
        crash, garbage or raised exception).  A task that exhausts its
        retries is recomputed serially, injection-free, so scores are
        produced unless the deadline fires first.
    deadline:
        Whole-search wall-clock budget in seconds.  When exceeded, the
        executor abandons all outstanding work and raises
        :class:`SearchDeadlineExceeded` carrying everything completed
        so far.  ``None`` (default) never expires.  Honored by both the
        pool and serial paths (the serial path checks between groups).
    backoff:
        Base delay in seconds before the first retry of a task.
    backoff_multiplier:
        Growth factor per successive retry of the same task.
    jitter:
        Uniform-random fraction added on top of each delay
        (``delay * [0, jitter)``), decorrelating retry storms.  Drawn
        from a :class:`random.Random` seeded with ``seed``, so retry
        schedules are reproducible.
    seed:
        Seed for the jitter stream.
    chunksize:
        Most groups dispatched per pool task: the pending groups make
        ``ceil(n_groups / chunksize)`` tasks, cut heaviest-first by
        modeled sweep cost (:func:`~repro.engine.executor.run_groups`).
        ``None`` (default) picks
        ``max(1, n_groups // (workers * 4))`` — large enough to
        amortize the per-task round trip over thousands of tiny
        groups, small enough that every worker stays busy and a
        failure loses little.  Retry/recovery granularity is the
        chunk; set ``1`` for strict per-group recovery.
    inject:
        Optional :class:`InjectionPlan` for deterministic fault
        testing.  Never applied on serial paths.
    """

    timeout: float | None = None
    retries: int = 2
    deadline: float | None = None
    backoff: float = 0.05
    backoff_multiplier: float = 2.0
    jitter: float = 0.1
    seed: int = 0
    chunksize: int | None = None
    inject: InjectionPlan | None = None

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive or None")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive or None")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")
        if self.chunksize is not None and self.chunksize <= 0:
            raise ValueError("chunksize must be positive or None")

    def retry_delay(self, attempt: int, rng: random.Random) -> float:
        """Seconds to hold a task back before pool attempt ``attempt``
        (the first retry is attempt 2)."""
        if attempt < 2:
            return 0.0
        base = self.backoff * self.backoff_multiplier ** (attempt - 2)
        if self.jitter:
            base *= 1.0 + self.jitter * rng.random()
        return base


#: The executor's default: no timeout, no deadline, two pool retries
#: then serial recompute — always terminates, always returns scores.
DEFAULT_POLICY = FaultPolicy()


def auto_chunksize(n_groups: int, workers: int) -> int:
    """Groups per pool task when the policy does not pin one.

    ``pool.map``'s old default of one group per round trip serialized
    thousands of submissions for tiny groups; aiming for ~4 chunks per
    worker amortizes the round trips while keeping enough tasks in
    flight that stragglers rebalance and a lost task loses little.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if n_groups < 0:
        raise ValueError(f"n_groups must be >= 0, got {n_groups}")
    return max(1, n_groups // (workers * 4))


class DeadlineClock:
    """Monotonic countdown for one search's wall-clock budget."""

    __slots__ = ("deadline", "_start")

    def __init__(self, deadline: float | None) -> None:
        self.deadline = deadline
        self._start = time.monotonic()

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self._start

    def remaining(self) -> float | None:
        """Seconds left, or ``None`` when no deadline is set."""
        if self.deadline is None:
            return None
        return self.deadline - self.elapsed

    def expired(self) -> bool:
        r = self.remaining()
        return r is not None and r <= 0


@dataclass
class SearchDeadlineExceeded(TimeoutError):
    """A search's wall-clock deadline fired with work still pending.

    Everything completed before the deadline is attached, so callers
    can use the partial ranking or resubmit only the missing groups.

    Attributes
    ----------
    deadline, elapsed:
        The configured budget and the wall time actually spent.
    partial:
        Completed per-group score vectors, keyed by group index.
    pending:
        Indices of the groups still unscored when the deadline fired.
    partial_scores, completed_mask:
        Filled by :meth:`repro.engine.BatchedEngine.search` before
        re-raising: scores scattered to database order (unscored
        entries hold ``-1``) and the matching validity mask.
    """

    deadline: float
    elapsed: float
    partial: dict[int, np.ndarray] = field(default_factory=dict)
    pending: tuple[int, ...] = ()
    partial_scores: np.ndarray | None = None
    completed_mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        super().__init__(str(self))

    def __str__(self) -> str:
        return (
            f"search deadline of {self.deadline:g}s exceeded after "
            f"{self.elapsed:.3f}s with {len(self.partial)} group(s) "
            f"completed and {len(self.pending)} pending"
        )
