"""Timing, sampling and child-process helpers shared by both passes."""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

#: Hard ceiling on one child process; a hung child fails the operation.
CHILD_TIMEOUT_S = 120.0

#: Quiet-host medians of the two reference probes on the machine the
#: benchmark was calibrated on (2-vCPU Intel Xeon VM, Python 3.11.7,
#: NumPy 2.4.6).  They only scale normalized times back to seconds;
#: what cancels host slowdowns is the probe's ratio to these values.
CHILD_PROBE_REF_S = 0.10
NUMPY_PROBE_REF_S = 0.021

#: The child probe's program: standard-library imports only, so nothing
#: in this repository can change its cost.
_STDLIB_IMPORTS = (
    "import json, decimal, email.mime.text, xml.dom.minidom, "
    "http.client, unittest, argparse, logging, asyncio"
)


@dataclass(frozen=True)
class Summary:
    """Median, quartiles and sample count of one measured quantity."""

    median: float
    q1: float
    q3: float
    n: int

    @classmethod
    def of(cls, values: Sequence[float]) -> "Summary":
        if not values:
            raise ValueError("cannot summarize zero samples")
        med = statistics.median(values)
        if len(values) < 2:
            return cls(med, med, med, len(values))
        q1, _, q3 = statistics.quantiles(values, n=4)
        return cls(med, q1, q3, len(values))

    def scaled(self, factor: float) -> "Summary":
        """The same summary in another unit (``factor`` > 0)."""
        return Summary(
            self.median * factor, self.q1 * factor, self.q3 * factor, self.n
        )

    def inverted(self, numerator: float) -> "Summary":
        """``numerator / x`` of every statistic: a rate from a duration."""
        return Summary(
            numerator / self.median,
            numerator / self.q3,
            numerator / self.q1,
            self.n,
        )


def sample(
    fn: Callable[[], object],
    *,
    min_n: int,
    budget_s: float,
    max_n: int = 1000,
) -> list[float]:
    """Time ``fn`` at least ``min_n`` times, then while the budget lasts.

    A further call starts only if the previous one's duration still
    fits in the remaining budget, so a slow layer never overshoots by
    more than one sample beyond ``min_n``.
    """
    times: list[float] = []
    spent = 0.0
    while len(times) < max_n:
        if len(times) >= min_n and (
            spent + (times[-1] if times else 0.0) > budget_s
        ):
            break
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
        spent += times[-1]
    return times


def child_probe() -> float:
    """Seconds for a fresh isolated interpreter to import a fixed set of
    standard-library modules: the reference for child processes, which
    pay interpreter start and module loading the same way."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-I", "-B", "-c", _STDLIB_IMPORTS], check=True,
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
    )
    return time.perf_counter() - started


class NumpyProbe:
    """A frozen miniature of the row sweep: 64 rows of the Gotoh scan
    recurrence over a fixed ``(128, 512)`` int32 lane matrix.  The
    reference for warm NumPy sweeps; it lives here, not in ``repro``, so
    no change to the program can move it."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.sub = rng.integers(-4, 12, size=(128, 512)).astype(np.int32)
        self.ramp = (2 * np.arange(513)).astype(np.int32)

    def __call__(self) -> float:
        started = time.perf_counter()
        h = np.zeros((128, 513), np.int32)
        f = np.full((128, 513), -1000, np.int32)
        tmp = np.empty_like(h)
        htmp = np.zeros_like(h)
        g = np.empty_like(h)
        for _ in range(64):
            np.subtract(f, 2, out=f)
            np.subtract(h, 12, out=tmp)
            np.maximum(f, tmp, out=f)
            np.add(h[:, :512], self.sub, out=htmp[:, 1:])
            np.maximum(htmp, f, out=htmp)
            np.maximum(htmp, 0, out=htmp)
            np.add(htmp, self.ramp, out=g)
            np.maximum.accumulate(g, axis=1, out=g)
            np.subtract(g, self.ramp, out=h)
            np.maximum(h, htmp, out=h)
        return time.perf_counter() - started


class HostClock:
    """Times samples of one kind, each corrected for host speed.

    A shared host slows everything by up to ~1.8x for tens of seconds at
    a time, longer than a run, so medians within a run cannot remove it.
    A fixed reference probe runs right before and after every sample;
    the sample is divided by the probes' mean over their quiet-host
    reference, which cancels those episodes while a change to the
    program still moves the sample and not the probe.  Consecutive
    samples share the probe between them; :meth:`interrupt` drops it
    when other work ran in between.
    """

    def __init__(self, probe: Callable[[], float], reference_s: float):
        self.probe = probe
        self.reference_s = reference_s
        self.factors: list[float] = []
        self._last: float | None = None

    def interrupt(self) -> None:
        self._last = None

    def measure(self, fn: Callable[[], T]) -> tuple[float, float, T]:
        """Run ``fn``; returns raw seconds, normalized seconds and its
        result."""
        before = self.probe() if self._last is None else self._last
        started = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - started
        self._last = self.probe()
        factor = (before + self._last) / (2 * self.reference_s)
        self.factors.append(factor)
        return raw, raw / factor, out


@dataclass(frozen=True)
class ChildRun:
    """Outcome of one child process."""

    seconds: float
    maxrss_mib: float
    returncode: int
    stderr: str


def _kill_group(pgid: int) -> None:
    """SIGKILL every process of a child's group; gone already is fine."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(
    argv: Sequence[str], *, env: dict[str, str], cwd: Path, workdir: Path
) -> ChildRun:
    """Run ``argv`` to completion; wall time and peak RSS via ``wait4``.

    ``wait4`` reports the child's own resource usage, so the peak RSS is
    that of the child (or of its largest reaped descendant), never of
    this harness.  A child that outlives :data:`CHILD_TIMEOUT_S` is
    killed together with its process group (its pool workers) and
    reported with its non-zero status.
    """
    err_path = workdir / f"child-{os.getpid()}.stderr"
    with open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), cwd=cwd, env=env, start_new_session=True,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        seconds = time.perf_counter() - started
    # wait4 reaped the child; tell Popen so it never waits again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")
    err_path.unlink()
    return ChildRun(
        seconds=seconds,
        maxrss_mib=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        returncode=proc.returncode,
        stderr=stderr,
    )


class Tally:
    """Attempted and failed operations of one run.

    A failure is a non-zero child exit, an exception inside a timed
    operation, or any score that differs from the reference.  The first
    few failure reasons are kept for the report.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)
        return ok
