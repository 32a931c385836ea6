"""Fixed-bucket histograms — the distributional half of the registry.

Counters collapse a run to totals; the paper's load-balance argument
(Figure 2) and the partition/balance designs of SWAPHI and SaLoBa rest
on *distributions* — per-partition runtime spread, workload-balance
histograms.  :class:`Histogram` records exactly that shape of data on
the hot paths: per-group sweep seconds, cells per group, padding
efficiency, lazy-F correction rounds, retry backoff delays.

Buckets are fixed per metric name (:data:`BUCKET_SCHEMES`), which makes
histograms **mergeable**: two histograms over the same boundaries merge
by adding bucket counts — the property that lets worker processes ship
their histograms back with each chunk result and the parent fold them
into one distribution (see ``repro.engine.executor``).

Observations are floats; each lands in the first bucket whose upper
boundary is ``>= value`` (the last bucket is an implicit ``+Inf``
overflow).  ``p50``/``p95`` interpolate linearly inside the landing
bucket — exact enough for profiling, cheap enough for hot paths.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Any, Iterator, Mapping, Sequence

__all__ = [
    "BUCKET_SCHEMES",
    "DEFAULT_BUCKETS",
    "Histogram",
    "HistogramRegistry",
    "bucket_scheme",
]

#: Fallback boundaries for names without a dedicated scheme: a decade
#: ladder wide enough to shape most positive measurements.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1_000.0, 10_000.0,
)

#: Upper bucket boundaries per registered histogram name.  Every scheme
#: is strictly increasing and finite; the overflow (``+Inf``) bucket is
#: implicit.  Schemes are part of the observability contract (see the
#: registry appendix in ``docs/observability.md``): changing one changes
#: every exported ``le`` label.
BUCKET_SCHEMES: dict[str, tuple[float, ...]] = {
    # Wall time of one group sweep (serial or worker-side).
    "engine.sweep.group_seconds": (
        0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
        0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    ),
    # Padded cells per packed group (group_size x max_length).
    "engine.pack.group_cells": (
        1e3, 1e4, 5e4, 1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7, 1e8,
    ),
    # Per-group padding efficiency — Figure 2's load-balance quantity.
    "engine.pack.group_efficiency": (
        0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0,
    ),
    # Corrective lazy-F rounds per striped group (0 for most groups).
    "engine.striped.lazy_f_rounds": (
        0.0, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1_000.0,
    ),
    # Backoff delay before a pool task retry (FaultPolicy.retry_delay).
    "engine.executor.retry_delay_seconds": (
        0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    ),
    # Wall time to build an .rdb store (dominated by FASTA streaming +
    # fingerprint hashing; scales with database residues).
    "engine.dbstore.build_seconds": (
        0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
        2.5, 5.0, 10.0, 30.0, 60.0, 300.0,
    ),
    # Startup latency: wall time of one open_database() call.  The fast
    # tier is O(index) — sub-millisecond for small stores, low
    # milliseconds for multi-million-sequence indexes — while the deep
    # tier CRC-walks the residue blob, so the ladder spans sub-ms
    # mmap-only opens through multi-second deep verifies.
    "engine.dbstore.open_seconds": (
        0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
        0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
    ),
}


def bucket_scheme(name: str) -> tuple[float, ...]:
    """The bucket boundaries for ``name`` (the registered scheme, or
    :data:`DEFAULT_BUCKETS` for unregistered names)."""
    return BUCKET_SCHEMES.get(name, DEFAULT_BUCKETS)


class Histogram:
    """One named fixed-bucket histogram.

    ``bounds`` are the strictly increasing, finite upper boundaries;
    bucket ``i`` counts observations ``<= bounds[i]`` (and above
    ``bounds[i-1]``), with one extra implicit overflow bucket for
    values past the last boundary.  Thread-safe; merge requires
    identical boundaries.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "sum",
                 "max", "_lock")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        if not name:
            raise ValueError("histogram name cannot be empty")
        bounds_t = tuple(float(b) for b in bounds)
        if not bounds_t:
            raise ValueError(f"histogram {name!r} needs >= 1 boundary")
        for lo, hi in zip(bounds_t, bounds_t[1:]):
            if not lo < hi:
                raise ValueError(
                    f"histogram {name!r} boundaries must be strictly "
                    f"increasing, got {bounds_t}"
                )
        if not all(math.isfinite(b) for b in bounds_t):
            raise ValueError(
                f"histogram {name!r} boundaries must be finite "
                f"(the +Inf bucket is implicit)"
            )
        self.name = name
        self.bounds = bounds_t
        self.bucket_counts = [0] * (len(bounds_t) + 1)
        self.count = 0
        self.sum = 0.0
        self.max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        idx = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self.bucket_counts[idx] += 1
            self.count += 1
            self.sum += value
            if value > self.max:
                self.max = value

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram over identical boundaries into this
        one (how worker-process distributions reach the parent)."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histogram {other.name!r} "
                f"(bounds {other.bounds}) into {self.name!r} "
                f"(bounds {self.bounds}): boundaries differ"
            )
        with other._lock:
            counts = list(other.bucket_counts)
            o_count, o_sum, o_max = other.count, other.sum, other.max
        with self._lock:
            for i, c in enumerate(counts):
                self.bucket_counts[i] += c
            self.count += o_count
            self.sum += o_sum
            if o_max > self.max:
                self.max = o_max

    # -- summaries ------------------------------------------------------
    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (linear interpolation inside the
        landing bucket; observations in the overflow bucket report the
        recorded maximum).  ``nan`` when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            counts = list(self.bucket_counts)
            total = self.count
            observed_max = self.max
        if total == 0:
            return math.nan
        rank = q * total
        cumulative = 0.0
        for i, c in enumerate(counts):
            if c == 0:
                continue
            if cumulative + c >= rank:
                if i == len(self.bounds):  # overflow bucket
                    return observed_max
                lo = 0.0 if i == 0 else self.bounds[i - 1]
                hi = self.bounds[i]
                frac = (rank - cumulative) / c
                return lo + (hi - lo) * frac
            cumulative += c
        return observed_max

    @property
    def p50(self) -> float:
        return self.quantile(0.5)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    # -- serialization --------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """Picklable/JSON-able snapshot (``from_dict`` round-trips it)."""
        with self._lock:
            return {
                "bounds": list(self.bounds),
                "bucket_counts": list(self.bucket_counts),
                "count": self.count,
                "sum": self.sum,
                "max": self.max if self.count else None,
            }

    @classmethod
    def from_dict(cls, name: str, data: Mapping[str, Any]) -> "Histogram":
        hist = cls(name, tuple(data["bounds"]))
        counts = list(data["bucket_counts"])
        if len(counts) != len(hist.bucket_counts):
            raise ValueError(
                f"histogram {name!r} snapshot has {len(counts)} buckets, "
                f"expected {len(hist.bucket_counts)}"
            )
        hist.bucket_counts = [int(c) for c in counts]
        hist.count = int(data["count"])
        hist.sum = float(data["sum"])
        raw_max = data.get("max")
        hist.max = -math.inf if raw_max is None else float(raw_max)
        return hist


class HistogramRegistry:
    """Thread-safe map of histogram names to :class:`Histogram`.

    ``observe(name, value)`` creates the histogram on first use with
    the boundaries :func:`bucket_scheme` assigns to the name, so call
    sites stay one-liners and every process agrees on the buckets.
    """

    __slots__ = ("_histograms", "_lock")

    def __init__(self) -> None:
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def observe(self, name: str, value: float) -> None:
        self._get_or_create(name).observe(value)

    def _get_or_create(self, name: str) -> Histogram:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram(
                    name, bucket_scheme(name)
                )
            return hist

    def get(self, name: str) -> Histogram | None:
        with self._lock:
            return self._histograms.get(name)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._histograms

    def __len__(self) -> int:
        with self._lock:
            return len(self._histograms)

    def __iter__(self) -> Iterator[str]:
        with self._lock:
            return iter(sorted(self._histograms))

    def merge(self, other: "HistogramRegistry") -> None:
        """Fold another registry's histograms into this one."""
        with other._lock:
            items = list(other._histograms.items())
        for name, hist in items:
            self._get_or_create(name).merge(hist)

    def merge_dicts(self, snapshots: Mapping[str, Mapping[str, Any]]) -> None:
        """Fold serialized histogram snapshots (the cross-process wire
        format of :meth:`Histogram.as_dict`) into this registry."""
        for name, data in snapshots.items():
            self._get_or_create(name).merge(Histogram.from_dict(name, data))

    def as_dict(self) -> dict[str, dict[str, Any]]:
        """Snapshot of every histogram, sorted by name."""
        with self._lock:
            items = sorted(self._histograms.items())
        return {name: hist.as_dict() for name, hist in items}
