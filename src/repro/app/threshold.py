"""Automatic dispatch-threshold selection (Section VI).

The paper closes by proposing to detect the optimal inter/intra threshold
during database preprocessing: "characterize the relative performance of
the inter-task and intra-task kernels based on the mean and maximum
lengths of a given group of sequences ... find the transition point where
the intra-task kernel will outperform the inter-task kernel".  With the
cost model in hand this is direct: sweep candidate thresholds, model the
end-to-end time of each, pick the best.  The TAIR experiment of Section IV
(threshold 3072 -> 1500 gains ~4 GCUPs with the improved kernel) is the
validation case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.app.cudasw import CudaSW
from repro.engine.dbstore import DatabaseStore
from repro.engine.kernels import LANE_KERNELS
from repro.engine.pack import DEFAULT_STRIP_WIDTH, plan_chunks
from repro.sequence.database import Database

__all__ = [
    "ThresholdPoint",
    "optimal_threshold",
    "threshold_sweep",
    "tune_split_threshold",
]


@dataclass(frozen=True)
class ThresholdPoint:
    """One candidate threshold's modeled outcome."""

    threshold: int
    fraction_over: float
    gcups: float
    total_time: float
    intra_time_fraction: float


def _downsample(values: np.ndarray, limit: int) -> np.ndarray:
    """Evenly thin a sorted array to at most ``limit`` entries, always
    keeping the first and last."""
    if values.size <= limit:
        return values
    idx = np.unique(
        np.linspace(0, values.size - 1, num=limit).astype(np.int64)
    )
    return values[idx]


def _candidate_thresholds(
    db: Database, lo: int, hi: int, max_candidates: int
) -> list[int]:
    """Candidate thresholds that each produce a *distinct* partition.

    A threshold only changes the inter/intra split when it crosses a
    length actually present in the database, so candidates are the
    deduplicated sorted sequence lengths (the packed-group boundary
    values) clipped to ``[lo, hi]`` — not a fixed ``linspace`` grid,
    which could place several candidates between two identical
    partitions and let :func:`optimal_threshold` return an arbitrary
    one of them.
    """
    lengths = np.unique(db.lengths)
    lo = max(lo, int(lengths.min()) + 1)
    hi = min(hi, int(lengths.max()))
    if hi <= lo:
        return [max(lo, 2)]
    boundaries = lengths[(lengths >= lo) & (lengths <= hi)]
    if boundaries.size == 0:
        return [max(lo, 2)]
    return [int(t) for t in _downsample(boundaries, max_candidates)]


def threshold_sweep(
    app: CudaSW,
    query_length: int,
    db: Database,
    *,
    lo: int = 256,
    hi: int = 8192,
    max_candidates: int = 24,
) -> list[ThresholdPoint]:
    """Model the search at a grid of candidate thresholds.

    Returns one :class:`ThresholdPoint` per candidate, in threshold order.
    The sweep re-uses ``app``'s device/kernel configuration and only varies
    the threshold.
    """
    points = []
    for t in _candidate_thresholds(db, lo, hi, max_candidates):
        candidate = CudaSW(
            app.device,
            intra_kernel=app.intra_kernel,
            threshold=t,
            matrix=app.matrix,
            gaps=app.gaps,
            calibration=app.cost.calibration,
            cache_enabled=app.cost.cache.enabled,
            streaming_copy=app.transfer.streaming,
        )
        report = candidate.predict(query_length, db)
        points.append(
            ThresholdPoint(
                threshold=t,
                fraction_over=report.fraction_over_threshold,
                gcups=report.gcups,
                total_time=report.total_time,
                intra_time_fraction=report.intra_time_fraction,
            )
        )
    return points


def optimal_threshold(
    app: CudaSW,
    query_length: int,
    db: Database,
    *,
    lo: int = 256,
    hi: int = 8192,
    max_candidates: int = 24,
) -> ThresholdPoint:
    """The candidate threshold with the best modeled GCUPs."""
    points = threshold_sweep(
        app, query_length, db, lo=lo, hi=hi, max_candidates=max_candidates
    )
    return max(points, key=lambda p: p.gcups)


def tune_split_threshold(
    lengths: np.ndarray | DatabaseStore,
    *,
    group_size: int,
    strip_width: int = DEFAULT_STRIP_WIDTH,
    max_candidates: int = 64,
) -> int:
    """Pick the heterogeneous-dispatch length threshold for a database.

    Models exactly the quantities the ``engine.pack.*`` counters report
    for each candidate split: sequences at or under the threshold pack
    into bulk groups via the same :func:`~repro.engine.pack.plan_chunks`
    geometry the packer uses, each group priced by the ``striped``
    kernel's :attr:`~repro.engine.kernels.LaneKernel.cost` —
    ``max_len x (lanes + STRIPED_COLUMN_OVERHEAD)``, its padded
    rectangle plus the striped sweep's fixed per-column iteration cost,
    which is what sinks sparse long-tail groups; longer sequences are
    priced by the ``strips`` kernel's cost, ``STRIP_CELL_COST`` per
    strip-swept cell
    (``ceil(len / strip_width) * strip_width`` each).  The pool
    dispatcher orders its tasks with the same functions, so the split
    model and the dispatch order cannot drift.  The candidate set
    is the deduplicated sequence lengths plus 0 (all-strips) — every
    distinct partition, nothing between two identical ones — and the
    cheapest modeled split wins, preferring the larger threshold on
    ties.  Pure geometry: no packing, no scoring, O(candidates x
    groups).

    ``lengths`` may be an opened
    :class:`~repro.engine.dbstore.DatabaseStore`: the tuner then reads
    the store's *index* lengths — small in-memory arrays loaded at open
    — so auto-thresholding a memmapped multi-gigabyte database costs
    O(index), never faulting the residue blob in.
    """
    if isinstance(lengths, DatabaseStore):
        lengths = lengths.lengths
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.size == 0:
        return 0
    sorted_lengths = np.sort(lengths)
    distinct = np.unique(sorted_lengths)
    candidates = [0, *(int(t) for t in _downsample(distinct, max_candidates))]
    bulk_cost = LANE_KERNELS["striped"].cost
    tail_cost = LANE_KERNELS["strips"].cost
    best_t = 0
    best_cost: float | None = None
    for t in candidates:
        n_bulk = int(np.searchsorted(sorted_lengths, t, side="right"))
        bulk = sorted_lengths[:n_bulk]
        tail = sorted_lengths[n_bulk:]
        cost = 0.0
        # tail_floor=0.0 mirrors pack_database_hetero's bulk side: the
        # striped bulk groups are never gap-split.
        for start, end in plan_chunks(bulk, group_size, tail_floor=0.0).ranges:
            cost += bulk_cost(bulk[start:end], None)
        if tail.size:
            # Strip cost is additive over sequences, so the whole tail
            # prices as one lump whatever its group split.
            cost += tail_cost(tail, strip_width)
        if best_cost is None or cost < best_cost or (
            cost == best_cost and t > best_t
        ):
            best_t, best_cost = t, cost
    return best_t
