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

The functional engine's split tuner, :func:`tune_split_threshold`, lives
with the lane kernels' fitted cost model in :mod:`repro.engine.kernels`
and is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.app.cudasw import CudaSW
from repro.engine.kernels import _downsample, tune_split_threshold
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
