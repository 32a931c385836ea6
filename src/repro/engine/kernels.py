"""The lane-kernel table: one record per per-group score kernel.

Every packed group is swept by exactly one lane kernel, named by the
:attr:`~repro.engine.pack.PackedGroup.lane_engine` it is stamped with
at pack time: ``gotoh`` (the row sweep of :mod:`repro.engine.lanes`),
``striped`` (the Farrar column sweep of :mod:`repro.engine.striped`) or
``strips`` (the long-tail strip sweep of :mod:`repro.engine.strips`).
Everything that differs between the kernels — the query-profile
flavour, the score function, how groups are packed, the memory one
sweep needs, what a sweep costs and how a checkpoint fingerprints a
group — lives in the kernel's :class:`LaneKernel` record, so the
executor and :class:`~repro.engine.BatchedEngine` look the record up
instead of branching on the name.

Each record's ``cost`` is the one sweep-cost model of the engine: the
hetero split tuner (:func:`~repro.app.threshold.tune_split_threshold`)
prices candidate splits with it and the pool dispatcher
(:func:`~repro.engine.executor.run_groups`) orders its tasks by it,
so the two cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.alphabet import GapPenalty
from repro.engine.budget import estimate_group_bytes, estimate_strip_group_bytes
from repro.engine.lanes import score_packed_group
from repro.engine.pack import (
    DEFAULT_STRIP_WIDTH,
    TAIL_EFFICIENCY_FLOOR,
    PackedGroup,
    strip_cells,
)
from repro.engine.striped import score_packed_group_striped
from repro.engine.strips import score_packed_group_strips
from repro.sequence.profile import QueryProfile
from repro.sequence.striped_profile import StripedProfile

__all__ = [
    "LANE_KERNELS",
    "STRIPED_COLUMN_OVERHEAD",
    "STRIP_CELL_COST",
    "LaneKernel",
    "group_cost",
]

#: Modeled cost of one strip-swept cell relative to one striped
#: bulk-swept cell.  Calibrated against the bimodal throughput
#: benchmark: the strip engine pays more vectorized ops per cell than
#: the Farrar sweep (two prefix scans and the cross-strip carry per
#: row), but amortizes its Python row loop over every tail sequence at
#: once, so the measured per-cell ratio stays modest.
STRIP_CELL_COST = 1.6

#: Fixed overhead of one striped column iteration, in lane-equivalents.
#: The Farrar sweep's Python loop advances one database column per
#: iteration regardless of how many lanes the group holds, so a sparse
#: long-tail group (few lanes, thousands of columns) pays the
#: per-iteration interpreter/ufunc cost across very little useful work
#: — the effect the bimodal benchmark shows as striped's collapse on
#: the tail.  A full ``group_size``-lane bulk group amortizes the same
#: overhead over every lane, which is why the bulk side stays cheap.
STRIPED_COLUMN_OVERHEAD = 12.0


@dataclass(frozen=True)
class LaneKernel:
    """Everything the engine needs to know about one lane kernel.

    Attributes
    ----------
    name:
        The kernel's name, as stamped on the groups it sweeps.
    profile:
        Query-profile flavour the kernel sweeps with, built as
        ``profile(query_codes, matrix)``.
    score:
        ``score(profile, group, gaps)``: the group's ``int64`` lane
        scores, bit-identical to :func:`~repro.sw.scalar.sw_score_scalar`.
    plan_kind:
        Which stored ``.rdb`` geometry the kernel's groups reuse
        (:meth:`~repro.engine.dbstore.DatabaseStore.plan_for`).
    tail_floor:
        Gap-split efficiency floor the kernel's groups are packed with
        (:func:`~repro.engine.pack.plan_chunks`).  A row sweep costs
        one step per padded cell, so splitting a degenerate tail group
        pays; a column sweep costs one step per database column, which
        a split only multiplies.
    working_set:
        Estimated peak bytes of sweeping one group.
    cost:
        ``cost(lengths, strip_width)``: the modeled sweep cost of one
        group with these member lengths, in striped-cell units (only
        ``strips`` reads the strip width; ``None`` is the default).
    token:
        The group's checkpoint fingerprint token.
    """

    name: str
    profile: type[QueryProfile] | type[StripedProfile]
    score: Callable[[Any, PackedGroup, GapPenalty], np.ndarray]
    plan_kind: str
    tail_floor: float
    working_set: Callable[[PackedGroup], int]
    cost: Callable[[np.ndarray, int | None], float]
    token: Callable[[PackedGroup], str]


def _rectangle_bytes(group: PackedGroup) -> int:
    """Working set of a sweep over the packed ``size x max_len`` block."""
    return estimate_group_bytes(group.size, group.max_length)


def _strip_bytes(group: PackedGroup) -> int:
    """Working set of a sweep over the ``(strips, width)`` re-tiling."""
    return estimate_strip_group_bytes(group.sweep_cells)


def _rectangle_cost(
    lengths: np.ndarray, strip_width: int | None = None
) -> float:
    """A row sweep steps through every cell of the padded
    ``lanes x max_len`` rectangle."""
    return float(lengths.size * int(lengths.max()))


def _column_cost(
    lengths: np.ndarray, strip_width: int | None = None
) -> float:
    """A column sweep runs one iteration per database column, each
    costing the group's lanes plus the fixed per-iteration overhead."""
    return float(int(lengths.max())) * (
        lengths.size + STRIPED_COLUMN_OVERHEAD
    )


def _strip_cost(
    lengths: np.ndarray, strip_width: int | None = None
) -> float:
    """A strip sweep costs ``STRIP_CELL_COST`` per strip-swept cell."""
    return float(strip_cells(lengths, strip_width)) * STRIP_CELL_COST


def _strips_token(group: PackedGroup) -> str:
    """Strip groups fingerprint their width: a journal written at one
    width must not resume at another."""
    return f"strips:{group.strip_width or DEFAULT_STRIP_WIDTH}"


#: The lane kernels by name.
LANE_KERNELS: dict[str, LaneKernel] = {
    kernel.name: kernel
    for kernel in (
        LaneKernel(
            "gotoh", QueryProfile, score_packed_group,
            "row", TAIL_EFFICIENCY_FLOOR, _rectangle_bytes,
            _rectangle_cost, lambda group: "gotoh",
        ),
        LaneKernel(
            "striped", StripedProfile, score_packed_group_striped,
            "column", 0.0, _rectangle_bytes,
            _column_cost, lambda group: "striped",
        ),
        LaneKernel(
            "strips", QueryProfile, score_packed_group_strips,
            "column", 0.0, _strip_bytes, _strip_cost, _strips_token,
        ),
    )
}


def group_cost(group: PackedGroup) -> float:
    """The modeled sweep cost of one packed group under its kernel."""
    return LANE_KERNELS[group.lane_engine].cost(
        group.lengths, group.strip_width
    )
