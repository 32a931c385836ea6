"""The lane-kernel table, and the cost model that picks a group's kernel.

Every packed group is swept by exactly one lane kernel, named by the
:attr:`~repro.engine.pack.PackedGroup.lane_engine` it is stamped with
at pack time: ``gotoh`` and ``strips`` (the row sweep of
:mod:`repro.engine.lanes`, one strip per subject or fixed-width strips)
or ``striped`` (the Farrar column sweep of :mod:`repro.engine.striped`).
Everything that differs between the kernels lives in the kernel's
:class:`LaneKernel` record, so the executor and
:class:`~repro.engine.BatchedEngine` look the record up instead of
branching on the name.

Each record's ``cost`` is the engine's one sweep-cost model, in
nanoseconds at query length ``m``, with fitted constants: the planner
(:func:`plan_groups`) picks each bulk group's kernel with it, the split
tuner (:func:`tune_split_threshold`) prices candidate splits with it
and the pool dispatcher (:func:`~repro.engine.executor.run_groups`)
orders its tasks by it.  This is the paper's Section VI proposal:
describe each kernel by the lengths of a group, and dispatch where one
starts to beat the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.alphabet import GapPenalty
from repro.engine.budget import MemoryBudget
from repro.engine.lanes import score_packed_group, score_packed_group_strips
from repro.engine.pack import (
    DEFAULT_STRIP_WIDTH,
    ChunkPlan,
    PackedGroup,
    plan_split,
    strip_cells,
)
from repro.engine.striped import score_packed_group_striped
from repro.sequence.profile import QueryProfile
from repro.sequence.striped_profile import StripedProfile

__all__ = [
    "GOTOH_CELL_COST",
    "GOTOH_ROW_OVERHEAD",
    "LANE_KERNELS",
    "STRIPED_CELL_COST",
    "STRIPED_COLUMN_OVERHEAD",
    "STRIP_CELL_COST",
    "STRIP_ROW_OVERHEAD",
    "TUNER_MAX_CANDIDATES",
    "LaneKernel",
    "group_cost",
    "plan_groups",
    "tune_split_threshold",
]

# Fitted sweep costs, in nanoseconds: each kernel pays a cost per swept
# cell plus a cost per iteration of its Python loop — ``m`` query rows
# for gotoh and strips, ``max_len`` database columns for striped.  The
# two terms were fitted by non-negative least squares on relative error
# over 234 (group, m) pairs, each swept by every kernel, best of two:
# every 128-lane group of the bench databases ``bulk_fasta``,
# ``tail_store_fanned`` and ``cli_small``, plus their 1, 4, 12 and 32
# longest sequences, at m = 40-800, on a 2-CPU x86-64 host (numpy 2.4);
# ``tools/fit_kernel_costs.py`` repeats the fit; rerun it when a kernel
# changes.  Few-lane groups of long rows cost more a cell than the fit:
# 8-lane gotoh groups of 1,200-4,095 aa swept at 6.1-6.8 ns a cell at
# m = 350-500 (best of three, same host), int16 or int32 rung alike,
# where the model prices 0.71-0.83 of the measured time.
#
# These constants predate the row sweep's scan-depth cap and its array
# clamp (``lanes._sweep``), which made gotoh and strips cheaper and their
# cost depend on the scores as well as the shape.  Re-measured by the
# same fit on the same host with both in place: gotoh 2.25 ns a cell
# plus 32,200 ns a row, strips 1.78 plus 54,500 (median relative error
# 22% and 16%), striped 5.53 plus 52,300.  They are not refit, so every
# plan and tuned split stays as it was.
#
# With the int8 rung in place (``lanes._sweep``: rows swept one byte a
# cell until a group's scores near 127), the same fit on the same host
# gave gotoh 0.90 ns a cell plus 25,300 ns a row, strips 0.69 plus
# 41,600 (median relative error 26% and 23%), and striped 3.64 plus
# 37,000 (22%); picking by those would sweep in 1.16x the per-group
# optimum.  Striped's code did not change, so the host ran that fit
# faster throughout, but against it the row kernels fell from 0.41 and
# 0.32 of striped's per-cell cost to 0.25 and 0.19: the constants above
# overprice them further still.  Still not refit.
GOTOH_CELL_COST = 3.5  # per cell of the padded lanes x max_len rectangle
GOTOH_ROW_OVERHEAD = 28_000.0
STRIPED_CELL_COST = 5.6  # per cell of the lanes x m striped query block
STRIPED_COLUMN_OVERHEAD = 47_900.0
STRIP_CELL_COST = 3.0  # per strip-swept cell, ceil(len / W) * W a lane
STRIP_ROW_OVERHEAD = 51_100.0

#: Most candidate splits :func:`tune_split_threshold` prices: the
#: distinct lengths are thinned evenly to this many.
TUNER_MAX_CANDIDATES = 64


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
    cost:
        ``cost(lengths, m)``: the modeled time, in ns, of sweeping one
        group with these member lengths against an ``m``-residue query.
    token:
        The kernel's checkpoint fingerprint token; ``strips`` names its
        strip width, so a journal written at another width is refused.
    """

    name: str
    profile: type[QueryProfile] | type[StripedProfile]
    score: Callable[[Any, PackedGroup, GapPenalty], np.ndarray]
    cost: Callable[[np.ndarray, int], float]
    token: str


def _row_cost(lengths: np.ndarray, m: int) -> float:
    """A row sweep runs ``m`` iterations over the padded rectangle."""
    cells = lengths.size * int(lengths.max())
    return m * (GOTOH_CELL_COST * cells + GOTOH_ROW_OVERHEAD)


def _column_cost(lengths: np.ndarray, m: int) -> float:
    """A column sweep runs one iteration per database column, each
    over every lane's striped query (Snytsar's per-column cost)."""
    return int(lengths.max()) * (
        STRIPED_CELL_COST * lengths.size * m + STRIPED_COLUMN_OVERHEAD
    )


def _strip_cost(lengths: np.ndarray, m: int) -> float:
    """A strip sweep runs ``m`` iterations over the strip tiling."""
    cells = strip_cells(lengths)
    return m * (STRIP_CELL_COST * cells + STRIP_ROW_OVERHEAD)


#: The lane kernels by name.
LANE_KERNELS: dict[str, LaneKernel] = {
    kernel.name: kernel
    for kernel in (
        LaneKernel(
            "gotoh", QueryProfile, score_packed_group, _row_cost, "gotoh"
        ),
        LaneKernel(
            "striped", StripedProfile, score_packed_group_striped,
            _column_cost, "striped",
        ),
        LaneKernel(
            "strips", QueryProfile, score_packed_group_strips,
            _strip_cost, f"strips:{DEFAULT_STRIP_WIDTH}",
        ),
    )
}


def group_cost(group: PackedGroup, m: int) -> float:
    """The modeled sweep time of one packed group under its kernel,
    against an ``m``-residue query."""
    return LANE_KERNELS[group.lane_engine].cost(group.lengths, m)


def _cheapest_bulk_kernel(lengths: np.ndarray, m: int) -> str:
    """The bulk kernel — ``gotoh`` or ``striped``, the two that sweep
    the packed rectangle — the cost model prices lowest for one group
    at query length ``m`` (ties go to ``gotoh``)."""
    return min(
        ("gotoh", "striped"),
        key=lambda name: LANE_KERNELS[name].cost(lengths, m),
    )


def _downsample(values: np.ndarray, limit: int) -> np.ndarray:
    """Evenly thin a sorted array to at most ``limit`` entries, always
    keeping the first and last.  Past ``limit`` entries the ``linspace``
    indices step by more than one, so no index repeats."""
    if values.size <= limit:
        return values
    return values[np.linspace(0, values.size - 1, num=limit).astype(np.int64)]


def tune_split_threshold(
    lengths: np.ndarray,
    *,
    group_size: int,
    query_length: int | None = None,
) -> int:
    """Pick the length past which sequences go to strips groups.

    Prices the :func:`plan_groups` plan of every candidate threshold
    with the kernel table's ``cost`` at the query length, and keeps the
    cheapest (the larger threshold on ties).  The candidates are 0 (all
    strips) and the distinct sequence lengths — every distinct
    partition, nothing between two identical ones — thinned to
    :data:`TUNER_MAX_CANDIDATES`.  Pure geometry: no packing, no
    scoring; a store's in-memory index lengths
    (:attr:`~repro.engine.dbstore.DatabaseStore.lengths`) serve as
    well as a database's.

    ``query_length`` defaults to the median database length, a query
    drawn from the database itself.
    """
    sorted_lengths = np.sort(np.asarray(lengths, dtype=np.int64))
    if sorted_lengths.size == 0:
        return 0
    m = query_length or int(np.median(sorted_lengths))

    def cost(threshold: int) -> float:
        plan, kernels = plan_groups(
            sorted_lengths, m, group_size, threshold
        )
        return sum(
            LANE_KERNELS[kernel].cost(sorted_lengths[start:end], m)
            for (start, end), kernel in zip(plan.ranges, kernels)
        )

    # The distinct lengths, read off the sorted (non-negative) array:
    # np.unique's plain form imports numpy.ma inside a traced search.
    distinct = sorted_lengths[np.diff(sorted_lengths, prepend=-1) > 0]
    distinct = _downsample(distinct, TUNER_MAX_CANDIDATES)
    return min([0, *map(int, distinct)], key=lambda t: (cost(t), -t))


def plan_groups(
    sorted_lengths: np.ndarray,
    m: int,
    group_size: int,
    threshold: int | None,
    *,
    budget: MemoryBudget | None = None,
    cell_bytes: int | None = None,
) -> tuple[ChunkPlan, list[str]]:
    """Group ranges over the length-sorted database, and each one's kernel.

    The :func:`~repro.engine.pack.plan_split` geometry: tail chunks are
    ``strips``; each bulk chunk is the bulk kernel the cost model
    prices lowest at ``m``.  This is the one place a search's groups
    and kernels are decided.  The ``budget`` splits chunks whose
    rectangle at ``cell_bytes`` a cell (the search's
    :func:`~repro.engine.lanes.sweep_bytes_per_cell`) would pass it.
    Scores never depend on the choice, only the sweep time does.
    """
    plan, n_bulk = plan_split(
        sorted_lengths, group_size, threshold,
        budget=budget, cell_bytes=cell_bytes,
    )
    kernels = [
        "strips"
        if start >= n_bulk
        else _cheapest_bulk_kernel(sorted_lengths[start:end], m)
        for start, end in plan.ranges
    ]
    return plan, kernels
