"""Group packing for the batched inter-sequence engine.

CUDASW++'s inter-task kernel assigns one database sequence per SIMT
*lane* and launches length-sorted groups so lanes finish together
(Section II-C).  The functional analogue packs a group of sequences into
a dense ``(group_size, max_length)`` code matrix — one row per lane,
short rows padded with a sentinel symbol — so a NumPy operation over the
matrix advances every lane at once.

Padding is the load-balance story of the paper's Figure 2 translated to
the functional engine: every padded cell is a lane-step of wasted work,
and :attr:`PackedGroup.padding_efficiency` (useful residues over the
padded rectangle) is exactly the ``sum(len) / (s * max_len)`` quantity
of :class:`~repro.sequence.database.SequenceGroup`.  Length sorting
before grouping is what keeps it near 1.0.

Past a length threshold no grouping packs well, which is why
:func:`plan_split` cuts the long tail into groups of its own for the
strip-sweep kernel (each :class:`PackedGroup` carries its
``lane_engine``, making the kernel a per-group decision).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.engine.budget import MemoryBudget
from repro.obs import AnyInstrumentation, current as obs_current
from repro.sequence.database import Database

__all__ = [
    "DEFAULT_STRIP_WIDTH",
    "ChunkPlan",
    "PackedGroup",
    "pack_group",
    "pack_database",
    "pack_database_hetero",
    "pack_plan",
    "plan_chunks",
    "plan_split",
    "strip_cells",
    "strip_counts",
]

#: The strip engine's strip width (DP columns per strip lane), the
#: paper's 512-row strips.  Lives here rather than in
#: :mod:`~repro.engine.lanes` so packing and cost modelling can reason
#: about strip geometry without importing the kernel.
DEFAULT_STRIP_WIDTH = 512


def strip_counts(lengths: np.ndarray, w: int) -> np.ndarray:
    """Strips of width ``w`` each subject is cut into: ``ceil(len / w)``,
    at least one (int64)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    return np.maximum((lengths + w - 1) // w, 1)


def strip_cells(lengths: np.ndarray) -> int:
    """Cells the strip engine sweeps per query row for these lengths:
    ``ceil(len / W) * W`` each (at least one strip) at
    ``W =`` :data:`DEFAULT_STRIP_WIDTH`."""
    w = DEFAULT_STRIP_WIDTH
    return int(strip_counts(lengths, w).sum()) * w


@dataclass(frozen=True)
class PackedGroup:
    """One length-sorted group of database sequences, packed lane-per-row.

    Attributes
    ----------
    indices:
        Positions of the member sequences in the *source* database's
        original order, so per-lane scores scatter straight back.
    lengths:
        True (unpadded) length of each lane.
    codes:
        ``(size, max_length)`` ``uint8`` matrix; row ``k`` holds lane
        ``k``'s residue codes, columns past ``lengths[k]`` hold
        :attr:`pad_code`.
    pad_code:
        The padding sentinel — one past the largest valid alphabet code,
        so each lane kernel can give it a similarity of its own under
        which padded cells never win an alignment (0 in the row
        sweep's tiles, at most 0 in the striped profile).
    lane_engine:
        The lane kernel that sweeps this group (a key of
        :data:`~repro.engine.kernels.LANE_KERNELS`), stamped at pack
        time.  This is what makes the kernel a per-group decision for
        heterogeneous dispatch.
    """

    indices: np.ndarray
    lengths: np.ndarray
    codes: np.ndarray
    pad_code: int
    lane_engine: str = "gotoh"

    def __post_init__(self) -> None:
        if self.codes.ndim != 2:
            raise ValueError("packed codes must be a 2-D lane matrix")
        if self.indices.shape != self.lengths.shape or (
            self.indices.size != self.codes.shape[0]
        ):
            raise ValueError("indices, lengths and code rows must agree")
        if self.indices.size == 0:
            raise ValueError("a packed group cannot be empty")
        if self.codes.shape[1] != int(self.lengths.max()):
            raise ValueError("code matrix width must equal the max length")
        if int(self.codes.max()) > self.pad_code:
            # The striped kernel gathers with mode="clip", which would
            # silently score such a residue as padding.
            raise ValueError("packed codes must not exceed the pad code")

    @property
    def size(self) -> int:
        """Number of lanes (sequences) in the group."""
        return int(self.indices.size)

    @property
    def max_length(self) -> int:
        return int(self.codes.shape[1])

    @property
    def residues(self) -> int:
        """Useful cells per query row: the true residue count."""
        return int(self.lengths.sum())

    @property
    def padded_cells(self) -> int:
        """Occupied lane-steps per query row: the full rectangle."""
        return self.size * self.max_length

    @property
    def padding_efficiency(self) -> float:
        """Useful work over occupied lane-steps — Figure 2's load-balance
        efficiency, for the NumPy lanes instead of SIMT threads."""
        return self.residues / self.padded_cells

    @property
    def sweep_cells(self) -> int:
        """Cells actually swept per query row by this group's engine.

        The batched engines sweep the full ``(size, max_length)``
        rectangle; the strip engine sweeps ``ceil(len / W) * W`` per
        sequence, bounding each sequence's padding at ``W - 1`` cells no
        matter how ragged the group is.
        """
        if self.lane_engine == "strips":
            return strip_cells(self.lengths)
        return self.padded_cells

    @property
    def sweep_efficiency(self) -> float:
        """Useful work over swept cells under the *assigned* engine."""
        return self.residues / self.sweep_cells


def pack_group(
    db: Database,
    indices: np.ndarray,
    *,
    lane_engine: str = "gotoh",
) -> PackedGroup:
    """Pack the database sequences at ``indices`` into one lane matrix.

    ``indices`` refer to ``db``'s own ordering and are recorded verbatim
    in the result, so callers can pack a sorted permutation of an
    unsorted database and still scatter scores back trivially.
    ``lane_engine`` stamps the lane kernel that will sweep the group.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 1 or indices.size == 0:
        raise ValueError("need a non-empty 1-D index array")
    db._require_residues()
    lengths = db.lengths[indices]
    max_len = int(lengths.max())
    pad_code = db.alphabet.size
    codes = np.full((indices.size, max_len), pad_code, dtype=np.uint8)
    for lane, src in enumerate(indices):
        row = db.codes_of(int(src))
        codes[lane, : row.size] = row
    codes.setflags(write=False)
    return PackedGroup(indices, lengths, codes, pad_code, lane_engine)


class ChunkPlan(NamedTuple):
    """Pure-geometry packing plan over a length-sorted database.

    ``ranges`` are ``(start, end)`` slices into the sorted order;
    the split counters record why extra groups exist so callers can
    charge the matching ``engine.budget.*`` counters without
    re-deriving the decisions.
    """

    ranges: list[tuple[int, int]]
    budget_splits: int
    budget_extra_groups: int


def plan_chunks(
    sorted_lengths: np.ndarray,
    group_size: int,
    *,
    budget: MemoryBudget | None = None,
    cell_bytes: int | None = None,
) -> ChunkPlan:
    """Plan packing ranges for an ascending-sorted length array.

    Fixed ``group_size`` chunking, then the ``budget``'s working-set
    splitting within each chunk at ``cell_bytes`` a swept cell (the
    search's :func:`~repro.engine.lanes.sweep_bytes_per_cell`, read
    only when a budget is set).  Geometry only — no database access —
    so the threshold cost model can evaluate candidate partitions
    without packing anything.
    """
    if group_size <= 0:
        raise ValueError(f"group size must be positive, got {group_size}")
    sorted_lengths = np.asarray(sorted_lengths, dtype=np.int64)
    n = int(sorted_lengths.size)
    ranges = [
        (start, min(start + group_size, n))
        for start in range(0, n, group_size)
    ]
    if budget is None:
        return ChunkPlan(ranges, 0, 0)
    if cell_bytes is None:
        raise ValueError("a budget split needs the bytes per swept cell")
    budget_splits = budget_extra = 0
    split_ranges: list[tuple[int, int]] = []
    for start, end in ranges:
        ends = budget.split_points(
            [int(x) for x in sorted_lengths[start:end]], cell_bytes
        )
        if len(ends) > 1:
            budget_splits += 1
            budget_extra += len(ends) - 1
        prev = 0
        for cut in ends:
            split_ranges.append((start + prev, start + cut))
            prev = cut
    return ChunkPlan(split_ranges, budget_splits, budget_extra)


def _record_pack_counters(
    instr: AnyInstrumentation,
    n_sequences: int,
    groups: list[PackedGroup],
    plan: ChunkPlan,
) -> None:
    """Charge the packing counters for one planned-and-packed database.

    ``padded_cells`` counts cells the assigned engines will actually
    sweep (``sweep_cells``) — identical to the padded rectangle for
    batched groups, the bounded strip total for strip groups.
    """
    residues = sum(g.residues for g in groups)
    swept = sum(g.sweep_cells for g in groups)
    instr.count("engine.pack.groups", len(groups))
    instr.count("engine.pack.sequences", n_sequences)
    instr.count("engine.pack.residues", residues)
    instr.count("engine.pack.padded_cells", swept)
    instr.count("engine.pack.pad_waste_cells", swept - residues)
    if plan.budget_splits:
        instr.count("engine.budget.groups_split", plan.budget_splits)
        instr.count("engine.budget.extra_groups", plan.budget_extra_groups)
    for g in groups:
        instr.observe("engine.pack.group_cells", float(g.sweep_cells))
        instr.observe("engine.pack.group_efficiency", g.sweep_efficiency)


def plan_split(
    sorted_lengths: np.ndarray,
    group_size: int,
    threshold: int | None,
    *,
    budget: MemoryBudget | None = None,
    cell_bytes: int | None = None,
) -> tuple[ChunkPlan, int]:
    """Plan the length split over an ascending-sorted length array.

    Sequences at or under ``threshold`` (the bulk) and the longer ones
    (the tail) are each cut into ``group_size`` chunks by
    :func:`plan_chunks`, ``budget``-split at ``cell_bytes`` a cell.
    ``threshold <= 0`` makes everything tail, ``None`` or
    ``threshold >= max length`` everything bulk.  Returns the plan, in
    sorted-order ranges, and the bulk count: ranges from it on are
    tail.
    """
    n_bulk = (
        sorted_lengths.size
        if threshold is None
        else int(np.searchsorted(sorted_lengths, threshold, side="right"))
    )
    bulk, tail = (
        plan_chunks(part, group_size, budget=budget, cell_bytes=cell_bytes)
        for part in (sorted_lengths[:n_bulk], sorted_lengths[n_bulk:])
    )
    plan = ChunkPlan(
        bulk.ranges + [(s + n_bulk, e + n_bulk) for s, e in tail.ranges],
        bulk.budget_splits + tail.budget_splits,
        bulk.budget_extra_groups + tail.budget_extra_groups,
    )
    return plan, n_bulk


def pack_plan(
    db: Database,
    order: np.ndarray,
    plan: ChunkPlan,
    kernels: list[str],
) -> list[PackedGroup]:
    """Pack each planned range of the sorted ``order`` as one group,
    stamped with its kernel, and charge the ``engine.pack.*``
    counters."""
    groups = [
        pack_group(db, order[start:end], lane_engine=kernel)
        for (start, end), kernel in zip(plan.ranges, kernels)
    ]
    instr = obs_current()
    if instr.enabled:
        _record_pack_counters(instr, len(db), groups, plan)
    return groups


def pack_database(db: Database, group_size: int) -> list[PackedGroup]:
    """Sort ``db`` by length and pack it into ``gotoh`` groups of
    ``group_size`` (see :func:`plan_chunks`).

    Mirrors CUDASW++'s preprocessing pipeline
    (:meth:`Database.sorted_by_length` then
    :meth:`Database.partition_groups`): a stable ascending length sort
    keeps each group's lengths nearly uniform, so the padded rectangles
    stay tight.  Group ``indices`` refer to the *original* (unsorted)
    database order.
    """
    db._require_residues()
    order = np.argsort(db.lengths, kind="stable")
    plan = plan_chunks(db.lengths[order], group_size)
    return pack_plan(db, order, plan, ["gotoh"] * len(plan.ranges))


def pack_database_hetero(
    db: Database, group_size: int, threshold: int
) -> list[PackedGroup]:
    """The length split of :func:`plan_split` with every bulk group
    ``striped`` and every tail group ``strips``.  The search engine
    plans the same geometry but picks each bulk group's kernel for the
    query (:func:`~repro.engine.kernels.plan_groups`).
    """
    db._require_residues()
    order = np.argsort(db.lengths, kind="stable")
    plan, n_bulk = plan_split(db.lengths[order], group_size, threshold)
    kernels = [
        "striped" if start < n_bulk else "strips" for start, _ in plan.ranges
    ]
    return pack_plan(db, order, plan, kernels)
