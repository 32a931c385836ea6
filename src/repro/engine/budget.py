"""Memory budgeting for group planning: split instead of OOM.

Sweeping one packed group materializes seven working arrays of one cell
per swept DP column and lane (see :mod:`repro.engine.lanes`: H, F,
Htmp, the prefix scan's two buffers, the running maximum and the gap
ramp) plus one similarity tile per distinct query symbol, also one
cell per swept column and lane.  A titin-class tail group in a wide
packing can therefore allocate hundreds of megabytes at once, and on a
memory-capped host the kernel's OOM killer ends the whole search
(exactly the process-level failure the checkpoint journal exists to
survive — better to not trigger it at all).

:class:`MemoryBudget` caps the estimated working set of any single
packed group.  The search's planner
(:func:`~repro.engine.kernels.plan_groups`) consults it while cutting
the length-sorted order into groups: a chunk whose padded rectangle,
priced at the search's bytes per cell, would exceed the budget is
split into narrower groups (fewer lanes, same width) that each fit.
Splitting never changes scores — groups are
scored independently — only the fan-out geometry, so the guard degrades
throughput gracefully instead of killing the process.  A single
sequence so long that even a one-lane group exceeds the budget cannot
be split further; it is kept as a singleton group and counted, with a
warning, so operators can raise the budget or trim the database.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from repro.obs import current as obs_current

__all__ = [
    "MemoryBudget",
    "estimate_group_bytes",
]


def estimate_group_bytes(size: int, max_length: int, cell_bytes: int) -> int:
    """Estimated peak working-set bytes for sweeping one packed group's
    ``(max_length + 1, size)`` rectangle at ``cell_bytes`` a cell: the
    figure the planner splits with, and the ``--mem-phases`` check
    compares the traced peak against.  A search's ``cell_bytes`` is
    :func:`~repro.engine.lanes.sweep_bytes_per_cell`, which sees the
    query, the matrix and the penalties."""
    if size < 1 or max_length < 1:
        raise ValueError(
            f"group geometry must be positive, got {size}x{max_length}"
        )
    return size * (max_length + 1) * cell_bytes


@dataclass(frozen=True)
class MemoryBudget:
    """Cap on one packed group's estimated sweep working set.

    Attributes
    ----------
    max_group_bytes:
        Largest estimated working set (see :func:`estimate_group_bytes`)
        a single group may reach.  Groups that would exceed it are split
        into narrower groups at packing time.
    """

    max_group_bytes: int

    def __post_init__(self) -> None:
        if self.max_group_bytes <= 0:
            raise ValueError(
                f"max_group_bytes must be positive, got {self.max_group_bytes}"
            )

    @classmethod
    def from_megabytes(cls, megabytes: float) -> "MemoryBudget":
        """A budget from a mebibyte count (the CLI's unit)."""
        if megabytes <= 0:
            raise ValueError(
                f"memory budget must be positive, got {megabytes} MiB"
            )
        return cls(max_group_bytes=int(megabytes * 2**20))

    def fits(self, size: int, max_length: int, cell_bytes: int) -> bool:
        """Whether a ``size x max_length`` group stays within budget at
        ``cell_bytes`` a swept cell."""
        return (
            estimate_group_bytes(size, max_length, cell_bytes)
            <= self.max_group_bytes
        )

    def split_points(self, lengths: list[int], cell_bytes: int) -> list[int]:
        """Cut one ascending-length chunk into budget-fitting segments.

        ``lengths`` is the chunk's (already length-sorted, ascending)
        true lane lengths.  Returns segment *end* offsets — ``[len]``
        when the whole chunk fits.  Greedy left-to-right: a segment is
        closed just before the lane whose inclusion would blow the
        budget at ``cell_bytes`` a swept cell (the running max length is
        simply the current lane's, thanks to the ascending sort).
        Single lanes over budget are kept as singleton segments and
        counted as ``engine.budget.oversized_singletons``.
        """
        if not lengths:
            raise ValueError("cannot split an empty chunk")
        ends: list[int] = []
        start = 0
        for i, length in enumerate(lengths):
            width = max(int(length), 1)
            if i > start and not self.fits(i - start + 1, width, cell_bytes):
                ends.append(i)
                start = i
            if i == start and not self.fits(1, width, cell_bytes):
                instr = obs_current()
                instr.count("engine.budget.oversized_singletons", 1)
                warnings.warn(
                    f"sequence of length {length} exceeds the memory "
                    f"budget ({self.max_group_bytes} bytes) even as a "
                    "single-lane group; keeping it whole — raise the "
                    "budget or trim the database",
                    UserWarning,
                    stacklevel=4,
                )
                ends.append(i + 1)
                start = i + 1
        if start < len(lengths):
            ends.append(len(lengths))
        return ends
