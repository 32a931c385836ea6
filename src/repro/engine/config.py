"""One validated search configuration.

:class:`SearchConfig` holds every setting of a search besides its
query, database and checkpoint: the engine, the worker count, the group
size, the split threshold, the memory budget and the fault policy.  It
is validated once, when it is built, and handed unchanged from
:meth:`repro.app.CudaSW.search` to :class:`~repro.engine.BatchedEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.budget import MemoryBudget
from repro.engine.faults import FaultPolicy

__all__ = [
    "DEFAULT_GROUP_SIZE",
    "PACKED_ENGINES",
    "SEARCH_ENGINES",
    "SearchConfig",
]

#: Default lanes per group.  Large enough that vectorized work dwarfs the
#: per-row interpreter overhead, small enough that a length-sorted
#: group's padded rectangle stays tight on log-normal (Swiss-Prot-shaped)
#: length distributions, whose heavy tail dominates a too-wide last
#: group — and several groups exist to fan out across workers.
DEFAULT_GROUP_SIZE = 128

#: The packed engine, which sorts the database into lane groups and
#: lets the cost model pick each group's kernel for the query length
#: (:func:`~repro.engine.kernels.plan_groups`): ``batched``, and
#: ``hetero``, a second name for it.
PACKED_ENGINES = ("batched", "hetero")

#: Every engine a search can run: the per-pair aligners, then the
#: packed engines.
SEARCH_ENGINES = ("scalar", "antidiagonal", *PACKED_ENGINES)


@dataclass(frozen=True)
class SearchConfig:
    """The validated settings of one search.

    Attributes
    ----------
    engine:
        One of :data:`SEARCH_ENGINES` (default ``"batched"``).
    workers:
        Worker processes for the packed engines' group fan-out (1 runs
        serially; the per-pair engines ignore it).
    group_size:
        Lanes per packed group.
    split_threshold:
        Packed engines only: ``"auto"`` (the default, tuned per query
        by :func:`~repro.engine.kernels.tune_split_threshold`) or a
        length ``>= 0``; longer sequences go to the strip kernel.
    memory_budget:
        Packed engines only: a
        :class:`~repro.engine.budget.MemoryBudget` capping one group's
        estimated sweep working set.
    fault_policy:
        Packed engines only: the
        :class:`~repro.engine.faults.FaultPolicy` of the fan-out.  An
        explicit policy always keeps the worker pool.
    """

    engine: str = "batched"
    workers: int = 1
    group_size: int = DEFAULT_GROUP_SIZE
    split_threshold: int | str | None = None
    memory_budget: MemoryBudget | None = None
    fault_policy: FaultPolicy | None = None

    def __post_init__(self) -> None:
        if self.engine not in SEARCH_ENGINES:
            raise ValueError(
                f"engine must be one of {SEARCH_ENGINES}, got {self.engine!r}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.group_size <= 0:
            raise ValueError(
                f"group size must be positive, got {self.group_size}"
            )
        for name in ("split_threshold", "memory_budget", "fault_policy"):
            if getattr(self, name) is not None and not self.packed:
                raise ValueError(
                    f"{name} applies to the packed engines "
                    f"{PACKED_ENGINES} only, got engine={self.engine!r}"
                )
        threshold = self.split_threshold
        if (isinstance(threshold, str) and threshold != "auto") or (
            isinstance(threshold, int) and threshold < 0
        ):
            raise ValueError(
                f"split_threshold must be 'auto' or an integer >= 0, "
                f"got {threshold!r}"
            )

    @property
    def packed(self) -> bool:
        """Whether the engine packs the database into lane groups."""
        return self.engine in PACKED_ENGINES
