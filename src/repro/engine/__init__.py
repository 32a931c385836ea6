"""Batched inter-sequence scoring engine.

The functional analogue of CUDASW++'s inter-task kernel: instead of one
SIMT lane per database sequence, one *NumPy lane* per sequence.  A
length-sorted database is packed into ``(group_size, max_len)`` code
matrices (:mod:`~repro.engine.pack`), and a single vectorized step per
query row advances the H/E/F recurrences for every lane of a group at
once (:mod:`~repro.engine.lanes`).  Groups can optionally fan out across
worker processes (:mod:`~repro.engine.executor`).

:class:`BatchedEngine` is the turnkey front end used by
:meth:`repro.app.cudasw.CudaSW.search` (the default functional backend)
and by the repository benchmark (``bench/``); the pieces compose
individually for anything custom.  Scores are bit-identical to
:func:`~repro.sw.scalar.sw_score_scalar` on every pair.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from repro.sequence.sequence import Sequence

from repro.alphabet import GapPenalty, SubstitutionMatrix
from repro.engine.budget import MemoryBudget, estimate_group_bytes
from repro.engine.checkpoint import (
    CheckpointError,
    CheckpointJournal,
    atomic_write_text,
    search_fingerprint,
)
from repro.engine.config import (
    DEFAULT_GROUP_SIZE,
    PACKED_ENGINES,
    SEARCH_ENGINES,
    SearchConfig,
)
from repro.engine.dbstore import (
    DatabaseFormatError,
    DatabaseStore,
    StoreGroupRef,
    build_store,
    build_store_from_fasta,
    open_database,
)
from repro.engine.executor import run_groups
from repro.engine.faults import (
    DEFAULT_POLICY,
    FaultPolicy,
    InjectionPlan,
    SearchDeadlineExceeded,
)
from repro.engine.kernels import (
    LANE_KERNELS,
    LaneKernel,
    plan_groups,
    tune_split_threshold,
)
from repro.engine.lanes import (
    score_packed_group,
    score_packed_group_strips,
    sweep_bytes_per_cell,
)
from repro.engine.pack import (
    DEFAULT_STRIP_WIDTH,
    PackedGroup,
    pack_database,
    pack_database_hetero,
    pack_group,
    pack_plan,
)
from repro.engine.striped import score_packed_group_striped
from repro.obs import AnyInstrumentation, current as obs_current
from repro.sequence.database import Database
from repro.sequence.profile import QueryProfile
from repro.sequence.striped_profile import StripedProfile
from repro.sw.utils import as_codes

__all__ = [
    "BatchedEngine",
    "CheckpointError",
    "CheckpointJournal",
    "DatabaseFormatError",
    "DatabaseStore",
    "EngineReport",
    "FaultPolicy",
    "InjectionPlan",
    "LaneKernel",
    "MemoryBudget",
    "PackedGroup",
    "SearchConfig",
    "SearchDeadlineExceeded",
    "StoreGroupRef",
    "StripedProfile",
    "atomic_write_text",
    "build_store",
    "build_store_from_fasta",
    "estimate_group_bytes",
    "open_database",
    "pack_database",
    "pack_database_hetero",
    "pack_group",
    "run_groups",
    "score_packed_group",
    "score_packed_group_striped",
    "score_packed_group_strips",
    "search_fingerprint",
    "DEFAULT_DB_FANOUT_MIN_CELLS",
    "DEFAULT_FANOUT_MIN_CELLS",
    "DEFAULT_GROUP_SIZE",
    "DEFAULT_POLICY",
    "DEFAULT_STRIP_WIDTH",
    "LANE_KERNELS",
    "PACKED_ENGINES",
    "SEARCH_ENGINES",
]

#: Smallest FASTA-backed search (query length x padded database cells)
#: worth fanning out to worker processes.  Below this, starting the pool
#: and pickling the packed groups to each worker costs more than the
#: sweep itself saves.  Searches smaller than the threshold are demoted
#: to the serial path (counted as ``engine.executor.fanout_demotions``);
#: the pool's payoff on the host at hand is measured by the
#: ``executor.fanout_speedup`` per-layer metric in ``bench/``.  An
#: explicit fault policy suppresses the demotion, since fault-injection
#: and timeout semantics need the pool.
DEFAULT_FANOUT_MIN_CELLS = 256 * 1024 * 1024

#: Fan-out floor for *store-backed* searches.  With a pre-packed
#: ``.rdb`` the pool's dominant per-chunk cost — pickling whole lane
#: matrices to every worker — is gone (chunks ship
#: :class:`~repro.engine.dbstore.StoreGroupRef` index vectors and each
#: worker packs from its own memmap), so fanning out pays for itself on
#: much smaller searches than the FASTA path's
#: :data:`DEFAULT_FANOUT_MIN_CELLS`.
DEFAULT_DB_FANOUT_MIN_CELLS = 32 * 1024 * 1024


@dataclass(frozen=True)
class EngineReport:
    """Packing/execution accounting of one batched search.

    ``group_efficiencies`` is the per-group sweep efficiency — the
    functional analogue of the paper's Figure 2 load-balance efficiency:
    useful residues over the cells the group's lane kernel sweeps (the
    padded ``size x max_len`` rectangle for row and column sweeps, the
    bounded strip total for strip groups).  ``padded_cells`` aggregates
    the same quantity.
    """

    group_size: int
    workers: int
    group_sizes: tuple[int, ...]
    group_max_lengths: tuple[int, ...]
    group_efficiencies: tuple[float, ...]
    residues: int
    padded_cells: int
    #: The lane kernel each group was swept with (one entry per group).
    lane_engines: tuple[str, ...]
    #: The length past which sequences went to strips groups.
    split_threshold: int = 0

    @property
    def n_groups(self) -> int:
        return len(self.group_sizes)

    @property
    def padding_efficiency(self) -> float:
        """Aggregate useful-work fraction over all groups.

        An empty database packs zero groups and wastes zero work, so its
        efficiency is 1.0 by convention (not a ZeroDivisionError).
        """
        if self.padded_cells == 0:
            return 1.0
        return self.residues / self.padded_cells


class BatchedEngine:
    """Score whole database groups per NumPy sweep.

    ``matrix`` and ``gaps`` are the scoring model, shared by every
    search through this engine.  ``config`` is the validated
    :class:`~repro.engine.config.SearchConfig`; its engine must be one
    of :data:`PACKED_ENGINES` (``"batched"``, or its second name
    ``"hetero"``).  Sequences past the split threshold pack into
    ``strips`` groups, and each bulk group gets the kernel (``gotoh``
    or ``striped``) the fitted cost model of
    :mod:`repro.engine.kernels` prices lowest at this query's length.
    The same model tunes the threshold per query unless the config's
    ``split_threshold`` pins it.  Scores are bit-identical on every
    kernel; only throughput differs.

    With ``workers > 1`` a search smaller than the fan-out floor still
    runs serially (counted as ``engine.executor.fanout_demotions``):
    :data:`DEFAULT_DB_FANOUT_MIN_CELLS` for a store-backed search,
    :data:`DEFAULT_FANOUT_MIN_CELLS` otherwise.  An explicit
    ``fault_policy`` always keeps the pool, since injected faults,
    timeouts and deadlines need its semantics.
    """

    def __init__(
        self,
        matrix: SubstitutionMatrix,
        gaps: GapPenalty,
        config: SearchConfig = SearchConfig(),
    ) -> None:
        if not config.packed:
            raise ValueError(
                f"BatchedEngine runs the packed engines "
                f"{PACKED_ENGINES}, got engine={config.engine!r}"
            )
        self.matrix = matrix
        self.gaps = gaps
        self.config = config

    def search(
        self,
        query: Sequence | np.ndarray | str,
        db: Database | DatabaseStore,
        *,
        checkpoint: str | os.PathLike[str] | None = None,
        resume: bool = False,
    ) -> tuple[np.ndarray, EngineReport]:
        """Score the query against every database sequence.

        ``query`` may be a :class:`~repro.sequence.sequence.Sequence`, a
        code array or a string.  Returns ``int64`` scores in the
        database's original order plus the packing report.

        ``db`` may be an opened
        :class:`~repro.engine.dbstore.DatabaseStore`: the search then
        reads residues through the store's memmap, plans its groups
        from the store's in-memory sort order and lengths, ships group
        *references* to pool workers instead of pickled lane matrices,
        and folds the store's content fingerprint into the checkpoint
        :func:`~repro.engine.checkpoint.search_fingerprint` so a
        journal refuses to resume against a rebuilt store.  Scores are
        bit-identical to the same database searched from FASTA.

        ``checkpoint`` names a write-ahead journal file
        (:class:`~repro.engine.checkpoint.CheckpointJournal`): each
        completed group's scores are durably appended as the search
        runs, so a crash costs at most the group being written.  With
        ``resume=True`` an existing journal is replayed first —
        validated against a content fingerprint of the query, scoring
        parameters and database — and only unjournaled groups are
        recomputed; a stale or corrupt journal raises
        :class:`~repro.engine.checkpoint.CheckpointError` instead of
        being merged.  ``resume=False`` (default) truncates any
        existing journal and starts fresh.

        When the fault policy's deadline fires,
        :class:`~repro.engine.faults.SearchDeadlineExceeded` is raised
        with ``partial_scores``/``completed_mask`` attached: scores in
        database order for every group finished before the deadline
        (``-1`` and ``False`` elsewhere).  Groups completed before the
        deadline are already in the journal, so a deadline-killed
        checkpointed search is resumable too.
        """
        if resume and checkpoint is None:
            raise ValueError(
                "resume requires a checkpoint journal path "
                "(checkpoint= / --checkpoint)"
            )
        cfg = self.config
        store: DatabaseStore | None = None
        if isinstance(db, DatabaseStore):
            store = db
            db = store.database
        instr = obs_current()
        with instr.span("profile_build"):
            q_codes = as_codes(query, self.matrix)
            # The executor builds the striped flavour lazily iff a group
            # needs it.
            profile = QueryProfile(q_codes, self.matrix)
        with instr.span("pack"):
            # A store already holds the length sort and the lengths, in
            # memory: planning never reads its residue memmap.
            order = (
                store.sort_order
                if store is not None
                else np.argsort(db.lengths, kind="stable")
            )
            sorted_lengths = db.lengths[order]
            # The split: pinned, or tuned for this query's length.
            threshold = cfg.split_threshold
            if not isinstance(threshold, int):
                threshold = tune_split_threshold(
                    sorted_lengths, group_size=cfg.group_size,
                    query_length=len(q_codes),
                )
            # One bytes-per-cell figure for the whole search, at its
            # widest row: the budget splits with it and the
            # --mem-phases check below compares against it.
            cell_bytes = sweep_bytes_per_cell(
                profile, self.gaps,
                max(int(sorted_lengths.max(initial=1)), DEFAULT_STRIP_WIDTH),
            )
            plan, kernels = plan_groups(
                sorted_lengths, len(q_codes), cfg.group_size, threshold,
                budget=cfg.memory_budget, cell_bytes=cell_bytes,
            )
            groups = pack_plan(db, order, plan, kernels)
            if instr.enabled:
                self._count_dispatch(instr, groups, threshold)
        workers = cfg.workers
        policy = cfg.fault_policy or DEFAULT_POLICY
        fanout_floor = (
            DEFAULT_FANOUT_MIN_CELLS
            if store is None
            else DEFAULT_DB_FANOUT_MIN_CELLS
        )
        if (
            workers > 1
            and policy is DEFAULT_POLICY
            and profile.length * sum(g.sweep_cells for g in groups)
            < fanout_floor
        ):
            # Too small to amortize pool spin-up + per-chunk pickling:
            # run serially (see DEFAULT_FANOUT_MIN_CELLS).  Scores are
            # path-independent, so only wall time changes.
            instr.count("engine.executor.fanout_demotions", 1)
            workers = 1
        journal: CheckpointJournal | None = None
        preloaded: dict[int, np.ndarray] = {}
        on_scored: Callable[[int, np.ndarray], None] | None = None
        if checkpoint is not None:
            fingerprint = search_fingerprint(
                q_codes, self.matrix, self.gaps, cfg.group_size, db,
                budget_bytes=(
                    0
                    if cfg.memory_budget is None
                    else cfg.memory_budget.max_group_bytes
                ),
                engines=tuple(
                    LANE_KERNELS[g.lane_engine].token for g in groups
                ),
                store_fingerprint=(
                    store.fingerprint if store is not None else ""
                ),
            )
            with instr.span("checkpoint_replay"):
                if resume:
                    journal, preloaded = CheckpointJournal.resume(
                        checkpoint, fingerprint, groups
                    )
                else:
                    journal = CheckpointJournal.create(
                        checkpoint, fingerprint, len(groups)
                    )

            live_journal = journal

            def _journal_scored(gi: int, lane_scores: np.ndarray) -> None:
                live_journal.append(gi, groups[gi], lane_scores)
                instr.count("engine.checkpoint.groups_recomputed", 1)

            on_scored = _journal_scored

        with instr.span("fan_out"):
            try:
                per_group = run_groups(
                    profile,
                    groups,
                    self.gaps,
                    workers=workers,
                    policy=policy,
                    preloaded=preloaded or None,
                    on_group_scored=on_scored,
                    store=store,
                )
            except SearchDeadlineExceeded as exc:
                partial = np.full(len(db), -1, dtype=np.int64)
                mask = np.zeros(len(db), dtype=bool)
                for gi, lane_scores in exc.partial.items():
                    partial[groups[gi].indices] = lane_scores
                    mask[groups[gi].indices] = True
                exc.partial_scores = partial
                exc.completed_mask = mask
                raise
            finally:
                if journal is not None:
                    journal.close()
        if getattr(instr, "memory", False):
            # Cross-check the tracemalloc peak observed during the
            # sweep phases against the figure the planner split with,
            # for the largest group: an underestimate here means the
            # OOM guard's split points are too optimistic.
            predicted = max(
                (
                    estimate_group_bytes(g.size, g.max_length, cell_bytes)
                    for g in groups
                ),
                default=0,
            )
            observed = max(
                instr.counters.get("engine.mem.sweep.peak_bytes"),
                instr.counters.get("engine.mem.sweep_parallel.peak_bytes"),
                instr.counters.get("engine.mem.serial_retry.peak_bytes"),
            )
            instr.count("engine.mem.budget_checks", 1)
            instr.counters.record_max(
                "engine.mem.budget_predicted_bytes", predicted
            )
            if observed > predicted:
                instr.count("engine.mem.budget_underestimates", 1)
        with instr.span("score_scatter"):
            scores = np.zeros(len(db), dtype=np.int64)
            for group, lane_scores in zip(groups, per_group):
                scores[group.indices] = lane_scores
        report = EngineReport(
            group_size=cfg.group_size,
            workers=cfg.workers,
            group_sizes=tuple(g.size for g in groups),
            group_max_lengths=tuple(g.max_length for g in groups),
            group_efficiencies=tuple(g.sweep_efficiency for g in groups),
            residues=sum(g.residues for g in groups),
            padded_cells=sum(g.sweep_cells for g in groups),
            lane_engines=tuple(g.lane_engine for g in groups),
            split_threshold=threshold,
        )
        return scores, report

    def _count_dispatch(
        self,
        instr: AnyInstrumentation,
        groups: list[PackedGroup],
        threshold: int,
    ) -> None:
        """Charge the ``engine.dispatch.*`` counters for one split."""
        # Bulk groups hold exactly the sequences at or under the split.
        bulk = [g for g in groups if g.max_length <= threshold]
        tail = [g for g in groups if g.max_length > threshold]
        instr.count("engine.dispatch.bulk_groups", len(bulk))
        instr.count("engine.dispatch.tail_groups", len(tail))
        instr.count(
            "engine.dispatch.bulk_sequences", sum(g.size for g in bulk)
        )
        instr.count(
            "engine.dispatch.tail_sequences", sum(g.size for g in tail)
        )
        instr.counters.record_max(
            "engine.dispatch.split_threshold", threshold
        )
        if not isinstance(self.config.split_threshold, int):
            instr.count("engine.dispatch.auto_tuned", 1)
