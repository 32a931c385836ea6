"""End-to-end CUDASW++: threshold dispatch, timing model, functional search.

:class:`CudaSW` is the reproduction's equivalent of the ``cudasw``
executable: configure a device, an intra-task kernel generation
(original or improved) and a threshold, then either

* :meth:`CudaSW.predict` — model the run time and GCUPs of a search from
  sequence lengths alone (how every figure/table experiment runs at
  Swiss-Prot scale), or
* :meth:`CudaSW.search` — actually compute every alignment score
  (functional mode, for examples and integration tests), with the same
  timing report attached.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.alphabet import BLOSUM62, GapPenalty, SubstitutionMatrix
from repro.cuda.calibration import DEFAULT_CALIBRATION, CostCalibration
from repro.cuda.cost import CostModel
from repro.cuda.counts import KernelCounts
from repro.cuda.device import TESLA_C1060, DeviceSpec
from repro.kernels.base import PairKernel
from repro.kernels.intertask import InterTaskKernel
from repro.kernels.intratask_improved import (
    ImprovedIntraTaskKernel,
    ImprovedKernelConfig,
)
from repro.kernels.intratask_original import OriginalIntraTaskKernel
from repro.app.results import SearchResult
from repro.app.scheduler import schedule_inter_task
from repro.app.transfer import TransferModel
from repro.engine import (
    DEFAULT_GROUP_SIZE,
    PACKED_ENGINES,
    SEARCH_ENGINES,
    BatchedEngine,
    DatabaseStore,
    EngineReport,
    FaultPolicy,
    MemoryBudget,
    SearchConfig,
)
from repro.obs import (
    COLLECT_MODES,
    RunReport,
    collect as obs_collect,
    current as obs_current,
)
from repro.sequence.database import Database
from repro.sequence.sequence import Sequence
from repro.sw.antidiagonal import sw_score_antidiagonal
from repro.sw.scalar import sw_score_scalar
from repro.sw.utils import as_codes

__all__ = ["CudaSW", "SearchReport", "tuned_improved_config", "SEARCH_ENGINES"]

#: The paper's default dispatch threshold.
DEFAULT_THRESHOLD = 3072


def tuned_improved_config(device: DeviceSpec) -> ImprovedKernelConfig:
    """The strip heights Section IV-A found optimal: 512 on the C1060
    (128 threads x tile height 4) and 1024 on the C2050 (256 x 4)."""
    if device.name == TESLA_C1060.name:
        return ImprovedKernelConfig(threads_per_block=128, tile_height=4)
    return ImprovedKernelConfig(threads_per_block=256, tile_height=4)


@dataclass(frozen=True)
class SearchReport:
    """Modeled timing breakdown of one database search."""

    device: str
    query_length: int
    threshold: int
    n_inter_sequences: int
    n_intra_sequences: int
    fraction_over_threshold: float
    inter_time: float
    intra_time: float
    transfer_time: float
    inter_counts: KernelCounts
    intra_counts: KernelCounts
    inter_launches: int
    load_balance_efficiency: float
    total_cells: int

    @property
    def compute_time(self) -> float:
        """Kernel time only: inter- plus intra-task, excluding copies."""
        return self.inter_time + self.intra_time

    @property
    def total_time(self) -> float:
        """End-to-end modeled time: compute plus visible transfer."""
        return self.compute_time + self.transfer_time

    @property
    def gcups(self) -> float:
        """Overall GCUPs: query length x database residues over run time
        (the paper's metric)."""
        return self.total_cells / self.total_time / 1e9

    @property
    def intra_time_fraction(self) -> float:
        """Fraction of running time spent in the intra-task kernel — the
        y-axis of the paper's Figure 5(b)."""
        if self.total_time <= 0:
            return 0.0
        return self.intra_time / self.total_time


class CudaSW:
    """The CUDASW++ application on the device model."""

    def __init__(
        self,
        device: DeviceSpec = TESLA_C1060,
        *,
        intra_kernel: str | PairKernel = "improved",
        threshold: int | str = DEFAULT_THRESHOLD,
        matrix: SubstitutionMatrix = BLOSUM62,
        gaps: GapPenalty | None = None,
        calibration: CostCalibration = DEFAULT_CALIBRATION,
        cache_enabled: bool = True,
        streaming_copy: bool = False,
    ) -> None:
        auto_threshold = threshold == "auto"
        if auto_threshold:
            threshold = DEFAULT_THRESHOLD  # placeholder until tuned per-db
        if not isinstance(threshold, int) or threshold <= 0:
            raise ValueError(
                "threshold must be a positive integer or 'auto' "
                f"(got {threshold!r})"
            )
        #: Section VI mode: re-detect the optimal threshold per database
        #: during :meth:`predict`/:meth:`search` preprocessing.
        self.auto_threshold = auto_threshold
        self.device = device
        self.threshold = threshold
        self.matrix = matrix
        self.gaps = gaps or GapPenalty.cudasw_default()
        self.inter_kernel = InterTaskKernel()
        if isinstance(intra_kernel, PairKernel):
            self.intra_kernel = intra_kernel
        elif intra_kernel == "original":
            self.intra_kernel = OriginalIntraTaskKernel()
        elif intra_kernel == "improved":
            self.intra_kernel = ImprovedIntraTaskKernel(
                tuned_improved_config(device), device
            )
        else:
            raise ValueError(
                f"intra_kernel must be 'original', 'improved' or a kernel, "
                f"got {intra_kernel!r}"
            )
        self.cost = CostModel(device, calibration, cache_enabled=cache_enabled)
        self.transfer = TransferModel(device, streaming=streaming_copy)
        self._auto_cache: dict = {}
        #: Packing/execution accounting of the last batched-engine search
        #: (``None`` until a ``engine="batched"`` search runs; reset to
        #: ``None`` by every :meth:`search` so other engines never show a
        #: previous search's stats).
        self.last_engine_report: EngineReport | None = None
        #: Merged observability document of the last
        #: ``search(..., collect="counters"|"full")`` call (``None``
        #: otherwise, or when an outer ``obs.collect`` session owns the
        #: collection).
        self.last_run_report: RunReport | None = None

    def _resolve_threshold(self, query_length: int, db: Database) -> int:
        """The dispatch threshold for this database: the configured one,
        or — in ``threshold='auto'`` mode — the Section VI detected
        optimum (cached per database fingerprint)."""
        if not self.auto_threshold:
            return self.threshold
        fingerprint = (
            len(db),
            db.total_residues,
            int(db.lengths.max()),
            query_length,
        )
        if self._auto_cache.get("fingerprint") == fingerprint:
            return self._auto_cache["threshold"]
        from repro.app.threshold import optimal_threshold

        best = optimal_threshold(self, query_length, db, max_candidates=12)
        self._auto_cache = {
            "fingerprint": fingerprint,
            "threshold": best.threshold,
        }
        return best.threshold

    # ------------------------------------------------------------------
    # Performance model
    # ------------------------------------------------------------------
    def predict(self, query_length: int, db: Database) -> SearchReport:
        """Model the run time of searching ``db`` with a query of the
        given length.  Works on lengths-only databases."""
        if query_length <= 0:
            raise ValueError("query length must be positive")
        threshold = self._resolve_threshold(query_length, db)
        below, above = db.split_by_threshold(threshold)

        inter_time = 0.0
        inter_counts = KernelCounts()
        inter_launches = 0
        balance = 1.0
        if below is not None:
            schedule = schedule_inter_task(
                query_length, below, self.inter_kernel, self.device
            )
            inter_counts = schedule.counts
            inter_launches = schedule.n_launches
            balance = schedule.load_balance_efficiency
            launch = self.inter_kernel.launch_config(
                max(schedule.group_size // self.inter_kernel.threads_per_block, 1)
            )
            profile = self.inter_kernel.cache_profile(
                query_length, int(below.lengths.mean())
            )
            inter_time = self.cost.kernel_time(
                inter_counts, launch, profile, launches=schedule.n_launches
            ).total

        intra_time = 0.0
        intra_counts = KernelCounts()
        if above is not None:
            intra_counts = self.intra_kernel.bulk_pair_counts(
                query_length, above.lengths
            )
            launch = self.intra_kernel.launch_config(len(above))
            profile = self.intra_kernel.cache_profile(
                query_length, int(above.lengths.mean())
            )
            intra_time = self.cost.kernel_time(
                intra_counts, launch, profile
            ).total

        transfer_time = self.transfer.visible_copy_time(
            db.total_residues, inter_time + intra_time
        )
        instr = obs_current()
        if instr.enabled:
            # The modeled Table I quantities for this dispatch split.
            instr.count("model.predict_calls", 1)
            instr.count("model.cells", query_length * db.total_residues)
            instr.count(
                "model.inter.sequences", 0 if below is None else len(below)
            )
            instr.count("model.inter.launches", inter_launches)
            instr.count(
                "model.inter.global_transactions",
                inter_counts.global_transactions,
            )
            instr.count(
                "model.intra.sequences", 0 if above is None else len(above)
            )
            instr.count(
                "model.intra.global_transactions",
                intra_counts.global_transactions,
            )
        return SearchReport(
            device=self.device.name,
            query_length=query_length,
            threshold=threshold,
            n_inter_sequences=0 if below is None else len(below),
            n_intra_sequences=0 if above is None else len(above),
            fraction_over_threshold=db.fraction_over(threshold),
            inter_time=inter_time,
            intra_time=intra_time,
            transfer_time=transfer_time,
            inter_counts=inter_counts,
            intra_counts=intra_counts,
            inter_launches=inter_launches,
            load_balance_efficiency=balance,
            total_cells=query_length * db.total_residues,
        )

    # ------------------------------------------------------------------
    # Functional search
    # ------------------------------------------------------------------
    def search(
        self,
        query: Sequence,
        db: Database | DatabaseStore,
        *,
        engine: str = "batched",
        workers: int = 1,
        group_size: int | None = None,
        fault_policy: FaultPolicy | None = None,
        checkpoint: str | os.PathLike | None = None,
        resume: bool = False,
        memory_budget: MemoryBudget | None = None,
        simulate_kernels: bool = False,
        collect: str = "off",
        memory_phases: bool = False,
        split_threshold: int | str | None = None,
    ) -> tuple[SearchResult, SearchReport]:
        """Compute every database sequence's score, plus the timing report.

        ``db`` is a materialized :class:`Database` or an opened
        :class:`~repro.engine.DatabaseStore` (``repro db build`` +
        :func:`~repro.engine.open_database`): the store path reads
        residues through a validated memory map, plans from the
        store's in-memory length index, and ships group references —
        not pickled arrays — to pool workers.  Scores are bit-identical
        either way, on every engine.

        Parameters
        ----------
        engine:
            Functional score backend: ``"batched"`` (default) packs
            length-sorted groups and advances all lanes per NumPy step
            (:class:`~repro.engine.BatchedEngine`; packing accounting
            lands in :attr:`last_engine_report`): the long tail past
            the split threshold sweeps as bounded-padding strip groups
            (:mod:`repro.engine.lanes`), and each bulk group with the
            row or Farrar striped kernel the fitted cost model of
            :mod:`repro.engine.kernels` picks for the query length;
            ``"hetero"`` is a second name for it.
            ``"antidiagonal"`` runs the per-pair wavefront aligner,
            ``"scalar"`` the textbook reference.  All engines are
            bit-identical, which tests verify; they differ only in
            throughput.
        workers:
            Worker processes for the packed engines' group fan-out
            (1 = serial; ignored by the per-pair engines).
        group_size:
            Lanes per packed group for the packed engines (default
            :data:`~repro.engine.DEFAULT_GROUP_SIZE`).
        fault_policy:
            :class:`~repro.engine.FaultPolicy` for the packed engines'
            fan-out: per-task timeout, bounded retries with backoff,
            and a whole-search deadline (on expiry a
            :class:`~repro.engine.SearchDeadlineExceeded` is raised
            carrying partial scores).  Only the packed engines
            (:data:`~repro.engine.PACKED_ENGINES`) dispatch work units,
            so combining a policy with a per-pair engine or
            ``simulate_kernels`` is an error.
        checkpoint:
            Path of a crash-safe write-ahead journal
            (:class:`~repro.engine.CheckpointJournal`): every completed
            group's scores are durably appended as the search runs, so
            a ``SIGKILL``/OOM/reboot costs at most the group in flight.
            Packed engines only (like ``fault_policy``).  A search that
            dies behind a deadline
            (:class:`~repro.engine.SearchDeadlineExceeded`) leaves its
            completed groups in the journal, so it is resumable too.
        resume:
            With ``checkpoint``: replay the existing journal (validated
            against a content fingerprint of query + database + scoring
            parameters; a stale or corrupt journal raises
            :class:`~repro.engine.CheckpointError` instead of being
            merged) and recompute only the unjournaled groups.  Scores
            are bit-identical to an uninterrupted run.  Without
            ``resume``, an existing journal is truncated and the search
            starts fresh.
        memory_budget:
            Optional :class:`~repro.engine.MemoryBudget` capping any
            single packed group's estimated sweep working set; oversized
            groups are split at packing time instead of OOM-killing the
            process (packed engines only; scores unchanged).
        simulate_kernels:
            When true, every pair runs through the dispatched kernel's
            functional simulator instead of ``engine`` (slow; small
            databases only) while counts/timing still come from the
            kernel models.
        collect:
            Observability mode (:data:`repro.obs.COLLECT_MODES`):
            ``"off"`` (default) records nothing, ``"counters"`` fills a
            counter registry, ``"full"`` also traces timed spans per
            phase.  When not off, the merged
            :class:`~repro.obs.RunReport` lands in
            :attr:`last_run_report` — unless an outer
            :func:`repro.obs.collect` session is active, in which case
            this search contributes to it and the outer owner builds
            the report.
        memory_phases:
            With ``collect="full"``, also track per-phase tracemalloc
            peaks, surfaced as ``engine.mem.<phase>.peak_bytes``
            counters and cross-checked against the
            :class:`~repro.engine.MemoryBudget` estimator (ignored
            when this search joins an outer session, which owns the
            session configuration).
        split_threshold:
            The length split, packed engines only: ``"auto"`` (the
            default; tuned per query by
            :func:`repro.app.threshold.tune_split_threshold`) or an
            integer length ``>= 0`` — longer sequences go to the
            strip-sweep kernel, the rest to bulk groups.

        The engine settings are validated once, as a
        :class:`~repro.engine.SearchConfig`.
        """
        if collect not in COLLECT_MODES:
            raise ValueError(
                f"collect must be one of {COLLECT_MODES}, got {collect!r}"
            )
        # Reset per-search accounting up front so a scalar/antidiagonal/
        # simulate_kernels search never leaves a previous batched search's
        # stats visible.
        self.last_engine_report = None
        self.last_run_report = None
        # A pre-packed store searches through its memmapped Database
        # view; the store handle rides along so the batched engines can
        # plan from its index and ship group references to pool workers.
        store: DatabaseStore | None = None
        if isinstance(db, DatabaseStore):
            store = db
            db = store.database
        if not db.has_residues:
            raise ValueError("functional search needs a materialized database")
        if query.alphabet != db.alphabet:
            raise ValueError("query and database alphabets differ")
        config = SearchConfig(
            engine=engine,
            workers=workers,
            group_size=(
                DEFAULT_GROUP_SIZE if group_size is None else group_size
            ),
            split_threshold=split_threshold,
            memory_budget=memory_budget,
            fault_policy=fault_policy,
        )
        if (simulate_kernels or not config.packed) and (
            resume
            or any(
                value is not None
                for value in (
                    checkpoint, fault_policy, memory_budget, split_threshold
                )
            )
        ):
            raise ValueError(
                f"checkpoint, resume, fault_policy, memory_budget and "
                f"split_threshold apply to the packed engines "
                f"{PACKED_ENGINES} only (got engine={engine!r}, "
                f"simulate_kernels={simulate_kernels})"
            )

        if collect == "off" or obs_current().enabled:
            return self._search_traced(
                query, db, store, config, checkpoint, resume,
                simulate_kernels,
            )
        with obs_collect(collect, memory=memory_phases) as instr:
            result, report = self._search_traced(
                query, db, store, config, checkpoint, resume,
                simulate_kernels,
            )
        self.last_run_report = RunReport.from_instrumentation(
            instr,
            engine_report=self.last_engine_report,
            search_report=report,
            meta=self.run_report_meta(
                query,
                db if store is None else store,
                engine="simulate_kernels" if simulate_kernels else engine,
                workers=workers,
            ),
        )
        return result, report

    def run_report_meta(
        self,
        query: Sequence,
        db: Database | DatabaseStore,
        *,
        engine: str,
        workers: int,
        database: str | None = None,
    ) -> dict[str, Any]:
        """The ``meta`` section of a search's :class:`~repro.obs.RunReport`.

        ``database`` is an optional label (the CLI passes the path it
        searched); a :class:`~repro.engine.DatabaseStore` adds its path
        as ``database_store``.
        """
        view = db.database if isinstance(db, DatabaseStore) else db
        meta: dict[str, Any] = {
            "query_id": query.id,
            "query_length": len(query),
        }
        if database is not None:
            meta["database"] = database
        meta.update(
            database_sequences=len(view),
            database_residues=view.total_residues,
            engine=engine,
            workers=workers,
            device=self.device.name,
        )
        if isinstance(db, DatabaseStore):
            meta["database_store"] = str(db.path)
        return meta

    def _search_traced(
        self,
        query: Sequence,
        db: Database,
        store: DatabaseStore | None,
        config: SearchConfig,
        checkpoint: str | os.PathLike | None,
        resume: bool,
        simulate_kernels: bool,
    ) -> tuple[SearchResult, SearchReport]:
        """The search pipeline, phases wrapped in ambient-tracer spans."""
        instr = obs_current()
        with instr.span("search"):
            with instr.span("threshold_resolve"):
                threshold = self._resolve_threshold(len(query), db)
            # Per-query work hoisted out of the pair loop: encode/validate
            # the query once; the batched engine likewise builds its query
            # profile once per search.
            with instr.span("query_encode"):
                q_codes = as_codes(query, self.matrix)

            if simulate_kernels:
                with instr.span("simulate_kernels"):
                    scores = np.zeros(len(db), dtype=np.int64)
                    for i in range(len(db)):
                        d_codes = db.codes_of(i)
                        kernel: PairKernel = (
                            self.intra_kernel
                            if d_codes.size >= threshold
                            else self.inter_kernel
                        )
                        scores[i] = kernel.run_pair(
                            q_codes, d_codes, self.matrix, self.gaps
                        ).score
            elif config.packed:
                scores, self.last_engine_report = BatchedEngine(
                    self.matrix, self.gaps, config
                ).search(
                    q_codes,
                    store if store is not None else db,
                    checkpoint=checkpoint,
                    resume=resume,
                )
            else:
                score_pair = (
                    sw_score_scalar
                    if config.engine == "scalar"
                    else sw_score_antidiagonal
                )
                with instr.span("pair_loop"):
                    scores = np.zeros(len(db), dtype=np.int64)
                    for i in range(len(db)):
                        scores[i] = score_pair(
                            q_codes, db.codes_of(i), self.matrix, self.gaps
                        )
                    instr.count("engine.pairs_scored", len(db))

            with instr.span("collect_results"):
                result = SearchResult(
                    query_id=query.id,
                    scores=scores,
                    ids=tuple(db.id_of(i) for i in range(len(db))),
                    lengths=db.lengths.copy(),
                )
            with instr.span("model"):
                report = self.predict(len(query), db)
        return result, report
