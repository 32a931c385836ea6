"""Multi-query searches.

Real search campaigns run query *sets* (the paper itself evaluates a
ladder of 20 queries).  The batch API runs them against one database,
reusing the preprocessing (sort/split/partition happen once per database
in CUDASW++), and aggregates the modeled timing into campaign-level
GCUPs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any

from repro.app.cudasw import CudaSW, SearchReport
from repro.app.results import SearchResult
from repro.engine import DatabaseStore
from repro.obs import (
    COLLECT_MODES,
    RunReport,
    collect as obs_collect,
    current as obs_current,
)
from repro.sequence.database import Database
from repro.sequence.sequence import Sequence

__all__ = ["BatchReport", "predict_batch", "search_batch"]


@dataclass(frozen=True)
class BatchReport:
    """Aggregated outcome of a multi-query campaign."""

    reports: tuple[SearchReport, ...]

    def __post_init__(self) -> None:
        if not self.reports:
            raise ValueError("a batch needs at least one query")

    @property
    def total_time(self) -> float:
        """End-to-end time: the database is copied once, searches run
        back to back."""
        compute = sum(r.compute_time for r in self.reports)
        transfer = max(r.transfer_time for r in self.reports)
        return compute + transfer

    @property
    def total_cells(self) -> int:
        """DP cells across every query in the campaign."""
        return sum(r.total_cells for r in self.reports)

    @property
    def gcups(self) -> float:
        """Campaign-level GCUPs (all queries' cells over the wall time)."""
        return self.total_cells / self.total_time / 1e9

    @property
    def per_query_gcups(self) -> tuple[float, ...]:
        """Each query's own modeled GCUPs, in campaign order."""
        return tuple(r.gcups for r in self.reports)

    def worst_query(self) -> SearchReport:
        """The query with the lowest modeled GCUPs."""
        return min(self.reports, key=lambda r: r.gcups)


def predict_batch(
    app: CudaSW, query_lengths: list[int], db: Database
) -> BatchReport:
    """Model a multi-query campaign from query lengths alone."""
    if not query_lengths:
        raise ValueError("a batch needs at least one query")
    return BatchReport(
        reports=tuple(app.predict(m, db) for m in query_lengths)
    )


def search_batch(
    app: CudaSW,
    queries: list[Sequence],
    db: Database | DatabaseStore,
    *,
    checkpoint: str | os.PathLike | None = None,
    collect: str = "off",
    **options: Any,
) -> tuple[list[SearchResult], BatchReport]:
    """Functionally search every query; returns per-query results plus
    the aggregated report.

    ``db`` may be an opened :class:`~repro.engine.DatabaseStore`: every
    query of the campaign reads the same memmapped residues, and
    re-tunes its split and re-plans its groups for its own length from
    the store's in-memory index.

    ``options`` are the keyword options of :meth:`CudaSW.search`
    (``engine``, ``workers``, ``group_size``, ``split_threshold``,
    ``fault_policy``, ``memory_budget``, ``resume``, ...), applied to
    every query's search; an unknown one raises :class:`TypeError`
    there.  A fault policy's deadline is per query, not per campaign.

    ``checkpoint`` names a *base* path for crash-safe write-ahead
    journals, one per query: query ``i`` journals to
    ``<checkpoint>.q<i>`` (zero-padded).  With ``resume=True``,
    already-complete queries replay entirely from their journals and a
    partially journaled query recomputes only its missing groups, so a
    killed campaign restarts from where it died.

    ``collect`` (``"off"|"counters"|"full"``) opens one campaign-level
    observability session spanning every query: per-query phase spans
    and counters accumulate into a single :class:`~repro.obs.RunReport`
    stored on ``app.last_run_report`` (spans/counters from all queries
    merged; an already-active outer session is reused instead).
    """
    if not queries:
        raise ValueError("a batch needs at least one query")
    if collect not in COLLECT_MODES:
        raise ValueError(
            f"collect must be one of {COLLECT_MODES}, got {collect!r}"
        )

    def run() -> tuple[list[SearchResult], BatchReport]:
        results = []
        reports = []
        for i, query in enumerate(queries):
            journal_path = (
                None
                if checkpoint is None
                else f"{os.fspath(checkpoint)}.q{i:04d}"
            )
            result, report = app.search(
                query, db, checkpoint=journal_path, **options
            )
            results.append(result)
            reports.append(report)
        return results, BatchReport(reports=tuple(reports))

    if collect == "off" or obs_current().enabled:
        return run()
    with obs_collect(collect) as instr:
        instr.count("batch.queries", len(queries))
        out = run()
    db_view = db.database if isinstance(db, DatabaseStore) else db
    meta = {
        "batch_queries": len(queries),
        "database_sequences": len(db_view),
        "database_residues": db_view.total_residues,
        "engine": options.get("engine", "batched"),
        "workers": options.get("workers", 1),
        "campaign_gcups": out[1].gcups,
    }
    if isinstance(db, DatabaseStore):
        meta["database_store"] = str(db.path)
    app.last_run_report = RunReport.from_instrumentation(
        instr,
        engine_report=app.last_engine_report,
        meta=meta,
    )
    return out
