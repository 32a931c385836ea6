"""Structured run reports: spans + counters + engine/model accounting.

:class:`RunReport` is the single versioned JSON document a profiled run
produces — the merge of the span forest (phase timings, parent process
plus pid-tagged worker lanes), the counter registry (Table I-style work
totals), the histogram registry (distributions: per-group sweep
seconds, padding efficiency, …), the batched engine's
:class:`~repro.engine.EngineReport` (packing accounting) and the
modeled :class:`~repro.app.cudasw.SearchReport` (device timing model).
The CLI's ``--metrics-out`` writes it, ``--profile`` renders it,
``--trace-out`` exports the span forest as Chrome trace-event JSON,
and benchmarks emit their results through the same writer so
``BENCH_*`` artifacts carry phase breakdowns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.obs.context import AnyInstrumentation
from repro.obs.spans import Span

if TYPE_CHECKING:
    from repro.app.cudasw import SearchReport
    from repro.engine import EngineReport

__all__ = [
    "RunReport",
    "SCHEMA_VERSION",
]

#: Version of the JSON document layout.  Bump on breaking changes.
#: v2 added ``histograms``, ``worker_lanes`` and ``pid``; v3 replaced
#: the engine section's ``lane_engine`` with ``lane_engines`` (the
#: sorted, distinct lane kernels the search's groups were swept with).
SCHEMA_VERSION = 3


def _engine_report_dict(engine_report: EngineReport) -> dict[str, Any]:
    return {
        "group_size": engine_report.group_size,
        "workers": engine_report.workers,
        "lane_engines": sorted(set(engine_report.lane_engines)),
        "split_threshold": engine_report.split_threshold,
        "n_groups": engine_report.n_groups,
        "group_sizes": list(engine_report.group_sizes),
        "group_max_lengths": list(engine_report.group_max_lengths),
        "group_efficiencies": list(engine_report.group_efficiencies),
        "residues": engine_report.residues,
        "padded_cells": engine_report.padded_cells,
        "padding_efficiency": engine_report.padding_efficiency,
    }


def _search_report_dict(search_report: SearchReport) -> dict[str, Any]:
    return {
        "device": search_report.device,
        "query_length": search_report.query_length,
        "threshold": search_report.threshold,
        "n_inter_sequences": search_report.n_inter_sequences,
        "n_intra_sequences": search_report.n_intra_sequences,
        "inter_time": search_report.inter_time,
        "intra_time": search_report.intra_time,
        "transfer_time": search_report.transfer_time,
        "total_time": search_report.total_time,
        "gcups": search_report.gcups,
        "load_balance_efficiency": search_report.load_balance_efficiency,
        "total_cells": search_report.total_cells,
        "inter_global_transactions":
            search_report.inter_counts.global_transactions,
        "intra_global_transactions":
            search_report.intra_counts.global_transactions,
    }


@dataclass(frozen=True)
class RunReport:
    """One run's merged observability document."""

    collect: str
    spans: tuple[Span, ...] = ()
    counters: dict[str, int] = field(default_factory=dict)
    histograms: dict[str, dict[str, Any]] = field(default_factory=dict)
    worker_lanes: dict[int, tuple[Span, ...]] = field(default_factory=dict)
    engine: dict[str, Any] | None = None
    model: dict[str, Any] | None = None
    meta: dict[str, Any] = field(default_factory=dict)
    pid: int = 0

    # -- construction ---------------------------------------------------
    @classmethod
    def from_instrumentation(
        cls,
        instr: AnyInstrumentation,
        *,
        engine_report: EngineReport | None = None,
        search_report: SearchReport | None = None,
        meta: dict[str, Any] | None = None,
    ) -> "RunReport":
        """Snapshot a finished collection session into a report.

        ``engine_report``/``search_report`` are the existing
        :class:`EngineReport` / :class:`SearchReport` objects to merge
        (either may be ``None``).
        """
        spans = () if instr.tracer is None else instr.tracer.roots
        counters = {} if instr.counters is None else instr.counters.as_dict()
        histograms = (
            {} if instr.histograms is None else instr.histograms.as_dict()
        )
        lanes = {
            pid: tuple(lane_spans)
            for pid, lane_spans in getattr(
                instr, "worker_lanes", {}
            ).items()
        }
        return cls(
            collect=instr.mode,
            spans=spans,
            counters=counters,
            histograms=histograms,
            worker_lanes=lanes,
            engine=(
                None if engine_report is None
                else _engine_report_dict(engine_report)
            ),
            model=(
                None if search_report is None
                else _search_report_dict(search_report)
            ),
            meta=dict(meta or {}),
            pid=getattr(instr, "pid", 0),
        )

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": "repro.run_report",
            "schema_version": SCHEMA_VERSION,
            "collect": self.collect,
            "pid": self.pid,
            "spans": [s.as_dict() for s in self.spans],
            "counters": dict(self.counters),
            "histograms": {
                name: dict(data)
                for name, data in sorted(self.histograms.items())
            },
            "worker_lanes": [
                {
                    "pid": pid,
                    "spans": [s.as_dict() for s in lane],
                }
                for pid, lane in sorted(self.worker_lanes.items())
            ],
            "engine": self.engine,
            "model": self.model,
            "meta": dict(self.meta),
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    def write(self, path: str | Path) -> Path:
        """Write the JSON document to ``path`` atomically and return it.

        Uses temp-file-plus-rename so a crash mid-write never leaves a
        truncated (unparseable) report on disk.
        """
        from repro.engine.checkpoint import atomic_write_text

        return atomic_write_text(path, self.to_json())

    # -- trace export ---------------------------------------------------
    def to_trace_dict(self) -> dict[str, Any]:
        """The span forest (worker lanes included) as a Chrome
        trace-event document (see :mod:`repro.obs.trace_export`)."""
        from repro.obs.trace_export import trace_document

        return trace_document(
            self.spans,
            self.worker_lanes,
            main_pid=self.pid,
            meta={"collect": self.collect, **self.meta},
        )

    def to_trace_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_trace_dict(), indent=indent) + "\n"

    def write_trace(self, path: str | Path) -> Path:
        """Atomically write the Chrome trace JSON to ``path``."""
        from repro.engine.checkpoint import atomic_write_text

        return atomic_write_text(path, self.to_trace_json())

    # -- derived views --------------------------------------------------
    def span_seconds(self) -> dict[str, float]:
        """Summed duration per slash-joined span path (parent process
        only; worker lanes are summarized separately)."""
        totals: dict[str, float] = {}
        for root in self.spans:
            for path, span in root.walk():
                totals[path] = totals.get(path, 0.0) + span.seconds
        return totals

    def worker_lane_seconds(self) -> dict[int, dict[str, float]]:
        """Per worker pid: summed duration per slash-joined span path."""
        out: dict[int, dict[str, float]] = {}
        for pid, lane in sorted(self.worker_lanes.items()):
            totals: dict[str, float] = {}
            for root in lane:
                for path, span in root.walk():
                    totals[path] = totals.get(path, 0.0) + span.seconds
            out[pid] = totals
        return out

    def render_profile(self) -> str:
        """The ``--profile`` view: span tree, histogram percentiles,
        worker lanes, counter table."""
        parts = ["== span tree =="]
        if self.spans:
            from repro.obs.spans import render_forest

            parts.append(render_forest(self.spans))
        else:
            parts.append(
                "(no spans recorded"
                + (
                    " — collect mode was 'counters')"
                    if self.collect == "counters"
                    else ")"
                )
            )
        if self.worker_lanes:
            parts.append("")
            parts.append("== worker lanes ==")
            from repro.obs.spans import render_forest

            for pid, lane in sorted(self.worker_lanes.items()):
                busy = sum(s.seconds for s in lane)
                parts.append(
                    f"worker pid {pid}: {len(lane)} spans, "
                    f"{busy * 1e3:.3f} ms busy"
                )
                parts.append(render_forest(lane))
        if self.histograms:
            parts.append("")
            parts.append("== histograms ==")
            parts.append(_render_histograms(self.histograms))
        parts.append("")
        parts.append("== counters ==")
        if self.counters:
            width = max(len(k) for k in self.counters)
            parts.append(
                "\n".join(
                    f"{k:<{width}}  {v:>16,}"
                    for k, v in sorted(self.counters.items())
                )
            )
        else:
            parts.append("(no counters recorded)")
        if self.engine is not None:
            parts.append("")
            parts.append("== engine packing ==")
            parts.append(
                f"groups: {self.engine['n_groups']}  "
                f"residues: {self.engine['residues']:,}  "
                f"padded cells: {self.engine['padded_cells']:,}  "
                f"padding efficiency: "
                f"{self.engine['padding_efficiency']:.3f}"
            )
        return "\n".join(parts)


def _render_histograms(histograms: dict[str, dict[str, Any]]) -> str:
    """Percentile table for ``--profile``: one row per histogram."""
    from repro.obs.histogram import Histogram

    header = (
        f"{'histogram':<40} {'count':>8} {'sum':>12} "
        f"{'p50':>10} {'p95':>10} {'max':>10}"
    )
    rows = [header]
    for name, data in sorted(histograms.items()):
        hist = Histogram.from_dict(name, data)
        if hist.count == 0:
            rows.append(
                f"{name:<40} {0:>8} {'-':>12} {'-':>10} {'-':>10} {'-':>10}"
            )
            continue
        rows.append(
            f"{name:<40} {hist.count:>8} {hist.sum:>12.4g} "
            f"{hist.p50:>10.4g} {hist.p95:>10.4g} {hist.max:>10.4g}"
        )
    return "\n".join(rows)
