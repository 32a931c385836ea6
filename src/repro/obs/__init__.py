"""Observability: tracing spans, counters, structured run reports.

The reproduction's answer to the paper's measurement methodology —
Table I counts global-memory transactions per kernel and Figure 2
measures load-balance efficiency, and those numbers are what justified
the improved intra-task kernel.  This package provides the equivalent
layer for the functional engines and kernel models:

* :mod:`~repro.obs.spans` — nested ``perf_counter`` timed regions (the
  CUDA-event-timing analogue) around each search phase;
* :mod:`~repro.obs.counters` — a dot-namespaced counter registry (the
  Table I methodology) incremented by the engine, the executor (every
  fault-policy retry/timeout/crash/serial-recovery lands in
  ``engine.executor.*``, so a degraded search is fully accounted) and
  the kernel models;
* :mod:`~repro.obs.context` — the ambient activation
  (:func:`collect` / :func:`current`) with a no-op ``off`` mode whose
  overhead the test suite bounds at ≤2%;
* :mod:`~repro.obs.histogram` — fixed-bucket mergeable histograms (the
  distribution companion to the counters: per-group sweep seconds,
  padding efficiency, lazy-F correction rounds, retry delays);
* :mod:`~repro.obs.memphase` — opt-in per-span-phase tracemalloc peaks
  surfaced as ``engine.mem.*`` counters;
* :mod:`~repro.obs.trace_export` — Chrome trace-event JSON export of
  the merged span forest (parent plus pid-tagged worker lanes);
* :mod:`~repro.obs.report` — :class:`RunReport`, the versioned JSON
  merge of spans + counters + histograms + worker lanes +
  :class:`~repro.engine.EngineReport` +
  :class:`~repro.app.cudasw.SearchReport`, with a ``--profile`` text
  rendering and the trace export front end.

Typical use::

    from repro import obs

    with obs.collect("full") as instr:
        result, report = app.search(query, db)
    run_report = obs.RunReport.from_instrumentation(
        instr,
        engine_report=app.last_engine_report,
        search_report=report,
    )
    run_report.write("run.json")

or, turnkey, ``app.search(query, db, collect="full")`` followed by
``app.last_run_report``.  See ``docs/observability.md``.
"""

from repro.obs.context import (
    COLLECT_MODES,
    NO_OP,
    AnyInstrumentation,
    Instrumentation,
    WorkerTelemetry,
    activate,
    collect,
    current,
)
from repro.obs.counters import CounterRegistry
from repro.obs.histogram import (
    BUCKET_SCHEMES,
    DEFAULT_BUCKETS,
    Histogram,
    HistogramRegistry,
    bucket_scheme,
)
from repro.obs.memphase import MemoryPhaseTracker
from repro.obs.report import SCHEMA_VERSION, RunReport
from repro.obs.spans import Span, SpanPhaseHook, Tracer, render_forest
from repro.obs.trace_export import trace_document, trace_json

__all__ = [
    "COLLECT_MODES",
    "NO_OP",
    "AnyInstrumentation",
    "Instrumentation",
    "WorkerTelemetry",
    "activate",
    "collect",
    "current",
    "CounterRegistry",
    "BUCKET_SCHEMES",
    "DEFAULT_BUCKETS",
    "Histogram",
    "HistogramRegistry",
    "bucket_scheme",
    "MemoryPhaseTracker",
    "SCHEMA_VERSION",
    "RunReport",
    "Span",
    "SpanPhaseHook",
    "Tracer",
    "render_forest",
    "trace_document",
    "trace_json",
]
