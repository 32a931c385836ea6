"""Throughput comparison of the functional scoring engines.

Times the four selectable ``CudaSW.search`` backends on a 1,000-sequence
Swiss-Prot-shaped database (log-normal body plus titin-class heavy tail,
drawn from :data:`SWISSPROT_PROFILE`):

* ``scalar``       — ``sw_score_scalar`` per pair, timed on a stratified
  subset and extrapolated by residue count (the full run takes minutes);
* ``antidiagonal`` — ``sw_score_antidiagonal`` per pair over the full
  database;
* ``batched``      — the inter-sequence engine, at one worker and at
  ``cpu_count`` workers;
* ``striped``      — the same packed pipeline with the Farrar striped
  lane kernel and saturating 8/16-bit score tiers
  (:mod:`repro.engine.striped`);
* ``hetero``       — length-threshold dispatch: bulk groups on the
  striped engine, the long tail on the strip-sweep engine
  (:mod:`repro.engine.strips`), threshold auto-tuned per database.

``--tail N`` appends ``N`` guaranteed long sequences (>= 3,500
residues) to the database, making it bimodal the way real protein
databases are — the shape the heterogeneous dispatcher exists for and
the one the CI smoke gate uses to require ``hetero`` to beat the best
single engine.

Results are emitted through the observability layer's
:class:`~repro.obs.RunReport` writer: *every* engine runs under its own
``repro.obs.collect("full")`` session, so each entry in the report's
``engines`` section carries that engine's per-phase span seconds and
histogram summaries (per-group sweep seconds, padding efficiency,
lazy-F rounds), and the single-worker batched session additionally
provides the report's top-level ``spans``/``counters``/``histograms``.
The report embeds host/platform and NumPy version metadata plus a
monotonic ``run_index`` so entries stay comparable across machines and
runs.  Written to the repository root so the measured speedups travel
with the code.

Unless ``--no-history`` is given, the run also appends one JSONL entry
per engine to ``BENCH_history.jsonl`` — host-normalized MCUPs keyed by
``(engine, sequences, query_length)`` — which is what the CI
perf-regression gate (``python -m repro bench gate``, see
:mod:`repro.obs.perfgate`) compares against.  Run directly:

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py

(``--skip-scalar`` drops the slow extrapolated scalar reference, which
otherwise dominates wall time; ``--sequences``/``--out``/``--history``/
``--trace-out`` resize and redirect the run) or through pytest (a
reduced-size smoke variant):

    pytest benchmarks/bench_engine_throughput.py -s
"""

from __future__ import annotations

import argparse
import os
import pathlib
import platform
import tempfile
import time

import numpy as np

from repro import obs
from repro.alphabet import BLOSUM62, GapPenalty
from repro.engine import (
    SearchConfig,
    DEFAULT_GROUP_SIZE,
    BatchedEngine,
    build_store,
    open_database,
)
from repro.sequence import (
    Database,
    SWISSPROT_PROFILE,
    Sequence,
    random_protein,
)
from repro.sw import sw_score_antidiagonal, sw_score_scalar

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_engine.json"
HISTORY_PATH = REPO_ROOT / "BENCH_history.jsonl"

DB_SEQUENCES = 1_000
QUERY_LENGTH = 200
SCALAR_SUBSET = 25  # scalar reference is timed on a subset, then extrapolated
SEED = 42


def build_database(
    n_sequences: int,
    rng: np.random.Generator,
    *,
    tail_sequences: int = 0,
    tail_length: int = 3_600,
) -> Database:
    """A materialized Swiss-Prot-shaped database of ``n_sequences``,
    plus ``tail_sequences`` guaranteed long outliers in
    ``[tail_length, 1.15 x tail_length)`` — the bimodal shape the
    heterogeneous dispatcher targets."""
    scale = n_sequences / SWISSPROT_PROFILE.n_sequences
    db = SWISSPROT_PROFILE.build(rng, scale=scale, materialize=True)
    if tail_sequences == 0:
        return db
    tail = [
        Sequence.random(
            f"tail{i}",
            int(rng.integers(tail_length, int(tail_length * 1.15))),
            rng,
        )
        for i in range(tail_sequences)
    ]
    return Database.from_sequences(list(db) + tail)


def host_metadata() -> dict:
    """Host/toolchain identity embedded in every emitted report, so
    BENCH_engine.json entries are comparable across machines."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _session_observation(instr) -> dict:
    """One engine session's phase/histogram summary for the report."""
    session = obs.RunReport.from_instrumentation(instr)
    histograms = {}
    for name, data in session.histograms.items():
        hist = obs.Histogram.from_dict(name, data)
        histograms[name] = {
            "count": hist.count,
            "sum": hist.sum,
            "p50": hist.p50,
            "p95": hist.p95,
            "max": hist.max,
        }
    return {
        "phases": session.span_seconds(),
        "histograms": histograms,
    }


def time_scalar_extrapolated(query, db: Database, gaps: GapPenalty) -> dict:
    """Time the scalar reference on a stratified subset, scale by residues.

    Every ``k``-th sequence of the length-diverse database is scored, so
    the subset sees the same length mix as the whole; scalar cost is
    proportional to scored cells, which makes residue-ratio extrapolation
    faithful.
    """
    stride = max(len(db) // SCALAR_SUBSET, 1)
    subset = np.arange(0, len(db), stride)[:SCALAR_SUBSET]
    subset_residues = int(db.lengths[subset].sum())

    def run():
        for i in subset:
            sw_score_scalar(query.codes, db.codes_of(int(i)), BLOSUM62, gaps)

    measured = _time(run)
    factor = db.total_residues / subset_residues
    return {
        "subset_sequences": int(len(subset)),
        "subset_residues": subset_residues,
        "subset_seconds": measured,
        "extrapolation_factor": factor,
        "seconds": measured * factor,
    }


def time_antidiagonal(query, db: Database, gaps: GapPenalty) -> float:
    def run():
        for i in range(len(db)):
            sw_score_antidiagonal(query.codes, db.codes_of(i), BLOSUM62, gaps)

    return _time(run)


def time_batched(query, db, gaps: GapPenalty, *,
                 workers: int, group_size: int,
                 engine: str = "batched") -> tuple[float, object, object]:
    """Time one packed-engine configuration; returns ``(seconds,
    EngineReport, collection session)``.

    The search runs three times and the *minimum* wall time is
    reported: the packed sweeps finish in well under a second at smoke
    scale, where single-shot timings on shared runners swing tens of
    percent.  The first two runs are uninstrumented (the first doubling
    as warm-up); the last runs under its own ``collect("full")``
    session so the returned session's counters and histograms describe
    exactly one search.
    """
    batched = BatchedEngine(
        BLOSUM62, gaps,
        SearchConfig(engine=engine, workers=workers, group_size=group_size),
    )
    holder = {}

    def run():
        holder["out"] = batched.search(query, db)

    warm_seconds = min(_time(run), _time(run))
    with obs.collect("full") as session:
        timed_seconds = _time(run)
    _, report = holder["out"]
    return min(warm_seconds, timed_seconds), report, session


def run_benchmark(
    *,
    n_sequences: int = DB_SEQUENCES,
    query_length: int = QUERY_LENGTH,
    group_size: int = DEFAULT_GROUP_SIZE,
    seed: int = SEED,
    skip_scalar: bool = False,
    run_index: int = 1,
    tail_sequences: int = 0,
    tail_length: int = 3_600,
) -> obs.RunReport:
    rng = np.random.default_rng(seed)
    db = build_database(
        n_sequences, rng,
        tail_sequences=tail_sequences, tail_length=tail_length,
    )
    query = random_protein(query_length, rng, id="bench-query")
    gaps = GapPenalty.cudasw_default()
    cells = query_length * db.total_residues
    n_workers = max(os.cpu_count() or 1, 2)

    # Every engine runs under its own collection session, so each
    # report entry carries that engine's phase and histogram breakdown.
    scalar = None
    scalar_obs = None
    if not skip_scalar:
        with obs.collect("full") as session:
            with session.span("pair_loop"):
                scalar = time_scalar_extrapolated(query, db, gaps)
        scalar_obs = _session_observation(session)
    with obs.collect("full") as session:
        with session.span("pair_loop"):
            anti_seconds = time_antidiagonal(query, db, gaps)
    anti_obs = _session_observation(session)
    # The single-worker batched session doubles as the report's
    # top-level spans/counters/histograms.
    batched_seconds, report, instr = time_batched(
        query, db, gaps, workers=1, group_size=group_size
    )
    batched_obs = _session_observation(instr)
    fanned_seconds, _, session = time_batched(
        query, db, gaps, workers=n_workers, group_size=group_size
    )
    fanned_obs = _session_observation(session)
    # The same batched configurations against a pre-packed .rdb store:
    # memmapped residues, stored geometry, and (fanned) index-reference
    # payloads to workers instead of pickled lane matrices.
    with tempfile.TemporaryDirectory() as store_dir:
        store = open_database(
            build_store(
                db, pathlib.Path(store_dir) / "bench.rdb",
                group_size=group_size,
            ).path
        )
        db_seconds, _, session = time_batched(
            query, store, gaps, workers=1, group_size=group_size
        )
        db_obs = _session_observation(session)
        db_fanned_seconds, _, session = time_batched(
            query, store, gaps, workers=n_workers, group_size=group_size
        )
        db_fanned_obs = _session_observation(session)
    striped_seconds, _, session = time_batched(
        query, db, gaps, workers=1, group_size=group_size,
        engine="striped",
    )
    striped_obs = _session_observation(session)
    hetero_seconds, hetero_report, session = time_batched(
        query, db, gaps, workers=1, group_size=group_size,
        engine="hetero",
    )
    hetero_obs = _session_observation(session)
    hetero_fanned_seconds, _, session = time_batched(
        query, db, gaps, workers=n_workers, group_size=group_size,
        engine="hetero",
    )
    hetero_fanned_obs = _session_observation(session)

    def gcups(seconds: float) -> float:
        return cells / seconds / 1e9

    # Engine keys are canonical (independent of this host's cpu count)
    # so history entries from different machines gate against each
    # other; the fanned worker count is recorded alongside instead.
    engines = {}
    if scalar is not None:
        engines["scalar"] = {
            "seconds": scalar["seconds"],
            "gcups": gcups(scalar["seconds"]),
            "extrapolated_from": {
                k: v for k, v in scalar.items() if k != "seconds"
            },
            **scalar_obs,
        }
    engines["antidiagonal"] = {
        "seconds": anti_seconds,
        "gcups": gcups(anti_seconds),
        **anti_obs,
    }
    engines["batched"] = {
        "seconds": batched_seconds,
        "gcups": gcups(batched_seconds),
        **batched_obs,
    }
    engines["batched_fanned"] = {
        "seconds": fanned_seconds,
        "gcups": gcups(fanned_seconds),
        "workers": n_workers,
        **fanned_obs,
    }
    engines["batched_db"] = {
        "seconds": db_seconds,
        "gcups": gcups(db_seconds),
        **db_obs,
    }
    engines["batched_db_fanned"] = {
        "seconds": db_fanned_seconds,
        "gcups": gcups(db_fanned_seconds),
        "workers": n_workers,
        **db_fanned_obs,
    }
    engines["striped"] = {
        "seconds": striped_seconds,
        "gcups": gcups(striped_seconds),
        **striped_obs,
    }
    engines["hetero"] = {
        "seconds": hetero_seconds,
        "gcups": gcups(hetero_seconds),
        "split_threshold": hetero_report.split_threshold,
        "lane_engines": sorted(set(hetero_report.lane_engines)),
        **hetero_obs,
    }
    engines["hetero_fanned"] = {
        "seconds": hetero_fanned_seconds,
        "gcups": gcups(hetero_fanned_seconds),
        "workers": n_workers,
        **hetero_fanned_obs,
    }

    speedups = {
        "batched_vs_antidiagonal": anti_seconds / batched_seconds,
        "striped_vs_antidiagonal": anti_seconds / striped_seconds,
        "striped_vs_batched": batched_seconds / striped_seconds,
        "hetero_vs_striped": striped_seconds / hetero_seconds,
        "hetero_vs_batched": batched_seconds / hetero_seconds,
    }
    if scalar is not None:
        speedups["batched_vs_scalar"] = scalar["seconds"] / batched_seconds
        speedups["striped_vs_scalar"] = scalar["seconds"] / striped_seconds
        speedups["antidiagonal_vs_scalar"] = scalar["seconds"] / anti_seconds

    result = {
        "benchmark": "engine_throughput",
        "run_index": run_index,
        "host": host_metadata(),
        "database": {
            "profile": SWISSPROT_PROFILE.name,
            "sequences": len(db),
            "residues": db.total_residues,
            "min_length": int(db.lengths.min()),
            "median_length": float(np.median(db.lengths)),
            "max_length": int(db.lengths.max()),
            "tail_sequences": tail_sequences,
        },
        "query_length": query_length,
        "cells": cells,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "group_size": group_size,
        "skip_scalar": skip_scalar,
        "packing": {
            "n_groups": report.n_groups,
            "padding_efficiency": report.padding_efficiency,
        },
        "engines": engines,
        "speedups": speedups,
    }
    return obs.RunReport.from_instrumentation(
        instr, engine_report=report, meta=result
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--skip-scalar", action="store_true",
        help="skip the extrapolated scalar reference run (it dominates "
        "wall time); scalar-relative speedups are omitted from the report",
    )
    parser.add_argument(
        "--sequences", type=int, default=DB_SEQUENCES, metavar="N",
        help=f"database size (default {DB_SEQUENCES})",
    )
    parser.add_argument(
        "--tail", type=int, default=0, metavar="N",
        help="append N guaranteed long sequences (>= --tail-length "
        "residues) so the database is bimodal (default 0)",
    )
    parser.add_argument(
        "--tail-length", type=int, default=3_600, metavar="L",
        help="minimum length of the appended tail sequences "
        "(default 3600)",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=OUTPUT_PATH, metavar="PATH",
        help="output report path (default BENCH_engine.json at repo root)",
    )
    parser.add_argument(
        "--history", type=pathlib.Path, default=HISTORY_PATH,
        metavar="PATH",
        help="JSONL history file the perf gate reads "
        "(default BENCH_history.jsonl at repo root)",
    )
    parser.add_argument(
        "--no-history", action="store_true",
        help="do not append this run to the history file",
    )
    parser.add_argument(
        "--trace-out", type=pathlib.Path, default=None, metavar="PATH",
        help="also export the traced batched run as Chrome trace-event "
        "JSON (chrome://tracing / Perfetto)",
    )
    args = parser.parse_args(argv)
    from repro.obs import perfgate

    history = perfgate.read_history(args.history)
    run_index = perfgate.next_run_index(history)
    run_report = run_benchmark(
        n_sequences=args.sequences, skip_scalar=args.skip_scalar,
        run_index=run_index, tail_sequences=args.tail,
        tail_length=args.tail_length,
    )
    run_report.write(args.out)
    if not args.no_history:
        host_factor = perfgate.host_speed_factor()
        meta = run_report.meta
        entries = [
            perfgate.history_entry(
                engine=name,
                sequences=meta["database"]["sequences"],
                query_length=meta["query_length"],
                mcups=run["gcups"] * 1000.0,
                run_index=run_index,
                host_factor=host_factor,
            )
            for name, run in meta["engines"].items()
        ]
        perfgate.append_history(args.history, entries)
        print(
            f"appended run {run_index} ({len(entries)} engines, host "
            f"factor {host_factor:.3f}) to {args.history}"
        )
    if args.trace_out is not None:
        run_report.write_trace(args.trace_out)
        print(f"trace written to {args.trace_out}")
    result = run_report.meta
    engines = result["engines"]
    print(f"host: {result['host']['platform']} "
          f"(numpy {result['host']['numpy']})")
    print(f"database: {result['database']['sequences']} sequences, "
          f"{result['database']['residues']:,} residues "
          f"(lengths {result['database']['min_length']}.."
          f"{result['database']['max_length']})")
    print(f"query length: {result['query_length']}, "
          f"cells: {result['cells']:,}")
    for name, run in engines.items():
        print(f"  {name:24s} {run['seconds']:8.2f} s   "
              f"{run['gcups'] * 1000:8.3f} MCUPs")
    sp = result["speedups"]
    print(f"batched vs antidiagonal: {sp['batched_vs_antidiagonal']:.1f}x")
    print(f"striped vs antidiagonal: {sp['striped_vs_antidiagonal']:.1f}x")
    print(f"striped vs batched:      {sp['striped_vs_batched']:.2f}x")
    print(f"hetero vs striped:       {sp['hetero_vs_striped']:.2f}x "
          f"(split threshold "
          f"{engines['hetero']['split_threshold']})")
    if "batched_vs_scalar" in sp:
        print(f"batched vs scalar:       {sp['batched_vs_scalar']:.1f}x")
    print("batched phase breakdown (1-worker run):")
    for path, seconds in sorted(run_report.span_seconds().items()):
        print(f"  {path:32s} {seconds * 1e3:10.3f} ms")
    print(f"wrote {args.out}")


def test_batched_beats_antidiagonal():
    """Smoke-scale variant for pytest runs of the benchmarks directory."""
    run_report = run_benchmark(
        n_sequences=120, query_length=60, skip_scalar=True, run_index=7
    )
    assert run_report.meta["speedups"]["batched_vs_antidiagonal"] > 1.0
    assert run_report.meta["speedups"]["striped_vs_antidiagonal"] > 1.0
    # The traced batched run must expose the pack/sweep phase breakdown
    # and agree with the engine's packing accounting bit-exactly.
    phases = {p.split("/")[-1] for p in run_report.span_seconds()}
    assert {"pack", "fan_out", "sweep"} <= phases
    assert (
        run_report.counters["engine.pack.padded_cells"]
        == run_report.engine["padded_cells"]
    )
    # Every engine entry carries its own session's phase seconds and
    # histogram summaries; the packed engines must have observed the
    # per-group distributions.
    assert run_report.meta["run_index"] == 7
    engines = run_report.meta["engines"]
    for name, run in engines.items():
        assert "phases" in run and "histograms" in run, name
        assert run["phases"], f"{name} recorded no phase seconds"
    for name in ("batched", "batched_fanned", "striped"):
        hists = engines[name]["histograms"]
        assert hists["engine.sweep.group_seconds"]["count"] > 0
        assert hists["engine.pack.group_efficiency"]["count"] > 0
    assert engines["striped"]["histograms"][
        "engine.striped.lazy_f_rounds"
    ]["count"] > 0
    # Host metadata travels with every report (cross-machine comparisons).
    assert run_report.meta["host"]["numpy"] == np.__version__


def test_hetero_beats_single_engines_on_bimodal_db():
    """Smoke-scale version of the CI bimodal gate: with a guaranteed
    long tail, the heterogeneous dispatcher must beat every single
    engine, and its auto-tuned threshold must actually split."""
    run_report = run_benchmark(
        n_sequences=120, query_length=60, skip_scalar=True, run_index=8,
        tail_sequences=3,
    )
    engines = run_report.meta["engines"]
    hetero = engines["hetero"]
    assert hetero["lane_engines"] == ["striped", "strips"]
    # Equal-resources comparison: serial hetero vs the serial single
    # engines (the fanned configs race their own worker counts).
    best_single = max(
        run["gcups"] for name, run in engines.items()
        if name not in ("hetero", "hetero_fanned")
        and not name.endswith("_fanned")
    )
    assert hetero["gcups"] >= best_single, engines
    assert run_report.meta["database"]["max_length"] >= 3_600


if __name__ == "__main__":
    main()
