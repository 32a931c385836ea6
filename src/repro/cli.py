"""Command-line interface.

Five subcommands::

    python -m repro align   A.fasta B.fasta        # pairwise alignment
    python -m repro search  query.fasta db.fasta   # database search + E-values
    python -m repro predict --profile swissprot    # modeled GCUPs report
    python -m repro exhibit figure3                # regenerate a paper exhibit
    python -m repro db build db.fasta db.rdb       # pre-packed binary store

Every subcommand accepts ``--help``.  The functions return process exit
codes and print to the handles passed in, so the test suite drives them
directly.  Exit codes: 0 success, 2 usage/stale-checkpoint errors, 3
search deadline exceeded, 4 a ``.rdb`` database store was refused
(see ``docs/db-format.md``), 130 interrupted.
"""

from __future__ import annotations

import argparse
import sys
from typing import IO, Sequence as TySequence

import numpy as np

from repro.alphabet import BLOSUM62, GapPenalty, load_ncbi_matrix
from repro.app import CudaSW
from repro.cuda.device import DEVICES
from repro.engine import PACKED_ENGINES, SEARCH_ENGINES
from repro.sequence import read_fasta_file
from repro.sequence.database import Database
from repro.sequence.synthetic import PAPER_DATABASES

__all__ = ["main", "build_parser"]

_PROFILE_ALIASES = {
    "swissprot": "UniProtKB/Swiss-Prot",
    "tair": "TAIR Arabidopsis Proteins",
    "dog": "Ensembl Dog Proteins",
    "rat": "Ensembl Rat Proteins",
    "human": "NCBI RefSeq Human Proteins",
    "mouse": "NCBI RefSeq Mouse Proteins",
}

def _threshold_arg(value: str):
    """argparse type: a positive integer or the literal 'auto'."""
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"threshold must be an integer or 'auto', got {value!r}"
        ) from None


#: The engines the packed-only flags apply to, for their help text.
_PACKED = "/".join(PACKED_ENGINES)

_EXHIBITS = (
    "figure2", "figure3", "figure5", "figure6", "figure7",
    "table1", "table2", "param_exploration", "ablation_variants",
    "threshold_tuning", "future_work", "sensitivity_analysis",
    "scalability_comparison", "checks",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Smith-Waterman database search on a CUDA device model "
        "(reproduction of 'Improving CUDASW++', IPDPS 2011)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scoring(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--matrix", default=None, metavar="FILE",
            help="NCBI-format substitution matrix file (default: BLOSUM62)",
        )
        p.add_argument("--gap-open", type=int, default=10)
        p.add_argument("--gap-extend", type=int, default=2)

    p_align = sub.add_parser("align", help="align two FASTA sequences")
    p_align.add_argument("query", help="FASTA file (first record is used)")
    p_align.add_argument("subject", help="FASTA file (first record is used)")
    p_align.add_argument(
        "--mode", choices=("local", "global"), default="local"
    )
    add_scoring(p_align)

    p_search = sub.add_parser("search", help="search a FASTA database")
    p_search.add_argument("query", help="query FASTA file")
    p_search.add_argument(
        "database", nargs="?", default=None,
        help="database FASTA file (optional when --db names a store; "
        "required as the --db-fallback source)",
    )
    p_search.add_argument(
        "--db", metavar="PATH", default=None,
        help="search a pre-packed .rdb database store (repro db build) "
        "instead of re-reading the FASTA: residues are memory-mapped, "
        "each search plans its groups from the in-memory index, and "
        "pool workers receive group references instead of pickled "
        "arrays; scores are bit-identical to the FASTA path.  A store that "
        "fails validation exits with code 4 (see repro db verify)",
    )
    p_search.add_argument(
        "--db-verify", choices=("fast", "deep"), default="fast",
        help="store validation tier at open: 'fast' (default) checks "
        "the header and every index section, 'deep' additionally "
        "CRC-walks the residue blob, recomputes the content "
        "fingerprint and re-checks the length sort",
    )
    p_search.add_argument(
        "--db-fallback", action="store_true",
        help="degrade gracefully when the --db store is refused: warn, "
        "then build the database in memory from the FASTA positional "
        "argument (the pre-store pack path) instead of exiting 4",
    )
    p_search.add_argument("--top", type=int, default=10)
    p_search.add_argument(
        "--max-evalue", type=float, default=None,
        help="only report hits at or below this E-value",
    )
    p_search.add_argument(
        "--device", choices=sorted(DEVICES), default="C1060"
    )
    p_search.add_argument(
        "--kernel", choices=("original", "improved"), default="improved"
    )
    p_search.add_argument(
        "--threshold", type=_threshold_arg, default=3072,
        help="dispatch threshold (integer, or 'auto' for Section VI "
        "detection)",
    )
    p_search.add_argument(
        "--engine",
        choices=SEARCH_ENGINES,
        default="batched",
        help="functional score backend (all bit-identical): 'batched' "
        "(default) and its alias 'hetero' score whole length-sorted "
        "groups per NumPy sweep, the long tail as bounded-padding strip "
        "groups, each bulk group with the row (gotoh) or Farrar striped "
        "kernel a fitted cost model picks for the query length; "
        "'antidiagonal' is the per-pair wavefront aligner, 'scalar' the "
        "slow textbook reference",
    )
    p_search.add_argument(
        "--split-threshold", type=_threshold_arg, default=None,
        metavar="auto|N",
        help="route sequences longer than N to the strip kernel ('auto', "
        "the default, tunes N per query with the kernel cost model; "
        f"{_PACKED} engines only)",
    )
    p_search.add_argument(
        "--workers", type=int, default=1,
        help=f"worker processes for the group fan-out of the {_PACKED} "
        "engines (1 = serial)",
    )
    p_search.add_argument(
        "--group-size", type=int, default=None, metavar="N",
        help="lanes per packed group (default: the engine's tuned "
        f"default; {_PACKED} engines only)",
    )
    p_search.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="crash-safe write-ahead journal: append each completed "
        "group's scores to PATH (fsync'd, CRC-checked) so a killed "
        f"search can be resumed with --resume ({_PACKED} engines only)",
    )
    p_search.add_argument(
        "--resume", action="store_true",
        help="replay the --checkpoint journal (content-validated "
        "against this query/database/scoring) and recompute only the "
        "unjournaled groups; scores are bit-identical to an "
        "uninterrupted run",
    )
    p_search.add_argument(
        "--memory-budget-mb", type=float, default=None, metavar="MB",
        help="cap any single group's estimated sweep working set at MB "
        "mebibytes; oversized groups are split at packing time instead "
        f"of OOM-killing the process ({_PACKED} engines only)",
    )
    p_search.add_argument(
        "--scores-out", metavar="PATH", default=None,
        help="write every sequence's score as TSV to PATH (atomic "
        "temp-file-plus-rename write)",
    )
    p_search.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="abandon and retry any dispatched work unit running longer "
        f"than this ({_PACKED} engines with --workers > 1; default: "
        "never)",
    )
    p_search.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="pool retries per failed/timed-out work unit before it is "
        f"recomputed serially ({_PACKED} engines; default: 2)",
    )
    p_search.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="whole-search wall-clock budget; on expiry the search "
        "aborts with the partial completion summary "
        f"({_PACKED} engines; default: none)",
    )
    p_search.add_argument(
        "--profile", action="store_true",
        help="trace the search and print a span tree (per-phase timings) "
        "plus the counter table after the hits",
    )
    p_search.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the run's merged observability report (spans + "
        "counters + histograms + packing + timing model) as JSON to PATH",
    )
    p_search.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="export the traced span forest (parent search plus "
        "per-worker lanes) as Chrome trace-event JSON to PATH — load "
        "it in chrome://tracing or https://ui.perfetto.dev",
    )
    p_search.add_argument(
        "--mem-phases", action="store_true",
        help="track per-phase tracemalloc peak memory "
        "(engine.mem.<phase>.peak_bytes counters; implies tracing)",
    )
    add_scoring(p_search)

    p_predict = sub.add_parser(
        "predict", help="model a search's run time and GCUPs"
    )
    src = p_predict.add_mutually_exclusive_group(required=True)
    src.add_argument(
        "--profile", choices=sorted(_PROFILE_ALIASES),
        help="one of the paper's database profiles",
    )
    src.add_argument("--database", help="database FASTA file")
    p_predict.add_argument("--query-length", type=int, default=567)
    p_predict.add_argument(
        "--device", choices=sorted(DEVICES), default="C1060"
    )
    p_predict.add_argument(
        "--kernel", choices=("original", "improved"), default="improved"
    )
    p_predict.add_argument(
        "--threshold", type=_threshold_arg, default=3072,
        help="dispatch threshold (integer, or 'auto')",
    )
    p_predict.add_argument("--seed", type=int, default=0)
    p_predict.add_argument(
        "--explain", action="store_true",
        help="show the cost model's per-kernel time breakdown",
    )
    p_predict.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink a profile database by this factor",
    )

    p_exhibit = sub.add_parser(
        "exhibit", help="regenerate a figure/table of the paper"
    )
    p_exhibit.add_argument("name", choices=_EXHIBITS)
    p_exhibit.add_argument("--seed", type=int, default=0)

    p_db = sub.add_parser(
        "db", help="pre-packed binary database stores (.rdb)"
    )
    db_sub = p_db.add_subparsers(dest="db_command", required=True)
    p_db_build = db_sub.add_parser(
        "build",
        help="pack a FASTA database into an .rdb store, once, offline: "
        "encoded residues, length index and sort, id index and "
        "per-section CRCs behind a fingerprinted header, written "
        "atomically (temp + fsync + rename) so a crash can never leave "
        "a readable partial store",
    )
    p_db_build.add_argument("fasta", help="database FASTA file (streamed)")
    p_db_build.add_argument("store", help="output .rdb path")
    p_db_build.add_argument(
        "--group-size", type=int, default=None, metavar="N",
        help="group size recorded in the store (default: the engine's "
        "tuned default); repro db info reports it and "
        "DatabaseStore.plan_for('row') cuts the sorted index into "
        "chunks of it; a search plans its own groups from the index at "
        "its own --group-size",
    )
    p_db_build.add_argument(
        "--comment", default="", metavar="TEXT",
        help="free-text note stored in the (checksum-exempt) 64-byte "
        "header comment field",
    )
    p_db_verify = db_sub.add_parser(
        "verify",
        help="validate an .rdb store; exits 4 if it cannot be trusted",
    )
    p_db_verify.add_argument("store", help=".rdb path")
    p_db_verify.add_argument(
        "--deep", action="store_true",
        help="full-CRC walk: also checksum the residue blob, "
        "recompute the content fingerprint and re-check the length "
        "sort (O(database), not O(index))",
    )
    p_db_info = db_sub.add_parser(
        "info",
        help="print an .rdb store's header, fingerprint and length "
        "statistics (reads the index only, never the residue blob)",
    )
    p_db_info.add_argument("store", help=".rdb path")

    return parser


def _scoring(args) -> tuple:
    matrix = (
        BLOSUM62 if args.matrix is None else load_ncbi_matrix(args.matrix)
    )
    gaps = GapPenalty.from_open_extend(args.gap_open, args.gap_extend)
    return matrix, gaps


def _first_record(path: str):
    records = read_fasta_file(path)
    if not records:
        raise SystemExit(f"no FASTA records in {path}")
    return records[0]


def _cmd_align(args, out: IO[str]) -> int:
    from repro.sw import nw_align, sw_align

    matrix, gaps = _scoring(args)
    query = _first_record(args.query)
    subject = _first_record(args.subject)
    align = sw_align if args.mode == "local" else nw_align
    alignment = align(query, subject, matrix, gaps)
    print(f"# {args.mode} alignment of {query.id} vs {subject.id}", file=out)
    print(alignment.pretty(matrix), file=out)
    print(f"cigar: {alignment.cigar}", file=out)
    return 0


def _fault_policy(args):
    """A FaultPolicy from the search flags, or None when all defaulted."""
    if args.timeout is None and args.retries is None and args.deadline is None:
        return None
    from repro.engine import FaultPolicy

    kwargs = {"timeout": args.timeout, "deadline": args.deadline}
    if args.retries is not None:
        kwargs["retries"] = args.retries
    return FaultPolicy(**kwargs)


def _cmd_search(args, out: IO[str]) -> int:
    from repro import obs
    from repro.engine import (
        CheckpointError,
        DatabaseFormatError,
        DatabaseStore,
        MemoryBudget,
        SearchDeadlineExceeded,
        open_database,
    )
    from repro.stats import ScoreStatistics, annotate_hits

    if args.database is None and args.db is None:
        print(
            "error: provide a database FASTA file or --db STORE",
            file=out,
        )
        return 2
    if args.db_fallback and (args.db is None or args.database is None):
        print(
            "error: --db-fallback needs both --db (the store to try) and "
            "the database FASTA positional (the fallback source)",
            file=out,
        )
        return 2
    matrix, gaps = _scoring(args)
    query = _first_record(args.query)
    db_label = args.db if args.db is not None else args.database
    app = CudaSW(
        DEVICES[args.device],
        intra_kernel=args.kernel,
        threshold=args.threshold,
        matrix=matrix,
        gaps=gaps,
    )
    try:
        fault_policy = _fault_policy(args)
        memory_budget = (
            None
            if args.memory_budget_mb is None
            else MemoryBudget.from_megabytes(args.memory_budget_mb)
        )
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    # --profile/--metrics-out/--trace-out/--mem-phases own the
    # collection session at CLI level so the E-value ranking phase is
    # traced alongside the search itself.
    observing = (
        args.profile
        or args.metrics_out is not None
        or args.trace_out is not None
        or args.mem_phases
    )
    with obs.collect(
        "full" if observing else "off", memory=args.mem_phases
    ) as instr:
        # Database resolution happens inside the collection session so
        # the db_open span (and any dbstore counters) land in the
        # profile alongside the search phases.
        search_db: Database | DatabaseStore
        try:
            if args.db is not None:
                search_db = open_database(
                    args.db,
                    verify=args.db_verify,
                    fallback="fasta" if args.db_fallback else None,
                    fasta=args.database,
                )
            else:
                search_db = Database.from_sequences(
                    read_fasta_file(args.database)
                )
        except DatabaseFormatError as exc:
            print(f"error: {exc}", file=out)
            return 4
        db_view = (
            search_db.database
            if isinstance(search_db, DatabaseStore)
            else search_db
        )
        if args.db is not None and not isinstance(search_db, DatabaseStore):
            db_label = args.database
            print(
                f"# warning: store {args.db} was refused; degraded to the "
                f"in-memory FASTA path ({args.database})",
                file=out,
            )
        try:
            result, report = app.search(
                query, search_db, engine=args.engine, workers=args.workers,
                group_size=args.group_size, fault_policy=fault_policy,
                checkpoint=args.checkpoint, resume=args.resume,
                memory_budget=memory_budget,
                split_threshold=args.split_threshold,
            )
        except SearchDeadlineExceeded as exc:
            done = (
                int(exc.completed_mask.sum())
                if exc.completed_mask is not None
                else 0
            )
            print(
                f"error: {exc} ({done}/{len(db_view)} sequences scored)",
                file=out,
            )
            if args.checkpoint is not None:
                print(
                    f"# checkpoint journal: {args.checkpoint} — completed "
                    "groups are saved; rerun with --resume to finish",
                    file=out,
                )
            return 3
        except CheckpointError as exc:
            print(f"error: {exc}", file=out)
            return 2
        except KeyboardInterrupt:
            if args.checkpoint is not None:
                print(
                    f"# interrupted; checkpoint journal: {args.checkpoint} "
                    "— completed groups are saved; rerun with --resume to "
                    "finish",
                    file=out,
                )
            return 130
        except ValueError as exc:
            print(f"error: {exc}", file=out)
            return 2
        stats = ScoreStatistics(matrix, gaps)
        with instr.span("rank"):
            hits = annotate_hits(
                result, stats, len(query), k=args.top,
                max_evalue=args.max_evalue,
            )
    run_report = None
    if observing:
        run_report = obs.RunReport.from_instrumentation(
            instr,
            engine_report=app.last_engine_report,
            search_report=report,
            meta=app.run_report_meta(
                query, search_db, engine=args.engine,
                workers=args.workers, database=db_label,
            ),
        )
    print(
        f"# query {query.id} ({len(query)} aa) vs {db_label} "
        f"({len(db_view)} sequences, {db_view.total_residues} residues)",
        file=out,
    )
    print(f"{'hit':<24} {'len':>6} {'score':>6} {'bits':>7} {'E-value':>10}",
          file=out)
    for a in hits:
        print(
            f"{a.hit.id:<24} {a.hit.length:>6} {a.hit.score:>6} "
            f"{a.bit_score:>7.1f} {a.evalue:>10.2g}",
            file=out,
        )
    if not hits:
        print("(no hits pass the E-value cutoff)", file=out)
    print(
        f"# modeled on {report.device}: {report.gcups:.2f} GCUPs, "
        f"{report.intra_time_fraction:.0%} of time in the intra-task kernel",
        file=out,
    )
    if app.last_engine_report is not None:
        er = app.last_engine_report
        print(
            f"# scored by {args.engine} engine: {er.n_groups} groups of "
            f"<= {er.group_size} lanes, padding efficiency "
            f"{er.padding_efficiency:.3f}",
            file=out,
        )
    else:
        print(f"# scored by {args.engine} engine", file=out)
    if args.scores_out is not None:
        print(f"# scores written to {result.write_tsv(args.scores_out)}",
              file=out)
    if args.profile:
        print(file=out)
        print(run_report.render_profile(), file=out)
    if args.metrics_out is not None:
        path = run_report.write(args.metrics_out)
        print(f"# metrics written to {path}", file=out)
    if args.trace_out is not None:
        path = run_report.write_trace(args.trace_out)
        print(
            f"# trace written to {path} (load in chrome://tracing or "
            "https://ui.perfetto.dev)",
            file=out,
        )
    return 0


def _cmd_db(args, out: IO[str]) -> int:
    from repro.engine import (
        DatabaseFormatError,
        DatabaseStore,
        build_store_from_fasta,
        open_database,
    )
    from repro.engine.dbstore import FORMAT_VERSION

    if args.db_command == "build":
        kwargs = {}
        if args.group_size is not None:
            kwargs["group_size"] = args.group_size
        try:
            info = build_store_from_fasta(
                args.fasta, args.store, comment=args.comment, **kwargs
            )
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=out)
            return 2
        print(f"# built {info.path}", file=out)
        print(f"sequences:    {info.sequences}", file=out)
        print(f"residues:     {info.residues}", file=out)
        print(f"group size:   {info.group_size}", file=out)
        print(f"file bytes:   {info.file_bytes}", file=out)
        print(f"fingerprint:  {info.fingerprint}", file=out)
        return 0
    deep = bool(getattr(args, "deep", False))
    try:
        store = open_database(args.store, verify="deep" if deep else "fast")
        if not isinstance(store, DatabaseStore):
            raise DatabaseFormatError(
                f"{args.store} did not open as a database store"
            )
    except DatabaseFormatError as exc:
        print(f"error: {exc}", file=out)
        return 4
    if args.db_command == "verify":
        print(
            f"ok: {store.path} passed "
            f"{'deep' if deep else 'fast'} validation",
            file=out,
        )
        print(f"fingerprint:  {store.fingerprint}", file=out)
        return 0
    # info: index-only statistics — the residue blob is memmapped but
    # never faulted in.
    lengths = store.lengths
    print(f"# {store.path}", file=out)
    print(f"format:       .rdb v{FORMAT_VERSION}", file=out)
    print(f"fingerprint:  {store.fingerprint}", file=out)
    print(f"sequences:    {len(store)}", file=out)
    print(f"residues:     {store.database.total_residues}", file=out)
    print(f"group size:   {store.group_size}", file=out)
    print(
        f"lengths:      min {int(lengths.min())}, "
        f"median {int(np.median(lengths))}, max {int(lengths.max())}",
        file=out,
    )
    if store.comment:
        print(f"comment:      {store.comment}", file=out)
    return 0


def _cmd_predict(args, out: IO[str]) -> int:
    if args.profile:
        profile = next(
            p for p in PAPER_DATABASES
            if p.name == _PROFILE_ALIASES[args.profile]
        )
        rng = np.random.default_rng(args.seed)
        db = profile.build(rng, scale=args.scale)
    else:
        db = Database.from_sequences(read_fasta_file(args.database))
    app = CudaSW(
        DEVICES[args.device], intra_kernel=args.kernel, threshold=args.threshold
    )
    r = app.predict(args.query_length, db)
    print(f"# database: {db.name}", file=out)
    print(f"#   {db.stats()}", file=out)
    print(
        f"#   {100 * r.fraction_over_threshold:.2f}% of sequences over "
        f"threshold {r.threshold}"
        + (" (auto-detected)" if args.threshold == "auto" else ""),
        file=out,
    )
    print(f"device:               {r.device}", file=out)
    print(f"intra-task kernel:    {args.kernel}", file=out)
    print(f"query length:         {r.query_length}", file=out)
    print(f"modeled GCUPs:        {r.gcups:.2f}", file=out)
    print(f"total time:           {r.total_time * 1e3:.1f} ms", file=out)
    print(f"  inter-task:         {r.inter_time * 1e3:.1f} ms "
          f"({r.inter_launches} launches)", file=out)
    print(f"  intra-task:         {r.intra_time * 1e3:.1f} ms "
          f"({100 * r.intra_time_fraction:.1f}% of total)", file=out)
    print(f"  host->device copy:  {r.transfer_time * 1e3:.1f} ms", file=out)
    print(f"load-balance eff.:    {r.load_balance_efficiency:.3f}", file=out)
    if args.explain:
        _explain(app, r, db, out)
    return 0


def _explain(app: CudaSW, report, db, out: IO[str]) -> None:
    """Re-run the cost model per dispatch side and print the breakdown."""
    from repro.app.scheduler import schedule_inter_task

    threshold = report.threshold
    below, above = db.split_by_threshold(threshold)
    if below is not None:
        schedule = schedule_inter_task(
            report.query_length, below, app.inter_kernel, app.device
        )
        t = app.cost.kernel_time(
            schedule.counts,
            app.inter_kernel.launch_config(
                max(schedule.group_size // app.inter_kernel.threads_per_block, 1)
            ),
            app.inter_kernel.cache_profile(
                report.query_length, int(below.lengths.mean())
            ),
            launches=schedule.n_launches,
        )
        print("\ninter-task kernel breakdown:", file=out)
        print(t.render(), file=out)
    if above is not None:
        counts = app.intra_kernel.bulk_pair_counts(
            report.query_length, above.lengths
        )
        t = app.cost.kernel_time(
            counts,
            app.intra_kernel.launch_config(len(above)),
            app.intra_kernel.cache_profile(
                report.query_length, int(above.lengths.mean())
            ),
        )
        print("\nintra-task kernel breakdown:", file=out)
        print(t.render(), file=out)


def _cmd_exhibit(args, out: IO[str]) -> int:
    import repro.analysis as analysis

    if args.name == "checks":
        from repro.analysis.compare import render_checks, run_all_checks

        print(render_checks(run_all_checks(args.seed)), file=out)
        return 0
    driver = getattr(analysis, args.name)
    print(driver(args.seed).render(), file=out)
    return 0


def main(argv: TySequence[str] | None = None, out: IO[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    handlers = {
        "align": _cmd_align,
        "search": _cmd_search,
        "predict": _cmd_predict,
        "exhibit": _cmd_exhibit,
        "db": _cmd_db,
    }
    return handlers[args.command](args, out)
