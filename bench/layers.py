"""The traced per-layer pass: each layer's cost, timed from outside.

Every measurement brackets a call into a public function of
``repro.sequence``, ``repro.stats``, ``repro.engine`` or ``repro.app``
with the harness's own clock; nothing inside the program is changed.
Kernel sweeps run inside an ``obs.collect("counters")`` session, so the
cell, column and row counts each ns/cell divides by are the program's
own counters.  The cost of that session is what
``obs.counters_overhead_frac`` reports: the tracing overhead of this
pass against the untraced end-to-end pass.

The costly per-query measurements (every kernel sweep, both executor
paths, the whole search in each collect mode) run together in rounds,
so the ratios between them (coverage, overhead, fan-out speedup, store
against FASTA) compare times taken under the same host conditions.

All per-query layers use q0, the query of the cold CLI search.  Child
processes and the rounds are corrected for host speed like the
end-to-end pass (see :class:`measure.HostClock`); sub-millisecond
layers, which a probe would dwarf, are raw.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

from repro import obs
from repro.app import CudaSW
from repro.app.threshold import tune_split_threshold
from repro.engine import (
    CheckpointJournal,
    PackedGroup,
    build_store,
    open_database,
    pack_database,
    pack_database_hetero,
    pack_group,
    run_groups,
    score_packed_group,
    score_packed_group_striped,
    score_packed_group_strips,
)
from repro.sequence import QueryProfile, StripedProfile, read_fasta_file
from repro.sequence.database import Database
from repro.stats import ScoreStatistics, annotate_hits
from repro.sw.utils import as_codes

from measure import (
    CHILD_PROBE_REF_S,
    NUMPY_PROBE_REF_S,
    HostClock,
    NumpyProbe,
    Summary,
    Tally,
    child_probe,
    run_child,
    sample,
)
from workloads import (
    GAPS, GROUP_SIZE, MATRIX, Inputs, Workload, read_scores_tsv,
)

#: Child program: the cold CLI search (``argv[2:]``) with its Karlin
#: calibration hoisted in front of it and timed, so one process splits
#: into interpreter start plus ``import repro.cli``, Karlin (which the
#: in-process cache would hide from a warm timing), and the rest of the
#: search, which finds the calibration cached.  The child writes the
#: Karlin and rest-of-search seconds to argv[1].
_CHILD = """\
import sys, time
import repro.cli
from repro.alphabet import BLOSUM62, GapPenalty
from repro.stats import ScoreStatistics
started = time.perf_counter()
ScoreStatistics(BLOSUM62, GapPenalty.from_open_extend(10, 2))
calibrated = time.perf_counter()
status = repro.cli.main(sys.argv[2:])
rest = time.perf_counter() - calibrated
with open(sys.argv[1], "w") as fh:
    fh.write(f"{calibrated - started!r} {rest!r}")
sys.exit(status)
"""

#: Shares of ``--seconds``: what a small layer may sample for beyond its
#: minimum count, what the cold children get, and what the rounds of
#: costly layers get.
_SMALL = 0.01
_CHILDREN = 0.3
_ROUNDS = 0.5

Metric = Summary | float | None


def plan(w: Workload, db: Database, threshold: int) -> list[PackedGroup]:
    """Pack ``db`` with the workload's own packer, as its search does."""
    if w.engine == "hetero":
        return pack_database_hetero(db, GROUP_SIZE, threshold)
    return pack_database(db, GROUP_SIZE)


def run(
    inp: Inputs,
    *,
    seconds: float,
    min_n: int,
    tally: Tally,
    env: dict[str, str],
    root: Path,
    cpus: int,
) -> tuple[dict[str, Metric], dict[str, float]]:
    """Returns the per-layer metrics, plus notes: the host factors seen
    in the pass and the shares of a cold search's time."""
    numpy_probe = NumpyProbe()
    w = inp.workload
    work = inp.workdir
    q0 = inp.queries[0]
    m = len(q0)
    q_codes = as_codes(q0, MATRIX)
    ref = inp.references[0]
    out: dict[str, Metric] = {}

    def timed(fn: Callable[[], object]) -> Summary:
        return Summary.of(
            sample(fn, min_n=min_n, budget_s=_SMALL * seconds)
        )

    # -- Cold-start layers, split inside one cold search per child. -------
    timings = work / "child.txt"
    tsv = work / "child.tsv"
    argv = [
        sys.executable, "-c", _CHILD, str(timings), *inp.search_args(tsv)
    ]
    # (raw wall, host-corrected wall, raw Karlin, raw rest of search)
    colds: list[tuple[float, float, float, float]] = []
    children = HostClock(child_probe, CHILD_PROBE_REF_S)

    def cold() -> None:
        tsv.unlink(missing_ok=True)
        raw, norm, child = children.measure(
            lambda: run_child(argv, env=env, cwd=root, workdir=work)
        )
        ok = child.returncode == 0 and tsv.exists() and np.array_equal(
            read_scores_tsv(tsv), ref
        )
        if tally.record(ok, f"cold child exit {child.returncode}: "
                            f"{child.stderr[-200:]}"):
            karlin, rest = map(float, timings.read_text().split())
            colds.append((raw, norm, karlin, rest))

    sample(cold, min_n=min_n, budget_s=_CHILDREN * seconds)
    out["cli.import_s"] = Summary.of(
        [(r - k - s) * n / r for r, n, k, s in colds]
    )
    out["stats.karlin_s"] = Summary.of([k * n / r for r, n, k, s in colds])

    # -- Database layers. ------------------------------------------------
    store_path = inp.store_path or build_store(
        inp.db, work / "layers.rdb", group_size=GROUP_SIZE
    ).path
    store = open_database(store_path)
    target = store if w.store else inp.db
    db_view = store.database if w.store else inp.db
    out["sequence.fasta_load_ms"] = timed(
        lambda: Database.from_sequences(read_fasta_file(inp.fasta))
    ).scaled(1e3)
    out["dbstore.build_s"] = timed(
        lambda: build_store(inp.db, work / "build.rdb", group_size=GROUP_SIZE)
    )
    out["dbstore.open_fast_ms"] = timed(
        lambda: open_database(store_path, verify="fast")
    ).scaled(1e3)
    out["dbstore.open_deep_ms"] = timed(
        lambda: open_database(store_path, verify="deep")
    ).scaled(1e3)

    # -- Per-query set-up: profiles, threshold, packing. -----------------
    profile_s = timed(lambda: QueryProfile(q_codes, MATRIX))
    out["sequence.profile_us"] = profile_s.scaled(1e6)
    out["sequence.striped_profile_us"] = timed(
        lambda: StripedProfile(q_codes, MATRIX)
    ).scaled(1e6)
    tune_s = timed(
        lambda: tune_split_threshold(db_view.lengths, group_size=GROUP_SIZE)
    )
    out["threshold.tune_ms"] = tune_s.scaled(1e3)
    threshold = tune_split_threshold(db_view.lengths, group_size=GROUP_SIZE)
    plan_s = timed(lambda: plan(w, db_view, threshold))
    out["pack.plan_ms"] = plan_s.scaled(1e3)
    with obs.collect("counters") as instr:
        groups = plan(w, db_view, threshold)
    padded = instr.counters.get("engine.pack.padded_cells")
    out["pack.padding_efficiency"] = (
        instr.counters.get("engine.pack.residues") / padded
    )
    out["pack.sweep_cells"] = padded * sum(len(q) for q in inp.queries)

    # -- Checkpoint journal over the workload's groups. ------------------
    journal_path = work / "layers.journal"
    appends: list[float] = []
    record_bytes: list[float] = []

    def journal() -> None:
        jr = CheckpointJournal.create(journal_path, "bench", len(groups))
        base = journal_path.stat().st_size
        for gi, g in enumerate(groups):
            started = time.perf_counter()
            jr.append(gi, g, ref[g.indices])
            appends.append(time.perf_counter() - started)
        jr.close()
        record_bytes.append(
            (journal_path.stat().st_size - base) / len(groups)
        )

    timed(journal)
    append_s = Summary.of(appends)
    out["checkpoint.append_ms"] = append_s.scaled(1e3)
    out["checkpoint.bytes_per_group"] = record_bytes[-1]

    # -- Rounds of the costly per-query measurements. --------------------
    profile = QueryProfile(q_codes, MATRIX)
    striped_profile = StripedProfile(q_codes, MATRIX)
    row_groups = pack_database(inp.db, GROUP_SIZE)
    # Same row geometry, lane matrices packed from the store's memmap.
    store_groups = [
        pack_group(store.database, store.sort_order[start:end])
        for start, end in store.plan_for("row").ranges
    ]
    hetero = pack_database_hetero(db_view, GROUP_SIZE, threshold)
    if len({g.lane_engine for g in hetero}) < 2:
        # The auto split left one kernel without work on this database:
        # split at the median length so both kernels are measured.
        hetero = pack_database_hetero(
            db_view, GROUP_SIZE, int(np.median(db_view.lengths))
        )
    bulk = [g for g in hetero if g.lane_engine == "striped"]
    tail = [g for g in hetero if g.lane_engine == "strips"]
    # The executor runs the groups the kernels below sweep, so its
    # overhead is its time minus theirs.
    exec_groups = hetero if w.engine == "hetero" else row_groups
    exec_store = store if w.store else None
    app = CudaSW(matrix=MATRIX, gaps=GAPS)
    kwargs = inp.search_kwargs()
    counters: dict[str, obs.CounterRegistry] = {}
    demotions: list[int] = []

    def kernel(
        name: str, fn: Callable, prof: object, kgroups: list[PackedGroup]
    ) -> tuple[Callable[[], object], Callable[[object], bool]]:
        indices = np.concatenate([g.indices for g in kgroups])

        def sweep() -> list[np.ndarray]:
            with obs.collect("counters") as instr:
                scores = [fn(prof, g, GAPS) for g in kgroups]
            counters[name] = instr.counters
            return scores

        return sweep, lambda s: np.array_equal(
            np.concatenate(s), ref[indices]
        )

    def executor(workers: int) -> tuple[Callable[[], object], Callable]:
        indices = np.concatenate([g.indices for g in exec_groups])
        return (
            lambda: run_groups(
                profile, exec_groups, GAPS, workers=workers, store=exec_store
            ),
            lambda s: np.array_equal(np.concatenate(s), ref[indices]),
        )

    def search(mode: str) -> tuple[Callable[[], object], Callable]:
        def call() -> object:
            result, _ = app.search(q0, target, collect=mode, **kwargs)
            if mode == "counters":
                demotions.append(app.last_run_report.counters.get(
                    "engine.executor.fanout_demotions", 0
                ))
            return result

        return call, lambda r: np.array_equal(r.scores, ref)

    big = {
        "lanes": kernel("lanes", score_packed_group, profile, row_groups),
        "lanes_store": kernel(
            "lanes_store", score_packed_group, profile, store_groups
        ),
        "striped": kernel(
            "striped", score_packed_group_striped, striped_profile, bulk
        ),
        "strips": kernel("strips", score_packed_group_strips, profile, tail),
        "serial": executor(1),
        **({"pool": executor(2)} if cpus >= 2 else {}),
        "off": search("off"),
        "counters": search("counters"),
        "full": search("full"),
    }
    times: dict[str, list[float]] = {name: [] for name in big}
    raw_times: dict[str, list[float]] = {name: [] for name in big}
    results = []
    clock = HostClock(numpy_probe, NUMPY_PROBE_REF_S)

    def one_round() -> None:
        for name, (fn, check) in big.items():
            raw, seconds_, output = clock.measure(fn)
            times[name].append(seconds_)
            raw_times[name].append(raw)
            tally.record(check(output), f"{name} scores differ")
            if name == "off":
                results.append(output)

    app.search(q0, target, **kwargs)  # untimed warm-up
    sample(one_round, min_n=1, budget_s=_ROUNDS * seconds)
    t = {name: Summary.of(v) for name, v in times.items()}

    cells = counters["lanes"].get("engine.sweep.padded_cells")
    out["lanes.cells"] = cells
    out["lanes.ns_per_cell"] = t["lanes"].scaled(1e9 / cells)
    out["lanes.ns_per_cell_store"] = t["lanes_store"].scaled(
        1e9 / counters["lanes_store"].get("engine.sweep.padded_cells")
    )
    striped_cells = m * sum(g.padded_cells for g in bulk)
    columns = counters["striped"].get("engine.striped.columns")
    out["striped.cells"] = striped_cells
    out["striped.ns_per_cell"] = t["striped"].scaled(1e9 / striped_cells)
    out["striped.columns"] = columns
    out["striped.ns_per_column"] = t["striped"].scaled(1e9 / columns)
    out["striped.lazy_f_rounds"] = counters["striped"].get(
        "engine.striped.lazy_f_iterations"
    )
    out["striped.rerun_lanes"] = counters["striped"].get(
        "engine.striped.saturated_lanes"
    )
    strip_cells = counters["strips"].get("engine.strips.padded_cells")
    out["strips.cells"] = strip_cells
    out["strips.rows"] = counters["strips"].get("engine.strips.rows")
    out["strips.ns_per_cell"] = t["strips"].scaled(1e9 / strip_cells)

    serial, pool = t["serial"], t.get("pool")
    out["executor.serial_s"] = serial
    out["executor.pool_s"] = pool
    out["executor.fanout_speedup"] = (
        None if pool is None else serial.median / pool.median
    )
    kernel_s = (
        t["striped"].median + t["strips"].median
        if w.engine == "hetero" else t["lanes"].median
    )
    # A workload with more workers than CPUs is skipped before this pass,
    # so a fanned workload always has its pool timed.
    exec_name = "pool" if w.workers > 1 else "serial"
    # Share of the executor's worker-seconds not spent inside kernels
    # (for one worker: run_groups time minus kernel time, over it).
    out["executor.overhead_frac"] = 1.0 - kernel_s / (
        t[exec_name].median * w.workers
    )

    search_s = t["off"]
    out["app.search_ms"] = search_s.scaled(1e3)
    for mode in ("counters", "full"):
        out[f"obs.{mode}_overhead_frac"] = (
            t[mode].median / search_s.median - 1.0
        )
    # Coverage: the per-query search's layers against its wall time.  A
    # search too small for the pool runs serially; the program's own
    # demotion counter says which executor path to charge.
    if any(demotions):
        exec_name = "serial"
    layers = profile_s.median + plan_s.median + t[exec_name].median
    if w.engine == "hetero":
        layers += tune_s.median
    if w.checkpoint:
        layers += len(groups) * append_s.median
    out["app.unattributed_frac"] = 1.0 - layers / search_s.median

    # -- Cold-path tail: rank and TSV write of the q0 result. -------------
    stats = ScoreStatistics(MATRIX, GAPS)
    result = results[0]
    out["stats.rank_ms"] = timed(
        lambda: annotate_hits(result, stats, m)
    ).scaled(1e3)
    out["app.tsv_ms"] = timed(
        lambda: result.write_tsv(work / "layers.tsv")
    ).scaled(1e3)

    # Where a cold search's time goes: raw times, since the cold children
    # and the rounds are corrected by different probes.  Interpreter
    # start plus imports and Karlin come from the cold children
    # themselves; the sweep is the warm executor time of the same path.
    cold_s = statistics.median(r for r, _, _, _ in colds)
    shares = {
        "import": statistics.median(r - k - s for r, _, k, s in colds),
        "karlin": statistics.median(k for _, _, k, _ in colds),
        "sweep": statistics.median(raw_times[exec_name]),
    }
    notes = {
        "host_factor_child": Summary.of(children.factors).median,
        "host_factor_numpy": Summary.of(clock.factors).median,
        "raw_cold_search_s": cold_s,
        **{f"cold_{k}_share": v / cold_s for k, v in shares.items()},
        "cold_other_share": 1.0 - sum(shares.values()) / cold_s,
    }
    return out, notes
